//! Matrix multiplication: one serial, register-tiled kernel plus a naive
//! reference used to validate it.
//!
//! There is no threading here. Parallelism lives one level up, in the rank
//! threads or rank processes of the distributed runtime; a GEMM that also
//! fanned out would oversubscribe the host on every call.
//!
//! **Reduction order.** Every output element starts at `+0.0` and adds
//! `a[i,kk] * b[kk,j]` for `kk = 0..k` in ascending order, as a separate
//! multiply and add (never a fused multiply-add). The bit-identity gates
//! of the distributed runtime (thread vs process mode, sharded vs serial
//! training) compare results bit for bit, so every path through this
//! module must produce exactly these bits. Tiling over `i` and `j` is free;
//! the `k` loop is never split.
//!
//! **Zero coefficients.** [`matmul`] and [`matmul_tn`] skip a term whose `A`
//! coefficient is exactly zero, so `0 · inf` and `0 · NaN` in `B`
//! contribute nothing. [`matmul_nt`] adds every term, so there `0 · inf`
//! yields NaN. For finite `B` the two agree bit for bit: the accumulator
//! starts at `+0.0` and can never become `-0.0`, so adding a zero product
//! leaves it unchanged.
//!
//! **Kernel.** [`matmul_tn`] and [`matmul_nt`] transpose their operand
//! first (an `O(k·n)` copy against `O(m·k·n)` work), so one row-major
//! kernel serves all three. It walks `C` in `MR × NR` tiles. The `MR` rows
//! of `A` are interleaved `k`-major so each step loads them together; `B`
//! is read in place, except its ragged last columns, which are copied into
//! a zero-padded `NR`-wide panel. Each tile is accumulated in registers
//! over the whole `k` range and stored once; a ragged tail of fewer than
//! `MR` rows runs one row at a time. The loops are plain slices of fixed
//! width, which stable Rust auto-vectorizes. On x86-64 hosts with AVX2 the
//! same kernel body is compiled a second time with AVX2 enabled (no FMA)
//! and chosen at runtime.

use crate::Matrix;

/// Rows of `A` per register tile.
const MR: usize = 4;
/// Columns of `B` per register tile.
const NR: usize = 16;

/// `C = A · B` (`m×k` times `k×n`).
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
    gemm(a, b, true)
}

/// `C = Aᵀ · B` (`k×m`ᵀ times `k×n`).
pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.rows(), b.rows(), "outer dimensions must agree");
    gemm(&a.transpose(), b, true)
}

/// `C = A · Bᵀ` (`m×k` times `n×k`ᵀ). Unlike [`matmul`] it adds every term,
/// zero coefficients included, so a `0 · inf` or `0 · NaN` term makes the
/// element NaN.
pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.cols(), "inner dimensions must agree");
    gemm(a, &b.transpose(), false)
}

/// `A · B` for row-major operands, dispatched to the AVX2 build of the
/// kernel when the host has it. With `skip` a zero `A` coefficient
/// contributes no term.
fn gemm(a: &Matrix, b: &Matrix, skip: bool) -> Matrix {
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: the host supports AVX2, checked on the line above.
        return unsafe { gemm_avx2(a, b, skip) };
    }
    gemm_body(a, b, skip)
}

/// [`gemm_body`] compiled with AVX2 enabled. FMA stays off, so every
/// multiply and add rounds separately, exactly as in the portable build.
///
/// # Safety
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_avx2(a: &Matrix, b: &Matrix, skip: bool) -> Matrix {
    gemm_body(a, b, skip)
}

/// Run the register tile over every `MR × NR` block of `out`.
#[inline(always)]
fn gemm_body(a: &Matrix, b: &Matrix, skip: bool) -> Matrix {
    let (m, k, n) = (a.rows(), a.cols(), b.cols());
    let mut out = Matrix::zeros(m, n);
    if m == 0 || n == 0 || k == 0 {
        return out;
    }
    // Full panels read B in place; the ragged last NR columns are copied
    // into a zero-padded panel.
    let full = n / NR * NR;
    let mut edge = vec![0.0f32; if full < n { k * NR } else { 0 }];
    for (kk, row) in edge.chunks_exact_mut(NR).enumerate() {
        row[..n - full].copy_from_slice(&b.row(kk)[full..]);
    }
    let mut packed = vec![0.0f32; k * MR];
    let mut i0 = 0;
    while i0 < m {
        // Full MR-row tiles, then single rows for the ragged tail: an m = 1
        // decode row must not pay for MR.
        let rows = if m - i0 >= MR { MR } else { 1 };
        let ap: &[f32] = if rows == MR {
            // A's MR rows interleaved k-major: packed[kk·MR + r].
            for r in 0..MR {
                for (dst, &x) in packed.chunks_exact_mut(MR).zip(a.row(i0 + r)) {
                    dst[r] = x;
                }
            }
            &packed
        } else {
            a.row(i0)
        };
        for j0 in (0..n).step_by(NR) {
            let (bp, ldb) = if j0 < full {
                (&b.as_slice()[j0..], n)
            } else {
                (&edge[..], NR)
            };
            let cols = NR.min(n - j0);
            let mut store = |block: &[[f32; NR]]| {
                for (r, acc) in block.iter().enumerate() {
                    out.row_mut(i0 + r)[j0..j0 + cols].copy_from_slice(&acc[..cols]);
                }
            };
            match (rows == MR, skip) {
                (true, false) => store(&tile::<MR, false>(ap, bp, ldb)),
                (true, true) => store(&tile::<MR, true>(ap, bp, ldb)),
                (false, false) => store(&tile::<1, false>(ap, bp, ldb)),
                (false, true) => store(&tile::<1, true>(ap, bp, ldb)),
            }
        }
        i0 += rows;
    }
    out
}

/// One `R × NR` register tile: `acc[r][c] = Σ_kk ap[kk·R + r] · bp[kk·ldb
/// + c]`, ascending `kk`, starting from `+0.0`. With `SKIP_ZEROS` a zero
/// `A` coefficient contributes no term.
#[inline(always)]
fn tile<const R: usize, const SKIP_ZEROS: bool>(
    ap: &[f32],
    bp: &[f32],
    ldb: usize,
) -> [[f32; NR]; R] {
    let mut acc = [[0.0f32; NR]; R];
    for (a, b) in ap.chunks_exact(R).zip(bp.chunks(ldb)) {
        let b = &b[..NR];
        for (acc_row, &av) in acc.iter_mut().zip(a) {
            if SKIP_ZEROS && av == 0.0 {
                continue;
            }
            for (o, &bv) in acc_row.iter_mut().zip(b) {
                *o += av * bv;
            }
        }
    }
    acc
}

/// Textbook triple loop, for validation.
pub fn matmul_naive(a: &Matrix, b: &Matrix) -> Matrix {
    assert_eq!(a.cols(), b.rows());
    Matrix::from_fn(a.rows(), b.cols(), |i, j| {
        (0..a.cols()).map(|kk| a.get(i, kk) * b.get(kk, j)).sum()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn rand_matrix(r: usize, c: usize, seed: u64) -> Matrix {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        Matrix::randn(r, c, 1.0, &mut rng)
    }

    #[test]
    fn matmul_matches_naive() {
        let a = rand_matrix(7, 13, 1);
        let b = rand_matrix(13, 5, 2);
        let fast = matmul(&a, &b);
        let slow = matmul_naive(&a, &b);
        assert!(fast.max_abs_diff(&slow) < 1e-4);
    }

    #[test]
    fn matmul_tn_matches_explicit_transpose() {
        let a = rand_matrix(9, 4, 3);
        let b = rand_matrix(9, 6, 4);
        let fast = matmul_tn(&a, &b);
        let slow = matmul_naive(&a.transpose(), &b);
        assert!(fast.max_abs_diff(&slow) < 1e-4);
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = rand_matrix(5, 8, 5);
        let b = rand_matrix(11, 8, 6);
        let fast = matmul_nt(&a, &b);
        let slow = matmul_naive(&a, &b.transpose());
        assert!(fast.max_abs_diff(&slow) < 1e-4);
    }

    #[test]
    fn identity_is_neutral() {
        let a = rand_matrix(6, 6, 7);
        let eye = Matrix::from_fn(6, 6, |r, c| if r == c { 1.0 } else { 0.0 });
        assert!(matmul(&a, &eye).max_abs_diff(&a) < 1e-6);
        assert!(matmul(&eye, &a).max_abs_diff(&a) < 1e-6);
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn shape_mismatch_panics() {
        matmul(&Matrix::zeros(2, 3), &Matrix::zeros(4, 2));
    }

    #[test]
    #[should_panic(expected = "outer dimensions")]
    fn tn_shape_mismatch_panics() {
        matmul_tn(&Matrix::zeros(3, 2), &Matrix::zeros(4, 2));
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn nt_shape_mismatch_panics() {
        matmul_nt(&Matrix::zeros(2, 3), &Matrix::zeros(2, 4));
    }

    /// The documented order, written out: `+0.0`, then `a[i,kk] * b[kk,j]`
    /// for ascending `kk`, skipping zero `A` coefficients when asked.
    fn reference(a: &Matrix, b: &Matrix, skip_zeros: bool) -> Matrix {
        Matrix::from_fn(a.rows(), b.cols(), |i, j| {
            let mut acc = 0.0f32;
            for kk in 0..a.cols() {
                let av = a.get(i, kk);
                if skip_zeros && av == 0.0 {
                    continue;
                }
                acc += av * b.get(kk, j);
            }
            acc
        })
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// Random entries with exact `±0.0` sprinkled in, and `±inf` when
    /// `infs` is set. Inputs hold no NaN, so every NaN a product or sum
    /// makes is the platform's one default NaN and `to_bits` compares
    /// exactly.
    fn operand(r: usize, c: usize, infs: bool, rng: &mut StdRng) -> Matrix {
        let mut m = Matrix::randn(r, c, 1.0, rng);
        for x in m.as_mut_slice() {
            match rng.gen_range(0u32..16) {
                0..=2 => *x = 0.0,
                3 => *x = -0.0,
                4 if infs => *x = f32::INFINITY,
                5 if infs => *x = f32::NEG_INFINITY,
                _ => {}
            }
        }
        m
    }

    /// Seeded shapes from 0 to 40 on every side, ragged against the tile
    /// and including m = 1 decode rows: all three entry points match the
    /// scalar reference bit for bit.
    #[test]
    fn kernel_matches_reference_order_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x6e6d);
        for case in 0..300 {
            let m = if case % 5 == 0 {
                1
            } else {
                rng.gen_range(0..=40)
            };
            let k = rng.gen_range(0..=40);
            let n = rng.gen_range(0..=40);
            let infs = case % 3 == 0;
            let a = operand(m, k, infs, &mut rng);
            let b = operand(k, n, infs, &mut rng);
            let shape = format!("case {case}: m={m} k={k} n={n} infs={infs}");
            assert_eq!(
                bits(&matmul(&a, &b)),
                bits(&reference(&a, &b, true)),
                "matmul {shape}"
            );
            assert_eq!(
                bits(&matmul_tn(&a.transpose(), &b)),
                bits(&reference(&a, &b, true)),
                "matmul_tn {shape}"
            );
            assert_eq!(
                bits(&matmul_nt(&a, &b.transpose())),
                bits(&reference(&a, &b, false)),
                "matmul_nt {shape}"
            );
        }
    }

    /// `matmul_nt` adds every term, so a zero coefficient against an
    /// infinity or NaN poisons the element; `matmul` skips the term.
    #[test]
    fn zero_times_non_finite_is_nan_only_in_nt() {
        for poison in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            let a = Matrix::from_vec(1, 2, vec![0.0, 2.0]);
            let b = Matrix::from_vec(2, 1, vec![poison, 3.0]);
            assert_eq!(matmul(&a, &b).as_slice(), &[6.0]);
            assert_eq!(matmul_tn(&a.transpose(), &b).as_slice(), &[6.0]);
            assert!(matmul_nt(&a, &b.transpose()).get(0, 0).is_nan());
        }
    }

    /// The AVX2 build and the portable build of the kernel are the same
    /// body under different target features; they must agree bit for bit.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_and_portable_kernels_agree_bit_for_bit() {
        if !std::is_x86_feature_detected!("avx2") {
            return;
        }
        let mut rng = StdRng::seed_from_u64(0xa7c2);
        for case in 0..200 {
            let (m, k, n) = (
                rng.gen_range(0..=40),
                rng.gen_range(0..=40),
                rng.gen_range(0..=40),
            );
            let a = operand(m, k, case % 2 == 0, &mut rng);
            let b = operand(k, n, case % 2 == 0, &mut rng);
            for skip in [false, true] {
                let portable = gemm_body(&a, &b, skip);
                // SAFETY: AVX2 support was checked at the top of the test.
                let avx2 = unsafe { gemm_avx2(&a, &b, skip) };
                assert_eq!(bits(&portable), bits(&avx2), "case {case} skip={skip}");
            }
        }
    }
}
