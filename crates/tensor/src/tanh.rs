//! `tanhf`, bit for bit, eight lanes at a time.
//!
//! GeLU is two `tanh` calls per element, and once the GEMMs were fast the
//! host libm's scalar `tanhf` made it the most expensive op of a training
//! rank. This module replaces it with a kernel that returns exactly the
//! bits glibc 2.36 returns on x86-64. That `tanhf` is fdlibm's `s_tanhf.c`
//! over `s_expm1f.c`: plain f32 adds, multiplies and divides plus
//! exponent-bit tricks, so the same operations in the same order give the
//! same bits. The kernel has to match bit for bit because the recorded
//! training losses and the bit-identity gates of the distributed runtime
//! were all produced with it.
//!
//! - [`tanh_reference`] and `expm1_reference` are the replica: the two C
//!   routines transcribed branch for branch. They are the specification
//!   the kernel is tested against, and an exhaustive test checks them
//!   against `f32::tanh` on all 2³² inputs.
//! - `tanh_lane` is the kernel: the same arithmetic with every branch
//!   computed and then picked per lane by a select, so a loop over it
//!   vectorizes. `map2` runs such a loop (GeLU's forward and backward
//!   are its callers); on x86-64 hosts with AVX2 it runs a second build of
//!   the loop with AVX2 enabled (8 lanes, no FMA), otherwise the portable
//!   build. Rust never fuses a multiply and an add on its own, so both
//!   builds round every operation separately.
//!
//! Only `tanh` is replicated: `exp` and `ln` elsewhere in the engine still
//! come from the host libm.

// The constants of the two C routines, bit for bit.
const ONE: f32 = 1.0;
const TWO: f32 = 2.0;
const HALF: f32 = 0.5;
/// `tiny` of `s_tanhf.c`; `ONE - TINY` rounds to `1.0`.
const TINY: f32 = 1.0e-30;
/// `huge` of `s_expm1f.c`.
const HUGE: f32 = 1.0e30;
/// `o_threshold`: above it `expm1f` overflows.
const O_THRESHOLD: f32 = f32::from_bits(0x42b1_7180);
const LN2_HI: f32 = f32::from_bits(0x3f31_7180);
const LN2_LO: f32 = f32::from_bits(0x3717_f7d1);
const INVLN2: f32 = f32::from_bits(0x3fb8_aa3b);
const Q1: f32 = f32::from_bits(0xbd08_8889);
const Q2: f32 = f32::from_bits(0x3ad0_0d01);
const Q3: f32 = f32::from_bits(0xb8a6_70cd);
const Q4: f32 = f32::from_bits(0x3686_7e54);
const Q5: f32 = f32::from_bits(0xb457_edbb);

/// `f(a[i], b[i])` for every `i`, in one pass. `f` should be
/// `#[inline(always)]` so that it is compiled into the AVX2 build.
///
/// # Panics
/// If `a` and `b` differ in length.
#[inline(always)]
pub(crate) fn map2(a: &[f32], b: &[f32], f: impl Fn(f32, f32) -> f32) -> Vec<f32> {
    assert_eq!(a.len(), b.len(), "operands must have equal length");
    #[cfg(target_arch = "x86_64")]
    if std::is_x86_feature_detected!("avx2") {
        // SAFETY: the host supports AVX2, checked on the line above.
        return unsafe { map2_avx2(a, b, f) };
    }
    map2_body(a, b, f)
}

/// [`map2_body`] compiled with AVX2 enabled. FMA stays off, so every
/// multiply and add rounds separately, exactly as in the portable build.
///
/// # Safety
/// The host must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn map2_avx2(a: &[f32], b: &[f32], f: impl Fn(f32, f32) -> f32) -> Vec<f32> {
    map2_body(a, b, f)
}

/// A plain indexed loop rather than `collect`, whose out-of-line
/// `from_iter` would not be compiled into the AVX2 build.
#[inline(always)]
fn map2_body(a: &[f32], b: &[f32], f: impl Fn(f32, f32) -> f32) -> Vec<f32> {
    let mut out = vec![0.0; a.len()];
    for ((o, &a), &b) in out.iter_mut().zip(a).zip(b) {
        *o = f(a, b);
    }
    out
}

/// `tanh(x)` exactly as [`tanh_reference`] computes it, without branches:
/// every case is computed and the right one selected.
#[inline(always)]
pub(crate) fn tanh_lane(x: f32) -> f32 {
    let jx = x.to_bits();
    let ix = (jx & 0x7fff_ffff) as i32;
    // From 22 on, inf included, tanh is ±(one - tiny). Those lanes and NaN
    // lanes send a harmless |x| = 1 through expm1.
    let mid = ix < 0x41b0_0000;
    let a = if mid { f32::from_bits(ix as u32) } else { ONE };
    // expm1(2|x|) from |x| = 1 on, expm1(-2|x|) below. The sign goes in as
    // a bit: through a select of the two arguments the compiler would
    // build the expm1 body twice, once per sign.
    let big = ix >= 0x3f80_0000;
    let t = expm1_lane(f32::from_bits((TWO * a).to_bits() | u32::from(!big) << 31));
    let d = t + TWO;
    let z = if big { ONE - TWO / d } else { -t / d };
    let z = if mid { z } else { ONE - TINY };
    let z = if jx >> 31 == 0 { z } else { -z };
    // `x*(one+x)` below 2⁻⁵⁵; it is also exactly `x` for ±0, which the
    // C code returns directly.
    let z = if ix < 0x2400_0000 { x * (ONE + x) } else { z };
    // NaN: the C code's `one/x ± one` returns x quieted, as `x + x` does.
    if ix > 0x7f80_0000 {
        x + x
    } else {
        z
    }
}

/// `expm1(v)` exactly as `expm1_reference` computes it, without branches,
/// for the arguments [`tanh_lane`] passes: `v ∈ (-2, 0]` or `v ∈ [2, 44)`.
/// There the reduction gives `k ∈ {-3, …, 0}` or `k ∈ {3, …, 63}`, so the
/// `k = 1` reconstruction and the overflow and `-1` saturation of the C
/// code never apply and are left out.
#[inline(always)]
fn expm1_lane(v: f32) -> f32 {
    let hx = v.to_bits() & 0x7fff_ffff;
    let neg = v.to_bits() >> 31 != 0;
    // Argument reduction v = k·ln2 + x + c. The C code uses k = 0 below
    // ln2/2 and k = ±1 below 1.5·ln2; with t = k those cases give the same
    // bits through the general formula, since t·ln2 is then exact.
    let kf = INVLN2 * v + if neg { -HALF } else { HALF };
    // SAFETY: |v| < 44 on every lane, so kf is finite and far inside i32.
    let kr = unsafe { kf.to_int_unchecked::<i32>() };
    let k = if hx <= 0x3eb1_7218 {
        0
    } else if hx < 0x3f85_1592 {
        if neg {
            -1
        } else {
            1
        }
    } else {
        kr
    };
    let tk = k as f32;
    let hi = v - tk * LN2_HI;
    let lo = tk * LN2_LO;
    let x = hi - lo;
    let c = (hi - x) - lo;
    let hfx = HALF * x;
    let hxs = x * hfx;
    let r1 = ONE + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    let r0 = x - (x * e - hxs);
    let e = x * (e - c) - c - hxs;
    let r_m1 = HALF * (x - e) - HALF;
    // Reconstruction: y scaled by 2^k through its exponent bits.
    let scale = |y: f32| f32::from_bits((y.to_bits() as i32).wrapping_add(k << 23) as u32);
    let far = scale(ONE - (e - x)) - ONE;
    let t_low = f32::from_bits(0x3f80_0000 - 0x0100_0000u32.wrapping_shr(k as u32));
    let low = scale(t_low - (e - x));
    let t_high = f32::from_bits(((0x7f - k) << 23) as u32);
    let high = scale(x - (e + t_high) + ONE);
    let r = if k < 23 { low } else { high };
    let r = if k <= -2 || k > 56 { far } else { r };
    let r = if k == -1 { r_m1 } else { r };
    let r = if k == 0 { r0 } else { r };
    // Below 2⁻²⁵ the C code returns `x - ((huge+x) - huge)`, which is x.
    if hx < 0x3300_0000 {
        v
    } else {
        r
    }
}

/// fdlibm's `tanhf` (`s_tanhf.c`), transcribed branch for branch.
pub fn tanh_reference(x: f32) -> f32 {
    let jx = x.to_bits() as i32;
    let ix = jx & 0x7fff_ffff;
    if ix >= 0x7f80_0000 {
        // tanh(±inf) = ±1, tanh(NaN) = NaN.
        return if jx >= 0 {
            ONE / x + ONE
        } else {
            ONE / x - ONE
        };
    }
    let z = if ix < 0x41b0_0000 {
        if ix == 0 {
            return x;
        }
        if ix < 0x2400_0000 {
            return x * (ONE + x);
        }
        if ix >= 0x3f80_0000 {
            let t = expm1_reference(TWO * x.abs());
            ONE - TWO / (t + TWO)
        } else {
            let t = expm1_reference(-TWO * x.abs());
            -t / (t + TWO)
        }
    } else {
        ONE - TINY
    };
    if jx >= 0 {
        z
    } else {
        -z
    }
}

/// fdlibm's `expm1f` (`s_expm1f.c`), transcribed branch for branch.
fn expm1_reference(mut x: f32) -> f32 {
    let bits = x.to_bits();
    let neg = bits >> 31 != 0;
    let hx = bits & 0x7fff_ffff;
    // Huge and non-finite arguments.
    if hx >= 0x4195_b844 {
        if hx >= 0x42b1_7218 {
            if hx > 0x7f80_0000 {
                return x + x;
            }
            if hx == 0x7f80_0000 {
                return if neg { -ONE } else { x };
            }
            if x > O_THRESHOLD {
                return HUGE * HUGE;
            }
        }
        if neg {
            return TINY - ONE;
        }
    }
    // Argument reduction.
    let k: i32;
    let mut c = 0.0f32;
    if hx > 0x3eb1_7218 {
        let (hi, lo);
        if hx < 0x3f85_1592 {
            if neg {
                (hi, lo, k) = (x + LN2_HI, -LN2_LO, -1);
            } else {
                (hi, lo, k) = (x - LN2_HI, LN2_LO, 1);
            }
        } else {
            k = (INVLN2 * x + if neg { -HALF } else { HALF }) as i32;
            let t = k as f32;
            hi = x - t * LN2_HI;
            lo = t * LN2_LO;
        }
        x = hi - lo;
        c = (hi - x) - lo;
    } else if hx < 0x3300_0000 {
        let t = HUGE + x;
        return x - (t - HUGE);
    } else {
        k = 0;
    }
    // x is now in the primary range.
    let hfx = HALF * x;
    let hxs = x * hfx;
    let r1 = ONE + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    if k == 0 {
        return x - (x * e - hxs);
    }
    let e = x * (e - c) - c - hxs;
    if k == -1 {
        return HALF * (x - e) - HALF;
    }
    if k == 1 {
        return if x < -0.25 {
            -TWO * (e - (x + HALF))
        } else {
            ONE + TWO * (x - e)
        };
    }
    let scale = |y: f32| f32::from_bits((y.to_bits() as i32 + (k << 23)) as u32);
    if k <= -2 || k > 56 {
        return scale(ONE - (e - x)) - ONE;
    }
    if k < 23 {
        let t = f32::from_bits(0x3f80_0000 - (0x0100_0000 >> k));
        scale(t - (e - x))
    } else {
        let t = f32::from_bits(((0x7f - k) << 23) as u32);
        scale(x - (e + t) + ONE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, RngCore, SeedableRng};

    /// Equal bits, or both NaN.
    fn same(a: f32, b: f32) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// `tanh_lane` in `map2`'s shape; `inline(always)` so that the AVX2
    /// build really runs AVX2 code.
    #[inline(always)]
    fn lane(x: f32, _: f32) -> f32 {
        tanh_lane(x)
    }

    /// The kernel over a slice, through the dispatching loop.
    fn tanh(xs: &[f32]) -> Vec<f32> {
        map2(xs, xs, lane)
    }

    /// Run the kernel over `xs` and compare every element to the replica.
    fn check(xs: &[f32]) {
        for (&x, &y) in xs.iter().zip(&tanh(xs)) {
            let want = tanh_reference(x);
            assert!(
                same(y, want),
                "tanh({x:e} = {:#010x}): kernel {:#010x}, replica {:#010x}",
                x.to_bits(),
                y.to_bits(),
                want.to_bits()
            );
        }
    }

    /// Both signs of every bit pattern within `w` ulps of `center`.
    fn window(center: f32, w: u32) -> Vec<f32> {
        let c = center.to_bits();
        (c - w..=c + w)
            .flat_map(|b| [f32::from_bits(b), -f32::from_bits(b)])
            .collect()
    }

    /// The reduction's computed `k` for an expm1 argument, as `s_expm1f.c`
    /// computes it.
    fn k_of(v: f32) -> i32 {
        (INVLN2 * v + if v < 0.0 { -HALF } else { HALF }) as i32
    }

    #[test]
    fn kernel_matches_replica_on_gelu_domain() {
        let mut rng = StdRng::seed_from_u64(13);
        // GeLU's tanh arguments for pre-activations in [-12, 12] ...
        let mut xs: Vec<f32> = (0..1 << 17)
            .map(|_| {
                let x: f32 = rng.gen_range(-12.0..12.0);
                0.797_884_6 * (x + 0.044715 * x * x * x)
            })
            .collect();
        // ... and magnitudes spread evenly over every exponent from 2⁻⁶⁰
        // to 2⁶, both signs.
        xs.extend((0..1 << 17).map(|_| {
            let m = 2f32.powf(rng.gen_range(-60.0..6.0));
            if rng.gen_bool(0.5) {
                m
            } else {
                -m
            }
        }));
        check(&xs);
    }

    /// Every input with |x| in [1/16, 1/4). expm1's argument there spans
    /// the top of the k = 0 range and the start of k = -1, where the
    /// reduced argument, and with it the rounding inside the rational
    /// approximation, is largest. Evaluating the polynomial with fused
    /// multiply-adds changes 35 results of the whole domain, all of them
    /// in this band.
    #[test]
    fn kernel_matches_replica_on_every_input_near_the_k0_switch() {
        for start in (0x3d80_0000u32..0x3e80_0000).step_by(1 << 16) {
            check(
                &(start..start + (1 << 16))
                    .map(f32::from_bits)
                    .collect::<Vec<_>>(),
            );
        }
    }

    #[test]
    fn kernel_matches_replica_at_branch_boundaries() {
        let ln2 = std::f32::consts::LN_2;
        // expm1 sees -2|x| below |x| = 1 and 2|x| from there on.
        let centers = [
            f32::from_bits(0x3eb1_7218) / 2.0, // k = 0 | k = -1
            f32::from_bits(0x3f85_1592) / 2.0, // k = -1 | computed k
            1.25 * ln2,                        // k = -2 | k = -3
            f32::from_bits(0x3300_0000) / 2.0, // expm1 returns its argument
            1.0,                               // expm1(-2|x|) | expm1(2|x|)
            11.25 * ln2,                       // k = 22 | k = 23
            28.25 * ln2,                       // k = 56 | k = 57
            f32::from_bits(0x4195_b844) / 2.0, // 27·ln2 filter of expm1
            f32::from_bits(0x2400_0000),       // 2⁻⁵⁵: x·(1+x)
            22.0,                              // ±1
        ];
        for c in centers {
            check(&window(c, 2048));
        }
        // The k windows really straddle their switch.
        for (c, k) in [(11.25 * ln2, 22), (28.25 * ln2, 56)] {
            let w = window(c, 2048);
            assert_eq!(k_of(2.0 * w[0]), k);
            assert_eq!(k_of(2.0 * w[w.len() - 2]), k + 1);
        }
        let w = window(1.25 * ln2, 2048);
        assert_eq!(k_of(-2.0 * w[0]), -2);
        assert_eq!(k_of(-2.0 * w[w.len() - 2]), -3);
    }

    #[test]
    fn kernel_matches_replica_on_special_values() {
        let mut xs = vec![
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
        ];
        // Quiet and signalling NaNs with payloads, both signs.
        for b in [0x7fc0_0001u32, 0x7f80_0001, 0x7fbf_ffff, 0x7fff_ffff] {
            xs.extend([f32::from_bits(b), f32::from_bits(b | 0x8000_0000)]);
        }
        // Subnormals: the smallest, the largest and a spread between.
        for b in (1u32..0x0080_0000).step_by(4099).chain([1, 0x007f_ffff]) {
            xs.extend([f32::from_bits(b), -f32::from_bits(b)]);
        }
        xs.extend([f32::MIN_POSITIVE, f32::MAX, -f32::MAX, 1e-30, 1e30]);
        check(&xs);
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_and_portable_builds_agree() {
        if !std::is_x86_feature_detected!("avx2") {
            return;
        }
        let mut rng = StdRng::seed_from_u64(14);
        for _ in 0..200 {
            let len = rng.gen_range(0..300);
            let xs: Vec<f32> = (0..len)
                .map(|_| match rng.gen_range(0..4) {
                    0 => f32::from_bits(rng.next_u32()),
                    1 => rng.gen_range(-25.0..25.0),
                    _ => rng.gen_range(-3.0..3.0),
                })
                .collect();
            let portable = map2_body(&xs, &xs, lane);
            // SAFETY: AVX2 support is checked above.
            let avx2 = unsafe { map2_avx2(&xs, &xs, lane) };
            for ((&x, &p), &v) in xs.iter().zip(&portable).zip(&avx2) {
                assert!(
                    same(p, v),
                    "tanh({:#010x}): portable {p:e}, avx2 {v:e}",
                    x.to_bits()
                );
            }
        }
    }

    /// All 2³² inputs through the kernel, compared to the replica and to
    /// the host's `f32::tanh`. Slow in debug; run it with
    /// `cargo test --release -p megatron-tensor -- --ignored tanh_exhaustive`.
    #[test]
    #[ignore]
    fn tanh_exhaustive() {
        use std::sync::atomic::{AtomicU64, Ordering};
        const CHUNK: u64 = 1 << 16;
        let next = AtomicU64::new(0);
        let (vs_replica, vs_libm) = (AtomicU64::new(0), AtomicU64::new(0));
        let workers = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let start = next.fetch_add(CHUNK, Ordering::Relaxed);
                    if start >= 1 << 32 {
                        break;
                    }
                    let xs: Vec<f32> = (start..start + CHUNK)
                        .map(|b| f32::from_bits(b as u32))
                        .collect();
                    for (&x, &y) in xs.iter().zip(&tanh(&xs)) {
                        if !same(y, tanh_reference(x)) {
                            vs_replica.fetch_add(1, Ordering::Relaxed);
                        }
                        if !same(y, x.tanh()) {
                            vs_libm.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        let (r, l) = (vs_replica.into_inner(), vs_libm.into_inner());
        assert_eq!(
            (r, l),
            (0, 0),
            "mismatches: {r} vs replica, {l} vs f32::tanh"
        );
    }
}
