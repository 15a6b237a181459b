//! Neural-network layers with explicit forward caches and hand-written
//! backward passes.
//!
//! GeLU and its backward each make one vectorized pass whose `tanh` is the
//! kernel of [`crate::tanh`]: glibc 2.36's `tanhf` replicated bit for bit,
//! eight lanes at a time. Softmax and cross-entropy still call the host
//! libm's `exp` and `ln`.

use rand::Rng;

use crate::gemm;
use crate::tanh::{self, tanh_lane};
use crate::Matrix;

/// Fully-connected layer `y = x·W (+ b)`; `W` is `in × out`.
#[derive(Debug, Clone)]
pub struct Linear {
    /// Weight matrix, `in × out`.
    pub w: Matrix,
    /// Optional bias, length `out`.
    pub b: Option<Vec<f32>>,
    /// Weight gradient accumulator.
    pub gw: Matrix,
    /// Bias gradient accumulator.
    pub gb: Vec<f32>,
}

impl Linear {
    /// Gaussian-initialized layer.
    pub fn new(inputs: usize, outputs: usize, bias: bool, rng: &mut impl Rng) -> Self {
        let std = 0.02f32;
        Linear {
            w: Matrix::randn(inputs, outputs, std, rng),
            b: bias.then(|| vec![0.0; outputs]),
            gw: Matrix::zeros(inputs, outputs),
            gb: vec![0.0; outputs],
        }
    }

    /// Forward: returns the output; the caller keeps `x` as the cache.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = gemm::matmul(x, &self.w);
        if let Some(b) = &self.b {
            for r in 0..y.rows() {
                for (o, bv) in y.row_mut(r).iter_mut().zip(b) {
                    *o += bv;
                }
            }
        }
        y
    }

    /// Backward: accumulates `gw`/`gb`, returns `dx`.
    pub fn backward(&mut self, x: &Matrix, dy: &Matrix) -> Matrix {
        self.gw.add_assign(&gemm::matmul_tn(x, dy));
        if self.b.is_some() {
            for r in 0..dy.rows() {
                for (g, d) in self.gb.iter_mut().zip(dy.row(r)) {
                    *g += d;
                }
            }
        }
        gemm::matmul_nt(dy, &self.w)
    }

    /// Visit (param, grad) slice pairs.
    pub fn visit(&mut self, f: &mut impl FnMut(&mut [f32], &mut [f32])) {
        f(self.w.as_mut_slice(), self.gw.as_mut_slice());
        if let Some(b) = &mut self.b {
            f(b, &mut self.gb);
        }
    }

    /// Parameter count.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.as_ref().map_or(0, Vec::len)
    }
}

/// GeLU non-linearity (tanh approximation, as in GPT), in one vectorized
/// pass over `x`.
pub fn gelu(x: &Matrix) -> Matrix {
    let y = tanh::map2(
        x.as_slice(),
        x.as_slice(),
        #[inline(always)]
        |x, _| gelu_scalar(x),
    );
    Matrix::from_vec(x.rows(), x.cols(), y)
}

#[inline(always)]
fn gelu_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6; // sqrt(2/π)
    0.5 * x * (1.0 + tanh_lane(C * (x + 0.044715 * x * x * x)))
}

#[inline(always)]
fn gelu_grad_scalar(x: f32) -> f32 {
    const C: f32 = 0.797_884_6;
    let u = C * (x + 0.044715 * x * x * x);
    let t = tanh_lane(u);
    let du = C * (1.0 + 3.0 * 0.044715 * x * x);
    0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
}

/// GeLU backward: `dx = dy ⊙ gelu'(x)`, in one vectorized pass.
pub fn gelu_backward(x: &Matrix, dy: &Matrix) -> Matrix {
    let dx = tanh::map2(
        dy.as_slice(),
        x.as_slice(),
        #[inline(always)]
        |d, x| d * gelu_grad_scalar(x),
    );
    Matrix::from_vec(dy.rows(), dy.cols(), dx)
}

/// LayerNorm over the last dimension with learned scale and shift.
#[derive(Debug, Clone)]
pub struct LayerNorm {
    /// Scale, length `h`.
    pub gamma: Vec<f32>,
    /// Shift, length `h`.
    pub beta: Vec<f32>,
    /// Scale gradient.
    pub ggamma: Vec<f32>,
    /// Shift gradient.
    pub gbeta: Vec<f32>,
    eps: f32,
}

/// Cache for [`LayerNorm::backward`]: normalized input plus per-row inverse
/// standard deviation.
pub struct LayerNormCache {
    xhat: Matrix,
    inv_std: Vec<f32>,
}

impl LayerNorm {
    /// Identity-initialized LayerNorm of width `h`.
    pub fn new(h: usize) -> Self {
        LayerNorm {
            gamma: vec![1.0; h],
            beta: vec![0.0; h],
            ggamma: vec![0.0; h],
            gbeta: vec![0.0; h],
            eps: 1e-5,
        }
    }

    /// Forward over each row of `x`.
    pub fn forward(&self, x: &Matrix) -> (Matrix, LayerNormCache) {
        let h = x.cols();
        assert_eq!(h, self.gamma.len());
        let mut y = Matrix::zeros(x.rows(), h);
        let mut xhat = Matrix::zeros(x.rows(), h);
        let mut inv_std = Vec::with_capacity(x.rows());
        for r in 0..x.rows() {
            let row = x.row(r);
            let mean = row.iter().sum::<f32>() / h as f32;
            let var = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / h as f32;
            let istd = 1.0 / (var + self.eps).sqrt();
            inv_std.push(istd);
            for (c, &rv) in row.iter().enumerate() {
                let xh = (rv - mean) * istd;
                xhat.set(r, c, xh);
                y.set(r, c, xh * self.gamma[c] + self.beta[c]);
            }
        }
        (y, LayerNormCache { xhat, inv_std })
    }

    /// Backward; accumulates `ggamma`/`gbeta` and returns `dx`.
    pub fn backward(&mut self, cache: &LayerNormCache, dy: &Matrix) -> Matrix {
        let h = dy.cols() as f32;
        let mut dx = Matrix::zeros(dy.rows(), dy.cols());
        for r in 0..dy.rows() {
            let istd = cache.inv_std[r];
            let xhat = cache.xhat.row(r);
            let dyr = dy.row(r);
            let mut sum_dyg = 0.0f32;
            let mut sum_dyg_xhat = 0.0f32;
            for c in 0..dy.cols() {
                let dyg = dyr[c] * self.gamma[c];
                sum_dyg += dyg;
                sum_dyg_xhat += dyg * xhat[c];
                self.ggamma[c] += dyr[c] * xhat[c];
                self.gbeta[c] += dyr[c];
            }
            for c in 0..dy.cols() {
                let dyg = dyr[c] * self.gamma[c];
                dx.set(
                    r,
                    c,
                    istd * (dyg - sum_dyg / h - xhat[c] * sum_dyg_xhat / h),
                );
            }
        }
        dx
    }

    /// Visit (param, grad) slice pairs.
    pub fn visit(&mut self, f: &mut impl FnMut(&mut [f32], &mut [f32])) {
        f(&mut self.gamma, &mut self.ggamma);
        f(&mut self.beta, &mut self.gbeta);
    }

    /// Parameter count.
    pub fn param_count(&self) -> usize {
        self.gamma.len() + self.beta.len()
    }
}

/// Causal scaled-dot-product attention over locally-held heads.
///
/// Inputs `q`, `k`, `v` have shape `[batch·seq, heads_local·head_dim]`
/// (rows grouped by batch, then sequence position) — exactly the output
/// layout of a column-parallel QKV projection, so tensor-parallel ranks can
/// run this on their head shard without any communication (§2.3).
#[derive(Debug, Clone, Copy)]
pub struct AttentionCore {
    /// Samples in the batch.
    pub batch: usize,
    /// Sequence length.
    pub seq: usize,
    /// Heads held locally.
    pub heads: usize,
    /// Dimension per head.
    pub head_dim: usize,
}

/// Cache of per-(batch, head) attention probabilities.
pub struct AttentionCache {
    probs: Vec<Matrix>, // batch·heads entries of s×s
}

impl AttentionCache {
    /// Total `f32` values held (activation-memory instrumentation).
    pub fn float_count(&self) -> usize {
        self.probs.iter().map(Matrix::len).sum()
    }
}

impl AttentionCore {
    fn check(&self, m: &Matrix) {
        assert_eq!(m.rows(), self.batch * self.seq);
        assert_eq!(m.cols(), self.heads * self.head_dim);
    }

    /// Extract the `s × head_dim` block for (batch `bi`, head `hi`).
    fn head_block(&self, m: &Matrix, bi: usize, hi: usize) -> Matrix {
        let mut out = Matrix::zeros(self.seq, self.head_dim);
        for srow in 0..self.seq {
            let row = m.row(bi * self.seq + srow);
            out.row_mut(srow)
                .copy_from_slice(&row[hi * self.head_dim..(hi + 1) * self.head_dim]);
        }
        out
    }

    fn scatter_head_block(&self, target: &mut Matrix, block: &Matrix, bi: usize, hi: usize) {
        for srow in 0..self.seq {
            let dst = target.row_mut(bi * self.seq + srow);
            dst[hi * self.head_dim..(hi + 1) * self.head_dim].copy_from_slice(block.row(srow));
        }
    }

    /// Forward pass: causal softmax(QKᵀ/√d)·V.
    pub fn forward(&self, q: &Matrix, k: &Matrix, v: &Matrix) -> (Matrix, AttentionCache) {
        self.check(q);
        self.check(k);
        self.check(v);
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let mut out = Matrix::zeros(q.rows(), q.cols());
        let mut probs = Vec::with_capacity(self.batch * self.heads);
        for bi in 0..self.batch {
            for hi in 0..self.heads {
                let qh = self.head_block(q, bi, hi);
                let kh = self.head_block(k, bi, hi);
                let vh = self.head_block(v, bi, hi);
                let mut scores = gemm::matmul_nt(&qh, &kh);
                scores.scale(scale);
                // Causal mask + row-wise softmax.
                for r in 0..self.seq {
                    let row = scores.row_mut(r);
                    for cell in row.iter_mut().take(self.seq).skip(r + 1) {
                        *cell = f32::NEG_INFINITY;
                    }
                    let max = row[..=r].iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
                    let mut sum = 0.0;
                    for item in row.iter_mut().take(r + 1) {
                        *item = (*item - max).exp();
                        sum += *item;
                    }
                    for item in row.iter_mut() {
                        if item.is_finite() {
                            *item /= sum;
                        } else {
                            *item = 0.0;
                        }
                    }
                }
                let oh = gemm::matmul(&scores, &vh);
                self.scatter_head_block(&mut out, &oh, bi, hi);
                probs.push(scores);
            }
        }
        (out, AttentionCache { probs })
    }

    /// Backward pass: returns `(dq, dk, dv)`.
    pub fn backward(
        &self,
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        cache: &AttentionCache,
        dout: &Matrix,
    ) -> (Matrix, Matrix, Matrix) {
        let scale = 1.0 / (self.head_dim as f32).sqrt();
        let mut dq = Matrix::zeros(q.rows(), q.cols());
        let mut dk = dq.clone();
        let mut dv = dq.clone();
        for bi in 0..self.batch {
            for hi in 0..self.heads {
                let probs = &cache.probs[bi * self.heads + hi];
                let kh = self.head_block(k, bi, hi);
                let vh = self.head_block(v, bi, hi);
                let doh = self.head_block(dout, bi, hi);
                // dV = Pᵀ · dO ; dP = dO · Vᵀ.
                let dvh = gemm::matmul_tn(probs, &doh);
                let mut dscores = gemm::matmul_nt(&doh, &vh);
                // Softmax backward row-wise: dS = P ⊙ (dP − Σ dP⊙P).
                for r in 0..self.seq {
                    let prow = probs.row(r);
                    let drow = dscores.row_mut(r);
                    let dot: f32 = prow.iter().zip(drow.iter()).map(|(p, d)| p * d).sum();
                    for c in 0..self.seq {
                        drow[c] = prow[c] * (drow[c] - dot) * scale;
                    }
                }
                // dQ = dS · K ; dK = dSᵀ · Q.
                let qh = self.head_block(q, bi, hi);
                let dqh = gemm::matmul(&dscores, &kh);
                let dkh = gemm::matmul_tn(&dscores, &qh);
                self.scatter_head_block(&mut dq, &dqh, bi, hi);
                self.scatter_head_block(&mut dk, &dkh, bi, hi);
                self.scatter_head_block(&mut dv, &dvh, bi, hi);
            }
        }
        (dq, dk, dv)
    }
}

/// Token + learned positional embedding.
#[derive(Debug, Clone)]
pub struct Embedding {
    /// Token table, `V × h`.
    pub tokens: Matrix,
    /// Position table, `s_max × h`.
    pub positions: Matrix,
    /// Token-table gradient.
    pub gtokens: Matrix,
    /// Position-table gradient.
    pub gpositions: Matrix,
}

impl Embedding {
    /// Gaussian-initialized tables.
    pub fn new(vocab: usize, max_seq: usize, h: usize, rng: &mut impl Rng) -> Self {
        Embedding {
            tokens: Matrix::randn(vocab, h, 0.02, rng),
            positions: Matrix::randn(max_seq, h, 0.02, rng),
            gtokens: Matrix::zeros(vocab, h),
            gpositions: Matrix::zeros(max_seq, h),
        }
    }

    /// Look up `tokens` (length `batch·seq`, grouped by batch) into
    /// embeddings of shape `[batch·seq, h]`.
    pub fn forward(&self, token_ids: &[usize], seq: usize) -> Matrix {
        let h = self.tokens.cols();
        let mut out = Matrix::zeros(token_ids.len(), h);
        for (r, &tok) in token_ids.iter().enumerate() {
            let pos = r % seq;
            let dst = out.row_mut(r);
            for (c, d) in dst.iter_mut().enumerate() {
                *d = self.tokens.get(tok, c) + self.positions.get(pos, c);
            }
        }
        out
    }

    /// Scatter-add gradients back into the tables.
    pub fn backward(&mut self, token_ids: &[usize], seq: usize, dy: &Matrix) {
        for (r, &tok) in token_ids.iter().enumerate() {
            let pos = r % seq;
            let src = dy.row(r);
            for (c, &g) in src.iter().enumerate() {
                self.gtokens.set(tok, c, self.gtokens.get(tok, c) + g);
                self.gpositions.set(pos, c, self.gpositions.get(pos, c) + g);
            }
        }
    }

    /// Visit (param, grad) slice pairs.
    pub fn visit(&mut self, f: &mut impl FnMut(&mut [f32], &mut [f32])) {
        f(self.tokens.as_mut_slice(), self.gtokens.as_mut_slice());
        f(
            self.positions.as_mut_slice(),
            self.gpositions.as_mut_slice(),
        );
    }

    /// Parameter count.
    pub fn param_count(&self) -> usize {
        self.tokens.len() + self.positions.len()
    }
}

/// Mean cross-entropy of `logits` against `targets`; returns the loss and
/// `dlogits`.
pub fn cross_entropy(logits: &Matrix, targets: &[usize]) -> (f32, Matrix) {
    assert_eq!(logits.rows(), targets.len());
    let n = targets.len() as f32;
    let mut dlogits = Matrix::zeros(logits.rows(), logits.cols());
    let mut loss = 0.0f32;
    for (r, &t) in targets.iter().enumerate() {
        let row = logits.row(r);
        let max = row.iter().fold(f32::NEG_INFINITY, |a, &b| a.max(b));
        let sum: f32 = row.iter().map(|&v| (v - max).exp()).sum();
        let log_z = max + sum.ln();
        loss += log_z - row[t];
        let drow = dlogits.row_mut(r);
        for (c, d) in drow.iter_mut().enumerate() {
            let p = (row[c] - log_z).exp();
            *d = (p - if c == t { 1.0 } else { 0.0 }) / n;
        }
    }
    (loss / n, dlogits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradcheck::numeric_vs_analytic;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(42)
    }

    #[test]
    fn linear_forward_shape_and_bias() {
        let mut r = rng();
        let lin = Linear::new(4, 3, true, &mut r);
        let x = Matrix::randn(5, 4, 1.0, &mut r);
        let y = lin.forward(&x);
        assert_eq!((y.rows(), y.cols()), (5, 3));
        // Bias is initialized to zero; perturb and verify it shows up.
        let mut lin2 = lin.clone();
        lin2.b.as_mut().unwrap()[1] = 1.0;
        let y2 = lin2.forward(&x);
        assert!((y2.get(0, 1) - y.get(0, 1) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn linear_gradcheck() {
        let mut r = rng();
        let x = Matrix::randn(3, 4, 1.0, &mut r);
        let dy = Matrix::randn(3, 2, 1.0, &mut r);
        let build = |params: &[f32]| {
            let mut lin = Linear::new(4, 2, true, &mut rng());
            lin.w = Matrix::from_vec(4, 2, params[..8].to_vec());
            lin.b = Some(params[8..10].to_vec());
            lin
        };
        let loss = |params: &[f32]| {
            let lin = build(params);
            let y = lin.forward(&x);
            y.as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        let mut p0 = vec![0.0f32; 10];
        let mut r2 = rng();
        let init = Linear::new(4, 2, true, &mut r2);
        p0[..8].copy_from_slice(init.w.as_slice());
        let mut lin = build(&p0);
        lin.forward(&x);
        let _ = lin.backward(&x, &dy);
        let mut analytic = lin.gw.as_slice().to_vec();
        analytic.extend_from_slice(&lin.gb);
        numeric_vs_analytic(&loss, &p0, &analytic, 2e-2);
    }

    #[test]
    fn linear_input_grad_matches_numeric() {
        let mut r = rng();
        let lin = Linear::new(4, 2, false, &mut r);
        let x0 = Matrix::randn(2, 4, 1.0, &mut r);
        let dy = Matrix::randn(2, 2, 1.0, &mut r);
        let loss = |xs: &[f32]| {
            let x = Matrix::from_vec(2, 4, xs.to_vec());
            let y = lin.forward(&x);
            y.as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        let mut lin2 = lin.clone();
        let dx = lin2.backward(&x0, &dy);
        numeric_vs_analytic(&loss, x0.as_slice(), dx.as_slice(), 2e-2);
    }

    #[test]
    fn gelu_matches_reference_points() {
        // gelu(0) = 0; gelu(large) ≈ x; gelu(-large) ≈ 0.
        assert_eq!(gelu_scalar(0.0), 0.0);
        assert!((gelu_scalar(10.0) - 10.0).abs() < 1e-3);
        assert!(gelu_scalar(-10.0).abs() < 1e-3);
        // Known value: gelu(1) ≈ 0.8412.
        assert!((gelu_scalar(1.0) - 0.8412).abs() < 1e-3);
    }

    #[test]
    fn gelu_matches_scalar_formulas_bit_for_bit() {
        use crate::tanh::tanh_reference;
        const C: f32 = 0.797_884_6;
        let forward = |x: f32| 0.5 * x * (1.0 + tanh_reference(C * (x + 0.044715 * x * x * x)));
        let grad = |x: f32| {
            let t = tanh_reference(C * (x + 0.044715 * x * x * x));
            let du = C * (1.0 + 3.0 * 0.044715 * x * x);
            0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
        };
        let mut r = rng();
        for (rows, cols) in [(1, 1), (1, 7), (3, 3), (1, 13), (5, 51), (7, 147)] {
            let x = Matrix::randn(rows, cols, 5.0, &mut r);
            let dy = Matrix::randn(rows, cols, 1.0, &mut r);
            let (y, dx) = (gelu(&x), gelu_backward(&x, &dy));
            for (i, &xv) in x.as_slice().iter().enumerate() {
                assert_eq!(
                    y.as_slice()[i].to_bits(),
                    forward(xv).to_bits(),
                    "gelu({xv})"
                );
                let want = dy.as_slice()[i] * grad(xv);
                assert_eq!(dx.as_slice()[i].to_bits(), want.to_bits(), "gelu'({xv})");
            }
        }
    }

    #[test]
    fn gelu_gradcheck() {
        let xs: Vec<f32> = vec![-2.0, -0.5, 0.0, 0.3, 1.7];
        let x = Matrix::from_vec(1, 5, xs.clone());
        let dy = Matrix::from_vec(1, 5, vec![1.0; 5]);
        let dx = gelu_backward(&x, &dy);
        let loss = |p: &[f32]| {
            let m = Matrix::from_vec(1, 5, p.to_vec());
            gelu(&m).as_slice().iter().sum::<f32>()
        };
        numeric_vs_analytic(&loss, &xs, dx.as_slice(), 2e-2);
    }

    #[test]
    fn layernorm_normalizes() {
        let mut r = rng();
        let ln = LayerNorm::new(8);
        let x = Matrix::randn(4, 8, 3.0, &mut r);
        let (y, _) = ln.forward(&x);
        for row in 0..4 {
            let mean: f32 = y.row(row).iter().sum::<f32>() / 8.0;
            let var: f32 = y
                .row(row)
                .iter()
                .map(|v| (v - mean) * (v - mean))
                .sum::<f32>()
                / 8.0;
            assert!(mean.abs() < 1e-5, "row {row} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {row} var {var}");
        }
    }

    #[test]
    fn layernorm_gradcheck_input() {
        let mut r = rng();
        let x0 = Matrix::randn(2, 6, 1.0, &mut r);
        let dy = Matrix::randn(2, 6, 1.0, &mut r);
        let ln = LayerNorm::new(6);
        let loss = |xs: &[f32]| {
            let x = Matrix::from_vec(2, 6, xs.to_vec());
            let (y, _) = ln.forward(&x);
            y.as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        let mut ln2 = ln.clone();
        let (_, cache) = ln2.forward(&x0);
        let dx = ln2.backward(&cache, &dy);
        numeric_vs_analytic(&loss, x0.as_slice(), dx.as_slice(), 3e-2);
    }

    #[test]
    fn attention_is_causal() {
        let mut r = rng();
        let core = AttentionCore {
            batch: 1,
            seq: 6,
            heads: 2,
            head_dim: 4,
        };
        let q = Matrix::randn(6, 8, 1.0, &mut r);
        let k = Matrix::randn(6, 8, 1.0, &mut r);
        let v = Matrix::randn(6, 8, 1.0, &mut r);
        let (y1, _) = core.forward(&q, &k, &v);
        // Perturb the LAST position of k/v: earlier outputs must not change.
        let mut k2 = k.clone();
        let mut v2 = v.clone();
        for c in 0..8 {
            k2.set(5, c, 9.0);
            v2.set(5, c, -9.0);
        }
        let (y2, _) = core.forward(&q, &k2, &v2);
        for rrow in 0..5 {
            for c in 0..8 {
                assert!(
                    (y1.get(rrow, c) - y2.get(rrow, c)).abs() < 1e-6,
                    "row {rrow} leaked future information"
                );
            }
        }
        // The last position must change.
        assert!(y1.max_abs_diff(&y2) > 1e-3);
    }

    #[test]
    fn attention_probs_rows_sum_to_one() {
        let mut r = rng();
        let core = AttentionCore {
            batch: 2,
            seq: 4,
            heads: 1,
            head_dim: 3,
        };
        let q = Matrix::randn(8, 3, 1.0, &mut r);
        let k = Matrix::randn(8, 3, 1.0, &mut r);
        let v = Matrix::randn(8, 3, 1.0, &mut r);
        let (_, cache) = core.forward(&q, &k, &v);
        for p in &cache.probs {
            for row in 0..4 {
                let s: f32 = p.row(row).iter().sum();
                assert!((s - 1.0).abs() < 1e-5);
            }
        }
    }

    #[test]
    fn attention_gradcheck_q() {
        let mut r = rng();
        let core = AttentionCore {
            batch: 1,
            seq: 3,
            heads: 1,
            head_dim: 2,
        };
        let q0 = Matrix::randn(3, 2, 1.0, &mut r);
        let k = Matrix::randn(3, 2, 1.0, &mut r);
        let v = Matrix::randn(3, 2, 1.0, &mut r);
        let dy = Matrix::randn(3, 2, 1.0, &mut r);
        let loss = |qs: &[f32]| {
            let q = Matrix::from_vec(3, 2, qs.to_vec());
            let (y, _) = core.forward(&q, &k, &v);
            y.as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        let (_, cache) = core.forward(&q0, &k, &v);
        let (dq, _, _) = core.backward(&q0, &k, &v, &cache, &dy);
        numeric_vs_analytic(&loss, q0.as_slice(), dq.as_slice(), 3e-2);
    }

    #[test]
    fn attention_gradcheck_k_and_v() {
        let mut r = rng();
        let core = AttentionCore {
            batch: 1,
            seq: 3,
            heads: 1,
            head_dim: 2,
        };
        let q = Matrix::randn(3, 2, 1.0, &mut r);
        let k0 = Matrix::randn(3, 2, 1.0, &mut r);
        let v0 = Matrix::randn(3, 2, 1.0, &mut r);
        let dy = Matrix::randn(3, 2, 1.0, &mut r);
        let (_, cache) = core.forward(&q, &k0, &v0);
        let (_, dk, dv) = core.backward(&q, &k0, &v0, &cache, &dy);
        let loss_k = |ks: &[f32]| {
            let k = Matrix::from_vec(3, 2, ks.to_vec());
            let (y, _) = core.forward(&q, &k, &v0);
            y.as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        numeric_vs_analytic(&loss_k, k0.as_slice(), dk.as_slice(), 3e-2);
        let loss_v = |vs: &[f32]| {
            let v = Matrix::from_vec(3, 2, vs.to_vec());
            let (y, _) = core.forward(&q, &k0, &v);
            y.as_slice()
                .iter()
                .zip(dy.as_slice())
                .map(|(a, b)| a * b)
                .sum::<f32>()
        };
        numeric_vs_analytic(&loss_v, v0.as_slice(), dv.as_slice(), 3e-2);
    }

    #[test]
    fn embedding_lookup_and_scatter() {
        let mut r = rng();
        let mut emb = Embedding::new(10, 4, 3, &mut r);
        let toks = [1usize, 2, 3, 1]; // batch=1? here batch*seq=4, seq=4
        let x = emb.forward(&toks, 4);
        assert_eq!((x.rows(), x.cols()), (4, 3));
        // Row 0 = token 1 at position 0.
        for c in 0..3 {
            assert!((x.get(0, c) - emb.tokens.get(1, c) - emb.positions.get(0, c)).abs() < 1e-6);
        }
        let dy = Matrix::from_fn(4, 3, |_, _| 1.0);
        emb.backward(&toks, 4, &dy);
        // Token 1 appears twice → gradient 2 per column.
        for c in 0..3 {
            assert_eq!(emb.gtokens.get(1, c), 2.0);
            assert_eq!(emb.gtokens.get(2, c), 1.0);
            assert_eq!(emb.gtokens.get(0, c), 0.0);
        }
    }

    #[test]
    fn cross_entropy_uniform_logits() {
        let v = 8usize;
        let logits = Matrix::zeros(2, v);
        let (loss, d) = cross_entropy(&logits, &[3, 5]);
        assert!((loss - (v as f32).ln()).abs() < 1e-5);
        // Gradient: (1/V − 1{target})/N.
        assert!((d.get(0, 3) - (1.0 / v as f32 - 1.0) / 2.0).abs() < 1e-6);
        assert!((d.get(0, 0) - (1.0 / v as f32) / 2.0).abs() < 1e-6);
    }

    #[test]
    fn cross_entropy_gradcheck() {
        let mut r = rng();
        let l0 = Matrix::randn(3, 5, 1.0, &mut r);
        let targets = [0usize, 2, 4];
        let loss = |p: &[f32]| {
            let m = Matrix::from_vec(3, 5, p.to_vec());
            cross_entropy(&m, &targets).0
        };
        let (_, d) = cross_entropy(&l0, &targets);
        numeric_vs_analytic(&loss, l0.as_slice(), d.as_slice(), 3e-2);
    }
}
