//! Benches of the real CPU tensor engine: GEMM and GeLU at the per-rank
//! shapes the distributed runtime actually runs, and a full
//! forward+backward of the tiny GPT.

use megatron_bench::harness::Bench;
use megatron_tensor::gemm;
use megatron_tensor::gpt::{GptModel, TinyGptConfig};
use megatron_tensor::layers::{gelu, gelu_backward};
use megatron_tensor::Matrix;
use rand::SeedableRng;

/// Forward shapes `(m, k, n)` of one (2,2,2) training rank (h=128, s=64,
/// t=2): QKV, MLP up, MLP down, attention out, and per-head attention
/// scores (`64×32 · 32×64`).
const TRAIN_SHAPES: [(usize, usize, usize); 5] = [
    (64, 128, 192),
    (64, 128, 256),
    (64, 256, 128),
    (64, 64, 128),
    (64, 32, 64),
];

/// `(k, n)` of one t=2 serving rank's weights (h=48): QKV, MLP up, MLP
/// down.
const SERVE_WEIGHTS: [(usize, usize); 3] = [(48, 72), (48, 96), (96, 48)];

/// Each training shape runs as the layer does: forward `X·W`
/// (`matmul`), weight gradient `Xᵀ·dY` (`matmul_tn`) and input gradient
/// `dY·Wᵀ` (`matmul_nt`). Serving's decode steps multiply 1 or 6 rows.
fn gemm_shapes() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let g = Bench::group("gemm").sample_size(50);
    for &(m, k, n) in &TRAIN_SHAPES {
        let x = Matrix::randn(m, k, 1.0, &mut rng);
        let w = Matrix::randn(k, n, 1.0, &mut rng);
        let dy = Matrix::randn(m, n, 1.0, &mut rng);
        let shape = format!("{m}x{k}.{k}x{n}");
        g.run(&format!("matmul/{shape}"), || gemm::matmul(&x, &w));
        g.run(&format!("matmul_tn/{shape}"), || gemm::matmul_tn(&x, &dy));
        g.run(&format!("matmul_nt/{shape}"), || gemm::matmul_nt(&dy, &w));
    }
    for m in [1usize, 6] {
        for &(k, n) in &SERVE_WEIGHTS {
            let x = Matrix::randn(m, k, 1.0, &mut rng);
            let w = Matrix::randn(k, n, 1.0, &mut rng);
            g.run(&format!("decode/{m}x{k}.{k}x{n}"), || gemm::matmul(&x, &w));
        }
    }
}

/// GeLU forward and backward on one training rank's MLP activation
/// (`64×256`: s=64, 4h/t = 256) and on serving's decode steps of 1 and 6
/// rows (`4h/t = 96`).
fn gelu_shapes() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let g = Bench::group("gelu").sample_size(50);
    for (m, n) in [(64, 256), (1, 96), (6, 96)] {
        let x = Matrix::randn(m, n, 1.0, &mut rng);
        let dy = Matrix::randn(m, n, 1.0, &mut rng);
        g.run(&format!("gelu/{m}x{n}"), || gelu(&x));
        g.run(&format!("gelu_backward/{m}x{n}"), || gelu_backward(&x, &dy));
    }
}

fn gpt_step() {
    let cfg = TinyGptConfig {
        vocab: 128,
        seq: 32,
        hidden: 64,
        heads: 4,
        layers: 4,
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(2);
    let mut model = GptModel::new(cfg, &mut rng);
    let tokens: Vec<usize> = (0..4 * cfg.seq).map(|i| i % cfg.vocab).collect();
    let targets: Vec<usize> = tokens.iter().map(|&t| (t + 1) % cfg.vocab).collect();
    let g = Bench::group("tiny_gpt").sample_size(10);
    g.run("forward_backward_b4", || {
        model.zero_grads();
        model.loss_and_grad(&tokens, &targets, 4)
    });
}

fn main() {
    gemm_shapes();
    gelu_shapes();
    gpt_step();
}
