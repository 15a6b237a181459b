//! A real (if small) CPU tensor engine with hand-written backward passes.
//!
//! This crate is the numerical substrate for the thread-per-GPU distributed
//! runtime (`megatron-dist`): it provides everything a GPT forward/backward
//! pass needs — GEMM (one serial register-tiled kernel, with a naive
//! reference used in tests), GeLU, LayerNorm, causal multi-head attention,
//! embeddings, cross-entropy — plus the Adam optimizer and a finite-difference gradient
//! checker. Dropout is intentionally omitted: the reproduction's
//! correctness claims (tensor/pipeline/data-parallel execution computes the
//! same gradients as serial execution) require deterministic math, and
//! dropout contributes nothing to the performance phenomena under study.
//!
//! Everything is `f32`, row-major, and deliberately simple: shapes are
//! explicit `(rows, cols)` pairs, layers own their parameters and gradient
//! buffers, and every `forward` returns the cache its `backward` needs.

pub mod adam;
pub mod checkpoint;
pub mod gemm;
pub mod gpt;
pub mod gradcheck;
pub mod layers;
mod matrix;

pub use adam::{Adam, AdamState};
pub use matrix::Matrix;
