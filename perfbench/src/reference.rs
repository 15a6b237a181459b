//! Outputs recorded with the benchmark: regenerate with
//! `perfbench --print-reference <train_threads|serve_decode|plan_sweep>`.

/// Per-iteration loss bit patterns of `train_threads`, one row per data stream.
pub const THREADS_LOSS_BITS: [[u32; 4]; 8] = [
    [0x40b1c434, 0x40b1d09c, 0x40b32aee, 0x40b43cfa],
    [0x40b1edb4, 0x40b21d9e, 0x40b416fd, 0x40b2f123],
    [0x40b1a21c, 0x40b1fafb, 0x40b31dee, 0x40b42e4f],
    [0x40b1cc76, 0x40b254cc, 0x40b2eb74, 0x40b4627c],
    [0x40b1c0e3, 0x40b263de, 0x40b30c5c, 0x40b46b3e],
    [0x40b191d2, 0x40b225d9, 0x40b3badc, 0x40b50e56],
    [0x40b1a620, 0x40b21be5, 0x40b373f8, 0x40b3d2bc],
    [0x40b1af65, 0x40b23650, 0x40b359bc, 0x40b574b8],
];

/// Digest of every `plan_sweep` prediction and each case's best plan.
pub const PLAN_DIGEST: u64 = 0xf90eb5e60c6c5e9a;

/// Digest of every generated token of `serve_decode`, one per request trace.
pub const SERVE_DIGESTS: [u64; 8] = [
    0x94864c1d92d698ab,
    0xf153f70e2a97d0d5,
    0xcb4496f8dc14b7e6,
    0x36949cefb9e2c5ed,
    0x4674882c0fc95b19,
    0xdbe7d93517121768,
    0x8c04d22c0d007e35,
    0x0a6a58d5eec1450f,
];
