//! The traced pass's per-layer suite. Every traced run, whatever its
//! workload, reports every per-layer metric: each layer is probed at the
//! shapes of the workload that exercises it most (its home workload),
//! through the crates' public functions, inside the benchmark's own
//! spans. Only `telemetry.overhead_frac` depends on the traced workload:
//! it compares that workload's own operation time traced vs untraced.

use std::hint::black_box;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::{Duration, Instant};

use megatron_collective::{SocketChannel, SocketError, SocketNode, Transport, WireAddr};
use megatron_dist::proc::{JobSpec, ProcKill, ProcSupervisor};
use megatron_dist::{
    ring_all_reduce_bytes, CheckpointStore, Group, ParallelBlock, TrainLog, TransportConfig,
    WireKind,
};
use megatron_model::GptConfig;
use megatron_parallel::ParallelConfig;
use megatron_sim::json::Json;
use megatron_sim::serving::ContinuousBatcher;
use megatron_telemetry::{
    chrome_trace_json, critical_path, parse_chrome_trace, Attribution, SinkConfig, TelemetrySink,
    Window,
};
use megatron_tensor::gemm;
use megatron_tensor::gpt::TinyGptConfig;
use megatron_tensor::layers::{
    cross_entropy, gelu, gelu_backward, AttentionCore, LayerNorm, Linear,
};
use megatron_tensor::{Adam, Matrix};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::util::{median, Outcome, Spans};
use crate::{plan, serve, train};

/// What the traced workload already measured for the suite.
pub struct Given<'a> {
    /// The run's seed (the supervisor probe's victim, the traces).
    pub seed: u64,
    /// The traced workload's operation time, traced over untraced, − 1.
    pub overhead_frac: f64,
    /// A traced `train_threads` job, if the workload ran one: its spec,
    /// sink, log and iteration p50.
    pub training: Option<(&'a JobSpec, &'a Arc<TelemetrySink>, &'a TrainLog, f64)>,
}

/// GPT config of a test-scale model, for the model crate's FLOP formulas.
fn gpt_config(cfg: TinyGptConfig) -> GptConfig {
    GptConfig {
        name: "perfbench".to_string(),
        num_layers: cfg.layers as u64,
        hidden_size: cfg.hidden as u64,
        num_heads: cfg.heads as u64,
        seq_len: cfg.seq as u64,
        vocab_size: cfg.vocab as u64,
    }
}

/// A fresh telemetry sink for one traced training job.
pub fn training_sink(job: &JobSpec) -> Arc<TelemetrySink> {
    TelemetrySink::new(SinkConfig {
        world: job.world(),
        flops_per_iteration: gpt_config(job.model).flops_per_iteration(job.batch as u64, false),
        gpu: None,
    })
}

// ---------------------------------------------------------------------
// Host peak
// ---------------------------------------------------------------------

/// Peak f32 multiply-add rate of this host: 64 independent
/// multiply-add chains per thread, best of five, times the cores the
/// process may use. A fixed kernel in this file, so it moves with the
/// machine and compiler only, never with `megatron-tensor`.
fn host_peak_gflops() -> f64 {
    const LANES: usize = 64;
    const ITERS: usize = 8_000_000;
    let a = black_box([0.999f32; LANES]);
    let b = black_box([0.001f32; LANES]);
    let mut best = 0.0f64;
    for _ in 0..5 {
        let mut acc = black_box([1.0f32; LANES]);
        let t = Instant::now();
        for _ in 0..ITERS {
            for l in 0..LANES {
                acc[l] = acc[l] * a[l] + b[l];
            }
        }
        let s = t.elapsed().as_secs_f64();
        black_box(acc);
        best = best.max(2.0 * (LANES * ITERS) as f64 / s / 1e9);
    }
    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    best * cores as f64
}

// ---------------------------------------------------------------------
// megatron-tensor
// ---------------------------------------------------------------------

#[derive(Clone, Copy)]
enum Op {
    /// `A·B` with A m×k, B k×n.
    Nn,
    /// `Aᵀ·B` with A k×m, B k×n.
    Tn,
    /// `A·Bᵀ` with A m×k, B n×k.
    Nt,
}

#[derive(Clone, Copy)]
struct Gemm {
    op: Op,
    m: usize,
    k: usize,
    n: usize,
}

impl Gemm {
    fn flops(&self) -> f64 {
        2.0 * (self.m * self.k * self.n) as f64
    }
}

fn g(op: Op, m: usize, k: usize, n: usize) -> Gemm {
    Gemm { op, m, k, n }
}

/// The GEMMs one microbatch drives through one rank of the last
/// pipeline stage (the busiest): per layer the column-parallel QKV and
/// fc1, the row-parallel proj and fc2, two attention GEMMs per local
/// head forward and four backward, each Linear's weight-gradient (`Aᵀ·B`)
/// and input-gradient (`A·Bᵀ`) GEMMs; then the replicated LM head. The
/// Linear shapes are read off the job's own model, sharded by the
/// program (`ParallelBlock::from_serial`), so they follow the model; the
/// list and its length are derived from these shapes, not counted by the
/// program.
fn last_stage_gemms(job: &JobSpec) -> Vec<Gemm> {
    let c = job.model;
    let master = job.master();
    let (s, t) = (job.microbatch * c.seq, job.tensor);
    let heads = c.heads / t;
    let hd = c.hidden / c.heads;
    let layers = c.layers / job.pipeline;
    let last = &master.blocks[master.blocks.len() - layers..];
    let mut out = Vec::new();
    for block in last {
        let blk = ParallelBlock::from_serial(block, c.heads, t, 0);
        let shape = |l: &Linear| (l.w.rows(), l.w.cols());
        let [qkv, proj, fc1, fc2] = [&blk.qkv, &blk.proj, &blk.fc1, &blk.fc2].map(shape);
        // Forward.
        out.push(g(Op::Nn, s, qkv.0, qkv.1));
        for _ in 0..heads {
            out.push(g(Op::Nt, s, hd, s));
            out.push(g(Op::Nn, s, s, hd));
        }
        for (inp, outp) in [proj, fc1, fc2] {
            out.push(g(Op::Nn, s, inp, outp));
        }
        // Backward: fc2, fc1, proj, attention, qkv.
        for (inp, outp) in [fc2, fc1, proj] {
            out.push(g(Op::Tn, inp, s, outp));
            out.push(g(Op::Nt, s, outp, inp));
        }
        for _ in 0..heads {
            out.push(g(Op::Tn, s, s, hd));
            out.push(g(Op::Nt, s, hd, s));
            out.push(g(Op::Nn, s, s, hd));
            out.push(g(Op::Tn, s, s, hd));
        }
        out.push(g(Op::Tn, qkv.0, s, qkv.1));
        out.push(g(Op::Nt, s, qkv.1, qkv.0));
    }
    let (h, v) = (master.lm_head.w.rows(), master.lm_head.w.cols());
    out.push(g(Op::Nn, s, h, v));
    out.push(g(Op::Tn, h, s, v));
    out.push(g(Op::Nt, s, v, h));
    out
}

fn randn(rows: usize, cols: usize, rng: &mut StdRng) -> Matrix {
    Matrix::randn(rows, cols, 1.0, rng)
}

/// Median per-call seconds of `f` over `reps` calls after two warm-ups.
fn per_call(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    f();
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

fn tensor_probes(out: &mut Outcome, spans: &mut Spans, job: &JobSpec, peak: f64) {
    let mut rng = StdRng::seed_from_u64(0x6e33);
    let gemms = last_stage_gemms(job);
    let operands: Vec<(Matrix, Matrix)> = gemms
        .iter()
        .map(|x| match x.op {
            Op::Nn => (randn(x.m, x.k, &mut rng), randn(x.k, x.n, &mut rng)),
            Op::Tn => (randn(x.k, x.m, &mut rng), randn(x.k, x.n, &mut rng)),
            Op::Nt => (randn(x.m, x.k, &mut rng), randn(x.n, x.k, &mut rng)),
        })
        .collect();
    let flops: f64 = gemms.iter().map(Gemm::flops).sum();
    let per_microbatch = spans.span("tensor.gemm", |_| {
        per_call(15, || {
            for (x, (a, b)) in gemms.iter().zip(&operands) {
                black_box(match x.op {
                    Op::Nn => gemm::matmul(a, b),
                    Op::Tn => gemm::matmul_tn(a, b),
                    Op::Nt => gemm::matmul_nt(a, b),
                });
            }
        })
    });
    let m = job.batch / job.data / job.microbatch;
    let gflops = flops / per_microbatch / 1e9;
    out.push(
        "tensor.gemm.calls_per_iter",
        (gemms.len() * m) as f64,
        "count",
    );
    out.push(
        "tensor.gemm.us_per_call",
        1e6 * per_microbatch / gemms.len() as f64,
        "us",
    );
    out.push("tensor.gemm.gflops", gflops, "GFLOP/s");
    out.push("tensor.gemm.peak_frac", gflops / peak, "frac");

    let c = job.model;
    let (s, h, t) = (job.microbatch * c.seq, c.hidden, job.tensor);
    let core = AttentionCore {
        batch: job.microbatch,
        seq: c.seq,
        heads: c.heads / t,
        head_dim: h / c.heads,
    };
    let (q, k, v) = (
        randn(s, h / t, &mut rng),
        randn(s, h / t, &mut rng),
        randn(s, h / t, &mut rng),
    );
    let dout = randn(s, h / t, &mut rng);
    let us = spans.span("tensor.attention", |_| {
        per_call(50, || {
            let (o, cache) = core.forward(&q, &k, &v);
            black_box(o);
            black_box(core.backward(&q, &k, &v, &cache, &dout));
        })
    });
    out.push("tensor.attention.us", 1e6 * us, "us");

    let mut ln = LayerNorm::new(h);
    let x = randn(s, h, &mut rng);
    let dy = randn(s, h, &mut rng);
    let us = spans.span("tensor.layernorm", |_| {
        per_call(200, || {
            let (y, cache) = ln.forward(&x);
            black_box(y);
            black_box(ln.backward(&cache, &dy));
        })
    });
    out.push("tensor.layernorm.us", 1e6 * us, "us");

    let f = randn(s, 4 * h / t, &mut rng);
    let df = randn(s, 4 * h / t, &mut rng);
    let us = spans.span("tensor.gelu", |_| {
        per_call(200, || {
            black_box(gelu(&f));
            black_box(gelu_backward(&f, &df));
        })
    });
    out.push("tensor.gelu.us", 1e6 * us, "us");

    let logits = randn(s, c.vocab, &mut rng);
    let targets: Vec<usize> = (0..s).map(|i| (i * 7) % c.vocab).collect();
    let us = spans.span("tensor.cross_entropy", |_| {
        per_call(200, || {
            black_box(cross_entropy(&logits, &targets));
        })
    });
    out.push("tensor.cross_entropy.us", 1e6 * us, "us");

    // Adam over one rank's share of the parameters: reads p, g, m, v and
    // writes p, m, v (7 f32 per parameter).
    let n = job.master().param_count() / (job.pipeline * job.tensor);
    let mut p = vec![0.5f32; n];
    let mut grad = vec![0.01f32; n];
    let mut adam = Adam::new(0.01);
    let secs = spans.span("tensor.adam", |_| {
        per_call(50, || adam.step(&mut [(&mut p, &mut grad)]))
    });
    out.push(
        "tensor.adam.gbps",
        7.0 * 4.0 * n as f64 / secs / 1e9,
        "GB/s",
    );

    // Serial baseline: one whole model, forward + backward over the
    // global batch.
    let mut model = job.master();
    let (tokens, targets) = job.dataset().swap_remove(0);
    let secs = spans.span("tensor.fwd_bwd_serial", |_| {
        let t0 = Instant::now();
        black_box(model.loss_and_grad(&tokens, &targets, job.batch));
        t0.elapsed().as_secs_f64()
    });
    out.push("tensor.fwd_bwd_serial_s", secs, "s");
}

// ---------------------------------------------------------------------
// megatron-collective + dist::comm
// ---------------------------------------------------------------------

/// Per-call seconds of a g=2 in-memory all-reduce of `n` floats (slowest
/// member).
fn mailbox_all_reduce_s(n: usize, reps: usize) -> f64 {
    let group = Group::new(2);
    let start = Barrier::new(2);
    thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|r| {
                let m = group.member(r);
                let start = &start;
                s.spawn(move || {
                    let mut buf = vec![1.0f32 / (r + 1) as f32; n];
                    m.all_reduce_sum(&mut buf);
                    start.wait();
                    let t = Instant::now();
                    for _ in 0..reps {
                        m.all_reduce_sum(&mut buf);
                    }
                    t.elapsed().as_secs_f64() / reps as f64
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("all-reduce member"))
            .fold(0.0, f64::max)
    })
}

/// Two socket listeners under `dir`.
fn uds_pair(dir: &Path) -> Result<Vec<Arc<SocketNode>>, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    (0..2)
        .map(|r| {
            SocketNode::bind(&WireAddr::Uds(dir.join(format!("r{r}.sock"))))
                .map(Arc::new)
                .map_err(|e| format!("bind UDS listener: {e}"))
        })
        .collect()
}

/// One g=2 all-reduce of `n` floats per rep over a fresh UDS group with
/// the given deadline: per-call seconds, or `None` if it failed.
fn uds_all_reduce_s(
    dir: &Path,
    n: usize,
    reps: usize,
    deadline: Duration,
) -> Result<Option<f64>, String> {
    let nodes = uds_pair(dir)?;
    let addrs: Vec<Option<WireAddr>> = nodes.iter().map(|n| Some(n.addr().clone())).collect();
    let cfg = TransportConfig {
        wire: WireKind::Uds,
        ..TransportConfig::default()
    };
    let results: Vec<Option<f64>> = thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|r| {
                let chan = SocketChannel::new(Arc::clone(&nodes[r]), 7100, r, addrs.clone());
                s.spawn(move || {
                    let m = Group::with_socket(2, deadline, cfg, chan).member(r);
                    let mut buf = vec![1.0f32 / (r + 1) as f32; n];
                    let t = Instant::now();
                    for _ in 0..reps {
                        if m.try_all_reduce_sum(&mut buf).is_err() {
                            return None;
                        }
                    }
                    Some(t.elapsed().as_secs_f64() / reps as f64)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("socket member"))
            .collect()
    });
    drop(nodes);
    let _ = std::fs::remove_dir_all(dir);
    Ok(match (results[0], results[1]) {
        (Some(a), Some(b)) => Some(a.max(b)),
        _ => None,
    })
}

/// One-way latency of an `n`-float frame between two UDS channels
/// (half the ping-pong round trip, after five warm-up round trips).
fn uds_p2p_s(dir: &Path, n: usize, reps: usize) -> Result<f64, String> {
    let nodes = uds_pair(dir)?;
    let addrs: Vec<Option<WireAddr>> = nodes.iter().map(|n| Some(n.addr().clone())).collect();
    let results: Vec<Result<f64, SocketError>> = thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|r| {
                let mut chan = SocketChannel::new(Arc::clone(&nodes[r]), 7200, r, addrs.clone());
                s.spawn(move || -> Result<f64, SocketError> {
                    chan.set_deadline(Instant::now() + Duration::from_secs(30));
                    if r == 1 {
                        for _ in 0..reps + 5 {
                            let f = chan.recv(0)?;
                            chan.send(0, &f)?;
                        }
                        return Ok(0.0);
                    }
                    let frame = vec![0.5f32; n];
                    let mut t = Instant::now();
                    for i in 0..reps + 5 {
                        if i == 5 {
                            t = Instant::now();
                        }
                        chan.send(1, &frame)?;
                        chan.recv(1)?;
                    }
                    Ok(t.elapsed().as_secs_f64() / reps as f64)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("p2p member"))
            .collect()
    });
    drop(nodes);
    let _ = std::fs::remove_dir_all(dir);
    let rtt = results
        .into_iter()
        .collect::<Result<Vec<f64>, _>>()
        .map_err(|e| format!("UDS p2p frame: {e:?}"))?[0];
    Ok(rtt / 2.0)
}

fn comm_probes(
    out: &mut Outcome,
    spans: &mut Spans,
    threads: &JobSpec,
    procs: &JobSpec,
    scratch: &Path,
) -> Result<(), String> {
    // Activation all-reduce (the per-layer tensor all-reduce of one
    // microbatch) and the largest per-tensor gradient all-reduce, at the
    // train_threads shapes over the in-memory transport.
    let act = threads.microbatch * threads.model.seq * threads.model.hidden;
    let grad = threads.model.hidden * 4 * threads.model.hidden / threads.tensor;
    for (name, n) in [("act", act), ("grad", grad)] {
        let s = spans.span(&format!("comm.all_reduce.{name}"), |_| {
            mailbox_all_reduce_s(n, 200)
        });
        out.push(&format!("comm.all_reduce.{name}.us"), 1e6 * s, "us");
        out.push(
            &format!("comm.all_reduce.{name}.gbps"),
            ring_all_reduce_bytes(2, n) / s / 1e9,
            "GB/s",
        );
    }
    // The same two sizes at the train_procs shapes over UDS, and the
    // pipeline p2p frame of train_procs.
    let act = procs.microbatch * procs.model.seq * procs.model.hidden;
    let grad = procs.model.vocab * procs.model.hidden;
    for (name, n) in [("act", act), ("grad", grad)] {
        let s = spans
            .span(&format!("comm.uds.all_reduce.{name}"), |_| {
                uds_all_reduce_s(
                    &scratch.join(format!("ar-{name}")),
                    n,
                    200,
                    Duration::from_secs(30),
                )
            })?
            .ok_or_else(|| format!("UDS all-reduce of {n} floats failed"))?;
        out.push(&format!("comm.uds.all_reduce.{name}.us"), 1e6 * s, "us");
    }
    let s = spans.span("comm.p2p", |_| uds_p2p_s(&scratch.join("p2p"), act, 200))?;
    out.push("comm.p2p.us", 1e6 * s, "us");
    Ok(())
}

/// ROADMAP item 4's large-frame defect, recorded rather than capped
/// around: g=2 UDS all-reduces with ring chunks of 256 KiB to 4 MiB,
/// each in a fresh group under a 0.5 s deadline (a working transport
/// moves 4 MiB chunks in milliseconds).
fn large_frame_probe(out: &mut Outcome, spans: &mut Spans, scratch: &Path) -> Result<(), String> {
    let sizes_kib = [256usize, 512, 1024, 2048, 4096];
    let mut failed = 0usize;
    for kib in sizes_kib {
        // Ring chunk = n/g floats at g = 2.
        let n = 2 * kib * 1024 / 4;
        let r = spans.span(&format!("comm.uds.large_frame.{kib}KiB"), |_| {
            uds_all_reduce_s(
                &scratch.join(format!("lf-{kib}")),
                n,
                1,
                Duration::from_millis(500),
            )
        })?;
        println!(
            "UDS all-reduce, {kib} KiB ring chunk: {}",
            r.map_or("failed".to_string(), |s| format!("{:.1} ms", 1e3 * s))
        );
        failed += usize::from(r.is_none());
    }
    out.push(
        "comm.uds.large_frame.fail_frac",
        failed as f64 / sizes_kib.len() as f64,
        "frac",
    );
    Ok(())
}

// ---------------------------------------------------------------------
// dist::trainer + megatron-schedule + megatron-telemetry
// ---------------------------------------------------------------------

fn dist_probes(
    out: &mut Outcome,
    spans: &mut Spans,
    job: &JobSpec,
    sink: &TelemetrySink,
    log: &TrainLog,
    iter_p50: f64,
    peak: f64,
) -> Result<(), String> {
    let trace = chrome_trace_json(&sink.hub, job.pipeline);
    let attr = spans.span(
        "telemetry.attribution",
        |_| -> Result<Attribution, String> {
            let dag = parse_chrome_trace(&trace, job.pipeline)?;
            // Iteration 0 is the warm-up.
            let per_iter: Vec<Attribution> = (1..job.iters as u64)
                .filter_map(|it| critical_path(&dag, Window::iteration(it)))
                .map(|p| Attribution::from_path(&p))
                .collect();
            if per_iter.is_empty() {
                return Err("traced job produced no analysable iteration".into());
            }
            Ok(Attribution::mean(&per_iter))
        },
    )?;
    spans.attach_program_trace("train_threads", trace);
    let m = attr.measured_s.max(1e-12);
    out.push("dist.compute_share", attr.compute_s / m, "frac");
    out.push("dist.exposed_comm_share", attr.exposed_comm_s / m, "frac");
    out.push("dist.bubble_share", attr.bubble_s / m, "frac");
    out.push("dist.optimizer_share", attr.optimizer_s / m, "frac");
    out.push(
        "dist.straggler_wait_share",
        attr.straggler_wait_s / m,
        "frac",
    );
    out.push("dist.checkpoint_share", attr.checkpoint_s / m, "frac");
    let pc = ParallelConfig::new(
        job.pipeline as u64,
        job.tensor as u64,
        job.data as u64,
        job.microbatch as u64,
        job.batch as u64,
    );
    out.push("schedule.bubble_frac", pc.bubble_fraction(), "frac");
    let stash = log.peak_stash_floats.values().copied().max().unwrap_or(0);
    out.push("dist.peak_stash_floats", stash as f64, "count");
    let flops = gpt_config(job.model).flops_per_iteration(job.batch as u64, false);
    let gflops = flops / iter_p50 / 1e9;
    out.push("dist.model_gflops_per_sec", gflops, "GFLOP/s");
    out.push("dist.host_mfu", gflops / peak, "frac");

    let iters = job.iters as f64;
    let bytes: f64 = log.comm_volumes.values().map(|v| v.total_bytes()).sum();
    let calls: usize = log
        .comm_ops
        .values()
        .map(|o| o.tensor.len() + o.data.len() + o.p2p_sends.len())
        .sum();
    out.push("comm.bytes_per_iter", bytes / iters, "B");
    out.push("comm.calls_per_iter", calls as f64 / iters, "count");

    let dropped: f64 = match &sink.metrics.snapshot()["counters"] {
        Json::Obj(map) => map
            .iter()
            .filter(|(k, _)| k.starts_with("spans_dropped."))
            .filter_map(|(_, v)| v.as_f64())
            .sum(),
        _ => 0.0,
    };
    out.push("telemetry.spans_dropped", dropped, "count");
    Ok(())
}

// ---------------------------------------------------------------------
// dist::proc + ProcSupervisor + dist::checkpoint
// ---------------------------------------------------------------------

fn proc_probes(
    out: &mut Outcome,
    spans: &mut Spans,
    seed: u64,
    scratch: &Path,
) -> Result<bool, String> {
    let job = train::procs_job(seed);
    let twin = spans.span("proc.reference", |_| train::in_process_reference(&job))?;
    let reference = &twin.log;
    let dir = scratch.join("pj");
    let clean = spans.span("proc.launch_job", |_| train::run_procs_job(&job, &dir))?;
    let _ = std::fs::remove_dir_all(&dir);
    let mut ok = train::procs_mismatches(&job, &clean, reference) == 0;
    out.push("proc.launch_s", clean.launch_s, "s");
    out.push("proc.rendezvous_s", clean.rendezvous_s, "s");
    out.push("proc.teardown_s", clean.teardown_s, "s");
    out.push("proc.peak_rss_mib", clean.rss_mib, "MiB");

    // One seeded SIGKILL through the supervisor, between the two
    // checkpoint generations.
    let victim = (seed % job.world() as u64) as usize;
    let after_iter = job.checkpoint_every + 1;
    let root = scratch.join("sv");
    let report = spans.span("supervisor.run", |_| {
        ProcSupervisor::new(&job, &root)
            .run(
                &[ProcKill {
                    rank: victim,
                    after_iter,
                }],
                None,
            )
            .map_err(|e| format!("supervised run: {e}"))
    })?;
    let _ = std::fs::remove_dir_all(&root);
    let healed = report.outcome.ok() && train::params_match(reference, &report.outcome);
    if !healed {
        eprintln!("supervised run did not heal bit-identically");
    }
    ok &= healed;
    let inc = report
        .incidents
        .first()
        .ok_or("the supervisor recorded no incident for the SIGKILL")?;
    // The clean job's own clock: when it had completed `k` iterations.
    let clean_until = |k: usize| -> f64 {
        clean.timing.setup_s
            + clean
                .timing
                .iter_s
                .iter()
                .take(k.saturating_sub(1))
                .sum::<f64>()
    };
    let clean_iter = median(&clean.timing.iter_s);
    out.push(
        "supervisor.detect_s",
        (inc.detect_s - clean_until(inc.at_progress)).max(0.0),
        "s",
    );
    out.push("supervisor.restore_s", inc.restore_s, "s");
    let attempt1 = report.wall_s - inc.detect_s - inc.backoff_s - inc.restore_s;
    let redo = (job.iters - inc.restored_generation) as f64 * clean_iter + clean.teardown_s;
    out.push("supervisor.respawn_s", (attempt1 - redo).max(0.0), "s");

    // Durable checkpoint layer on its own: the same job's state, written
    // shard by shard, committed, and loaded back.
    let snapshot = twin
        .snapshot
        .as_ref()
        .ok_or("no in-memory snapshot to checkpoint")?;
    let spec = job.spec();
    let store_dir = scratch.join("ck");
    let store = CheckpointStore::open(&store_dir).map_err(|e| e.to_string())?;
    let (mut write, mut commit, mut load) = (Vec::new(), Vec::new(), Vec::new());
    let mut bytes = 0.0;
    for rep in 0..5usize {
        let gen = (rep + 1) * job.iters;
        let t = Instant::now();
        spans
            .span("ckpt.write", |_| {
                snapshot
                    .threads
                    .iter()
                    .try_for_each(|(k, st)| store.write_shard(&spec, *k, gen, st))
            })
            .map_err(|e| e.to_string())?;
        write.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        spans
            .span("ckpt.commit", |_| {
                store.commit_generation(&spec, job.model, gen, &snapshot.threads)
            })
            .map_err(|e| e.to_string())?;
        commit.push(t.elapsed().as_secs_f64());
        if rep == 0 {
            bytes = dir_bytes(&store_dir);
        }
        let t = Instant::now();
        let restored = spans
            .span("ckpt.load", |_| store.load_pinned(&spec, job.model, gen))
            .map_err(|e| e.to_string())?;
        load.push(t.elapsed().as_secs_f64());
        let same = snapshot.threads.iter().all(|(k, st)| {
            restored.snapshot.threads.get(k).is_some_and(|r| {
                r.params
                    .iter()
                    .zip(&st.params)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
            })
        });
        if !same {
            eprintln!("checkpoint generation {gen} did not restore bit-identically");
            ok = false;
        }
    }
    let _ = std::fs::remove_dir_all(&store_dir);
    out.push("ckpt.write_s", median(&write), "s");
    out.push("ckpt.commit_s", median(&commit), "s");
    out.push("ckpt.load_s", median(&load), "s");
    out.push("ckpt.bytes", bytes, "B");
    Ok(ok)
}

/// Total size of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> f64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0.0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len() as f64,
            Err(_) => 0.0,
        })
        .sum()
}

// ---------------------------------------------------------------------
// megatron-serve + sim::serving
// ---------------------------------------------------------------------

fn serve_probes(out: &mut Outcome, spans: &mut Spans, seed: u64) -> bool {
    let model = serve::model();
    let cfg = serve::config();
    let trace = seed % serve::TRACES;
    let reqs = serve::traffic(trace, serve::REQUESTS);
    let spot = spans.span("serve.spot_check", |_| serve::spot_check(&model, &reqs));
    let _ = megatron_serve::serve(&model, &cfg, &reqs[..8], None);
    let o = spans.span("serve.serve", |_| {
        megatron_serve::serve(&model, &cfg, &reqs, None)
    });
    // Every prompt is longer than max_seqs rows, so a step of at most
    // max_seqs rows is pure decode; a longer one carries a prefill.
    let max_seqs = cfg.policy.max_seqs;
    let pick = |decode: bool| -> Vec<f64> {
        o.step_samples
            .iter()
            .filter(|s| (s.0 <= max_seqs) == decode)
            .map(|s| s.2)
            .collect()
    };
    out.push("serve.prefill_step_us", 1e6 * median(&pick(false)), "us");
    out.push("serve.decode_step_us", 1e6 * median(&pick(true)), "us");
    let rows: usize = o.step_samples.iter().map(|s| s.0).sum();
    let secs: f64 = o.step_samples.iter().map(|s| s.2).sum();
    out.push("serve.us_per_row", 1e6 * secs / rows.max(1) as f64, "us");
    out.push(
        "serve.kv_peak_mib",
        o.kv_peak_floats as f64 * 4.0 / (1024.0 * 1024.0),
        "MiB",
    );
    let rep = serve::rep_stats(&o);
    out.push("serve.ttft_p50_s", rep.ttft_p50, "s");
    out.push("serve.ttft_p95_s", rep.ttft_p95, "s");
    out.push("serve.latency_p95_s", rep.latency_p95, "s");

    // The scheduler alone, replayed over the same trace.
    let requests: Vec<_> = reqs.iter().map(|r| r.request.clone()).collect();
    let (mut steps, mut running, mut secs) = (0usize, 0usize, Vec::new());
    for _ in 0..5 {
        let mut b = ContinuousBatcher::new(cfg.policy, requests.clone());
        let t = Instant::now();
        let (mut n, mut occ) = (0usize, 0usize);
        spans.span("serve.batcher", |_| {
            while let Some(plan) = b.next_step() {
                n += 1;
                occ += plan.seqs.len();
                b.finish_step(&plan);
            }
        });
        secs.push(t.elapsed().as_secs_f64() / n.max(1) as f64);
        steps = n;
        running = occ;
    }
    out.push("serve.batcher.next_step_us", 1e6 * median(&secs), "us");
    out.push(
        "serve.occupancy",
        running as f64 / (steps.max(1) * max_seqs) as f64,
        "frac",
    );
    spot && serve::digest(&o) == crate::reference::SERVE_DIGESTS[trace as usize]
}

// ---------------------------------------------------------------------
// Planner: core, sim, parallel, schedule, net, model, cluster
// ---------------------------------------------------------------------

fn planner_probes(out: &mut Outcome, spans: &mut Spans, seed: u64) -> Result<bool, String> {
    let cases = plan::cases();
    let enumerate: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            spans.span("parallel.enumerate", |_| {
                black_box(cases.iter().map(plan::plans).collect::<Vec<_>>())
            });
            t.elapsed().as_secs_f64()
        })
        .collect();
    out.push("parallel.enumerate_s", median(&enumerate), "s");
    let prep = plan::prepare()?;
    let s = spans.span("plan.sweep", |spans| plan::sweep(&prep, seed, spans));
    let per_plan: Vec<f64> = s.evals.iter().map(|e| e.3).collect();
    out.push("core.simulate_p50_s", median(&per_plan), "s");
    out.push(
        "core.simulate_max_s",
        per_plan.iter().copied().fold(0.0, f64::max),
        "s",
    );
    out.push("plan.count", s.evals.len() as f64, "count");
    let rejected = s
        .evals
        .iter()
        .filter(|e| e.2 == plan::Verdict::Rejected)
        .count();
    out.push("plan.infeasible", rejected as f64, "count");
    out.push("plan.heuristic_gap", plan::heuristic_gap(&prep, &s), "frac");
    Ok(plan::digest(&prep, &s) == crate::reference::PLAN_DIGEST)
}

/// Run every layer probe; returns whether the probes' own output checks
/// passed.
pub fn suite(
    spans: &mut Spans,
    out: &mut Outcome,
    given: Given,
    scratch: &Path,
) -> Result<bool, String> {
    let seed = given.seed;
    let peak = spans.span("host.peak", |_| host_peak_gflops());
    out.push("host.peak_gflops", peak, "GFLOP/s");
    let threads_job = train::threads_job(seed % train::THREADS_STREAMS);
    let procs_job = train::procs_job(seed);
    spans.span("layer.tensor", |spans| {
        tensor_probes(out, spans, &threads_job, peak)
    });
    spans.span("layer.comm", |spans| {
        comm_probes(out, spans, &threads_job, &procs_job, scratch)
    })?;
    spans.span("layer.comm.large_frame", |spans| {
        large_frame_probe(out, spans, scratch)
    })?;
    match given.training {
        Some((job, sink, log, p50)) => spans.span("layer.dist", |spans| {
            dist_probes(out, spans, job, sink, log, p50, peak)
        })?,
        None => spans.span("layer.dist", |spans| -> Result<(), String> {
            let sink = training_sink(&threads_job);
            let (t, o) = train::run_threads_job(&threads_job, Some(Arc::clone(&sink)));
            if let Some(e) = o.error {
                return Err(format!("traced train_threads job failed: {e}"));
            }
            dist_probes(
                out,
                spans,
                &threads_job,
                &sink,
                &o.log,
                median(&t.iter_s),
                peak,
            )
        })?,
    }
    out.push("telemetry.overhead_frac", given.overhead_frac, "frac");
    let mut ok = spans.span("layer.proc", |spans| proc_probes(out, spans, seed, scratch))?;
    ok &= spans.span("layer.serve", |spans| serve_probes(out, spans, seed));
    ok &= spans.span("layer.planner", |spans| planner_probes(out, spans, seed))?;
    Ok(ok)
}
