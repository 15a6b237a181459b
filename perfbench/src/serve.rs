//! `serve_decode`: tensor-parallel (t=2) continuous-batched decoding with
//! KV caches on the E34 model, over seeded request traces.
//!
//! The loop is self-paced: requests are admitted on the engine's virtual
//! clock with at most `max_seqs` in flight, so this is a closed loop
//! whose load follows the engine's speed. A rate-vs-latency-limit curve
//! needs a wall-clock front end the program does not have yet.

use std::path::Path;
use std::time::Instant;

use megatron_collective::mix_seed;
use megatron_dist::Group;
use megatron_serve::engine::argmax;
use megatron_serve::{generate, serve, RankEngine, SeqBatchEntry, ServeConfig, ServeOutcome};
use megatron_serve::{ServeRequest, TrafficConfig};
use megatron_sim::serving::BatchPolicy;
use megatron_telemetry::MetricsRegistry;
use megatron_tensor::gpt::{GptModel, TinyGptConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::layers;
use crate::util::{self, median, quantile, Digest, Outcome, Run, Spans};

/// Requests per trace: 20 lie beyond p95, and occupancy-driven
/// throughput differs little from one seed's trace to the next.
pub const REQUESTS: usize = 400;

/// Recorded request traces; the seed picks one (`seed mod TRACES`).
pub const TRACES: u64 = 8;

/// E34's model: 4 layers, h=48, 6 heads, seq 96, vocab 64.
pub fn model() -> GptModel {
    let cfg = TinyGptConfig {
        vocab: 64,
        seq: 96,
        hidden: 48,
        heads: 6,
        layers: 4,
    };
    GptModel::new(cfg, &mut StdRng::seed_from_u64(0x5e34_0de1))
}

/// E34's admission caps.
pub fn config() -> ServeConfig {
    ServeConfig {
        tensor_parallel: 2,
        policy: BatchPolicy {
            max_seqs: 6,
            max_live_tokens: 160,
            prefill_chunk: 0,
        },
    }
}

/// Request trace number `trace` (E34's traffic shape).
pub fn traffic(trace: u64, requests: usize) -> Vec<ServeRequest> {
    generate(&TrafficConfig {
        requests,
        seed: mix_seed(trace, 0x5e34),
        mean_interarrival: 24.0,
        prompt_len: (8, 24),
        max_new: (4, 16),
        vocab: 64,
    })
}

/// Digest of every request's generated tokens, in id order.
pub fn digest(outcome: &ServeOutcome) -> u64 {
    let mut d = Digest::new();
    for (id, toks) in &outcome.outputs {
        d.u64(*id as u64);
        d.u64(toks.len() as u64);
        for &t in toks {
            d.u64(t as u64);
        }
    }
    d.0
}

/// Greedy-decode one request on a single rank, either through the KV
/// cache (incremental) or recomputing the full prefix every step.
fn greedy(model: &GptModel, prompt: &[usize], max_new: usize, incremental: bool) -> Vec<u32> {
    let group = Group::new(1);
    let member = group.member(0);
    let engine = RankEngine::from_serial(model, 1, 0);
    let mut tokens = prompt.to_vec();
    let mut caches = engine.new_cache();
    let mut bits = Vec::new();
    for step in 0..max_new {
        let start = if incremental && step > 0 {
            tokens.len() - 1
        } else {
            caches = engine.new_cache();
            0
        };
        let mut entries = [SeqBatchEntry {
            tokens: &tokens[start..],
            start_pos: start,
            caches: &mut caches,
        }];
        let logits = engine.forward_step(&mut entries, &member);
        let row = logits.row(logits.rows() - 1);
        bits.extend(row.iter().map(|x| x.to_bits()));
        tokens.push(argmax(row));
    }
    bits
}

/// Incremental decode through the KV cache is bit-identical to
/// full-prefix recompute on the trace's first request.
pub fn spot_check(model: &GptModel, reqs: &[ServeRequest]) -> bool {
    let r = &reqs[0];
    greedy(model, &r.prompt_tokens, r.request.max_new, true)
        == greedy(model, &r.prompt_tokens, r.request.max_new, false)
}

/// Per-trace serving statistics.
pub struct Rep {
    /// Time per output token after the first, per request: the decode
    /// speed a streaming client sees, free of queueing.
    pub tpot_p50: f64,
    pub tokens_per_sec: f64,
    pub latency_p50: f64,
    pub latency_p95: f64,
    pub ttft_p50: f64,
    pub ttft_p95: f64,
}

pub fn rep_stats(o: &ServeOutcome) -> Rep {
    let lat = o.summary.latencies();
    let ttft = o.summary.ttfts();
    let tpot: Vec<f64> = o
        .summary
        .requests
        .iter()
        .filter(|r| r.generated > 1)
        .map(|r| (r.done_s - r.first_token_s) / (r.generated - 1) as f64)
        .collect();
    Rep {
        tpot_p50: quantile(&tpot, 0.5),
        tokens_per_sec: o.summary.tokens_per_sec(),
        latency_p50: quantile(&lat, 0.5),
        latency_p95: quantile(&lat, 0.95),
        ttft_p50: quantile(&ttft, 0.5),
        ttft_p95: quantile(&ttft, 0.95),
    }
}

/// Serve the trace back to back until the budget is spent; every pass
/// must generate exactly the reference tokens.
fn serve_loop(
    model: &GptModel,
    reqs: &[ServeRequest],
    want: u64,
    seconds: f64,
    metrics: Option<&MetricsRegistry>,
    out: &mut Outcome,
) -> Vec<Rep> {
    let cfg = config();
    let start = Instant::now();
    let mut reps = Vec::new();
    loop {
        let t = Instant::now();
        let o = serve(model, &cfg, reqs, metrics);
        let took = t.elapsed().as_secs_f64();
        out.attempted += reqs.len() as u64;
        if digest(&o) != want {
            out.failed += reqs.len() as u64;
        }
        reps.push(rep_stats(&o));
        if start.elapsed().as_secs_f64() + took > seconds {
            return reps;
        }
    }
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 25;

/// Set-up as a server start pays it: build the weights, the request
/// trace, and one warm-up pass over the first few requests (which
/// shards the weights into the rank engines).
fn set_up(trace: u64) -> (f64, GptModel, Vec<ServeRequest>) {
    let t0 = Instant::now();
    let m = model();
    let reqs = traffic(trace, REQUESTS);
    let _ = serve(&m, &config(), &reqs[..8], None);
    (t0.elapsed().as_secs_f64(), m, reqs)
}

pub fn decode(run: &Run, spans: &mut Spans, scratch: &Path) -> Result<Outcome, String> {
    let trace = run.seed % TRACES;
    println!(
        "serve_decode: t=2, 4 layers h=48 6 heads seq 96 vocab 64, max_seqs 6, {REQUESTS} requests per trace (self-paced, closed loop), trace {trace}"
    );
    let mut setups = Vec::new();
    let (mut m, mut reqs) = (None, None);
    for _ in 0..SETUPS {
        let (s, mm, rr) = spans.span("serve.set_up", |_| set_up(trace));
        setups.push(s);
        m = Some(mm);
        reqs = Some(rr);
    }
    let (m, reqs) = (m.expect("set up ran"), reqs.expect("set up ran"));
    let mut out = Outcome::default();
    let want = crate::reference::SERVE_DIGESTS[trace as usize];
    // Outputs do not depend on the batching policy: the same trace served
    // one sequence at a time must give the recorded tokens too.
    let serial_ok = spans.span("serve.one_at_a_time", |_| {
        let mut cfg = config();
        cfg.policy.max_seqs = 1;
        digest(&serve(&m, &cfg, &reqs, None)) == want
    });
    if !serial_ok {
        eprintln!("serving one sequence at a time differs from the recorded tokens");
    }
    let spot = spans.span("serve.spot_check", |_| spot_check(&m, &reqs));
    if !spot {
        eprintln!("incremental decode differs from full-prefix recompute");
    }
    let checks_ok = serial_ok && spot;
    let budget = if run.trace {
        run.seconds / 2.0
    } else {
        run.seconds
    };
    let plain = spans.span("serve.untraced", |_| {
        serve_loop(&m, &reqs, want, budget, None, &mut out)
    });
    // At E34's load the engine runs near saturation, so request latency
    // and TTFT are mostly queueing and swing with each seed's arrival
    // pattern; time per output token is the engine's own per-request
    // speed and is what `op_p50_s` reports.
    let tpot50: Vec<f64> = plain.iter().map(|r| r.tpot_p50).collect();
    if !run.trace {
        let tps: Vec<f64> = plain.iter().map(|r| r.tokens_per_sec).collect();
        out.correct = out.failed == 0 && checks_ok;
        out.push("setup_s", median(&setups), "s");
        out.push("op_p50_s", median(&tpot50), "s");
        out.push("work_per_sec", median(&tps), "1/s");
        out.note("peak_rss_mib", util::own_peak_rss_mib(), "MiB");
        out.note("gen_tokens_per_sec", median(&tps), "1/s");
        let med = |f: fn(&Rep) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
        out.note("ttft_p50_s", med(|r| r.ttft_p50), "s");
        out.note("ttft_p95_s", med(|r| r.ttft_p95), "s");
        out.note("latency_p50_s", med(|r| r.latency_p50), "s");
        out.note("latency_p95_s", med(|r| r.latency_p95), "s");
        out.note("tpot_p50_s", med(|r| r.tpot_p50), "s");
        out.note("traces_served", plain.len() as f64, "count");
        out.note_fail_frac();
        return Ok(out);
    }
    // Traced pass: the same loop with the program's metrics registry on.
    let registry = MetricsRegistry::new();
    let traced = spans.span("serve.traced", |_| {
        serve_loop(&m, &reqs, want, budget, Some(&registry), &mut out)
    });
    let traced50: Vec<f64> = traced.iter().map(|r| r.tpot_p50).collect();
    let ok = layers::suite(
        spans,
        &mut out,
        layers::Given {
            seed: run.seed,
            overhead_frac: median(&traced50) / median(&tpot50) - 1.0,
            training: None,
        },
        scratch,
    )?;
    out.correct = out.failed == 0 && checks_ok && ok;
    Ok(out)
}

/// Print the recorded token digests as Rust source.
pub fn print_reference() {
    let m = model();
    println!("/// Digest of every generated token of `serve_decode`, one per request trace.");
    println!("pub const SERVE_DIGESTS: [u64; {TRACES}] = [");
    for trace in 0..TRACES {
        let o = serve(&m, &config(), &traffic(trace, REQUESTS), None);
        println!("    0x{:016x},", digest(&o));
    }
    println!("];");
}
