//! `plan_sweep`: an exhaustive (p, t, d, b) sweep through
//! `core::TrainingRun::simulate` plus the §3 heuristic pick, for GPT-3
//! 175B on 512 simulated GPUs (batch 512) and 5.9B on 64 GPUs (batch
//! 256). No real tensors: the planner crates do all the work.

use std::path::Path;
use std::time::Instant;

use megatron_cluster::ClusterSpec;
use megatron_collective::mix_seed;
use megatron_core::TrainingRun;
use megatron_model::{zoo, GptConfig};
use megatron_parallel::{heuristics, ParallelConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::layers;
use crate::util::{self, median, quantile, Digest, Outcome, Run, Spans};

/// One sweep case: model, GPUs, global batch.
pub struct Case {
    pub model: GptConfig,
    pub cluster: ClusterSpec,
    pub batch: u64,
}

pub fn cases() -> Vec<Case> {
    vec![
        Case {
            model: zoo::gpt3_175b(),
            cluster: ClusterSpec::selene(512),
            batch: 512,
        },
        Case {
            model: zoo::gpt_5p9b(),
            cluster: ClusterSpec::selene(64),
            batch: 256,
        },
    ]
}

/// Candidate plans of one case: every valid (p, t, d) refined over
/// microbatch sizes that divide the per-replica batch.
pub fn plans(case: &Case) -> Vec<ParallelConfig> {
    let mut out = Vec::new();
    for base in heuristics::enumerate_configs(&case.model, &case.cluster, case.batch) {
        for b in [1u64, 2, 4, 8] {
            if (case.batch / base.data).is_multiple_of(b) {
                out.push(ParallelConfig::new(
                    base.pipeline,
                    base.tensor,
                    base.data,
                    b,
                    case.batch,
                ));
            }
        }
    }
    out
}

/// The prepared sweep: cases, their candidate plans, and the priced §3
/// heuristic pick of each case.
pub struct Prepared {
    pub cases: Vec<Case>,
    pub plans: Vec<Vec<ParallelConfig>>,
    pub heuristic: Vec<Verdict>,
}

/// Set-up, up to the planner's first answer: build the cases, enumerate
/// their plans, and take and price the §3 heuristic pick (the baseline
/// the sweep is judged against).
pub fn prepare() -> Result<Prepared, String> {
    let cases = cases();
    let plans = cases.iter().map(plans).collect();
    let heuristic = cases
        .iter()
        .map(|c| {
            heuristics::suggest_config(&c.model, &c.cluster, c.batch)
                .map(|pc| evaluate(c, pc))
                .map_err(|e| format!("{}: no heuristic plan: {e:?}", c.model.name))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Prepared {
        cases,
        plans,
        heuristic,
    })
}

/// What one plan evaluated to.
#[derive(Clone, Copy, PartialEq)]
pub enum Verdict {
    /// Predicted iteration seconds and TFLOP/s per GPU.
    Fits { iteration_s: f64, tflops: f64 },
    /// Rejected by the simulator (does not fit, invalid schedule, ...):
    /// a result, not a failure.
    Rejected,
}

/// One full sweep's results.
pub struct Sweep {
    /// `(case, plan index, verdict, simulate seconds)` in evaluation order.
    pub evals: Vec<(usize, usize, Verdict, f64)>,
    pub wall_s: f64,
}

fn evaluate(case: &Case, pc: ParallelConfig) -> Verdict {
    match TrainingRun::ptdp(case.model.clone(), case.cluster.clone(), pc).simulate() {
        Ok(r) => Verdict::Fits {
            iteration_s: r.iteration_time,
            tflops: r.tflops_per_gpu,
        },
        Err(_) => Verdict::Rejected,
    }
}

/// Evaluate every plan of every case, in a seeded order (the order must
/// not change any result).
pub fn sweep(prep: &Prepared, seed: u64, spans: &mut Spans) -> Sweep {
    let mut order: Vec<(usize, usize)> = prep
        .plans
        .iter()
        .enumerate()
        .flat_map(|(c, ps)| (0..ps.len()).map(move |i| (c, i)))
        .collect();
    let mut rng = StdRng::seed_from_u64(mix_seed(seed, 0x5eed));
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let t0 = Instant::now();
    let evals = order
        .into_iter()
        .map(|(c, i)| {
            let t = Instant::now();
            let v = spans.span("core.simulate", |_| {
                evaluate(&prep.cases[c], prep.plans[c][i])
            });
            (c, i, v, t.elapsed().as_secs_f64())
        })
        .collect();
    Sweep {
        evals,
        wall_s: t0.elapsed().as_secs_f64(),
    }
}

/// Best plan per case: index and TFLOP/s (ties go to the lower index).
pub fn best(prep: &Prepared, s: &Sweep) -> Vec<Option<(usize, f64)>> {
    (0..prep.cases.len())
        .map(|c| {
            let mut fits: Vec<(usize, f64)> = s
                .evals
                .iter()
                .filter(|e| e.0 == c)
                .filter_map(|e| match e.2 {
                    Verdict::Fits { tflops, .. } => Some((e.1, tflops)),
                    Verdict::Rejected => None,
                })
                .collect();
            fits.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
            fits.first().copied()
        })
        .collect()
}

/// Digest of every per-plan prediction (in plan order, independent of
/// evaluation order) and each case's best plan.
pub fn digest(prep: &Prepared, s: &Sweep) -> u64 {
    let mut evals: Vec<_> = s.evals.iter().map(|e| (e.0, e.1, e.2)).collect();
    evals.sort_by_key(|e| (e.0, e.1));
    let mut d = Digest::new();
    for (c, i, v) in evals {
        let pc = prep.plans[c][i];
        for x in [c as u64, pc.pipeline, pc.tensor, pc.data, pc.microbatch] {
            d.u64(x);
        }
        match v {
            Verdict::Fits {
                iteration_s,
                tflops,
            } => {
                d.u64(iteration_s.to_bits());
                d.u64(tflops.to_bits());
            }
            Verdict::Rejected => d.u64(u64::MAX),
        }
    }
    for b in best(prep, s) {
        d.u64(b.map_or(u64::MAX, |(i, _)| i as u64));
    }
    d.0
}

/// Gap of the heuristic pick to the sweep's best, as a fraction of the
/// best TFLOP/s (mean over cases).
pub fn heuristic_gap(prep: &Prepared, s: &Sweep) -> f64 {
    let gaps: Vec<f64> = best(prep, s)
        .iter()
        .zip(&prep.heuristic)
        .filter_map(|(b, h)| {
            let (_, best_tf) = (*b)?;
            match h {
                Verdict::Fits { tflops, .. } => Some(1.0 - tflops / best_tf),
                Verdict::Rejected => Some(1.0),
            }
        })
        .collect();
    gaps.iter().sum::<f64>() / gaps.len().max(1) as f64
}

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 50;

/// `plan_sweep`: whole sweeps back to back until the budget is spent,
/// each checked against the recorded digest.
pub fn sweep_workload(run: &Run, spans: &mut Spans, scratch: &Path) -> Result<Outcome, String> {
    println!("plan_sweep: GPT-3 175B on 512 GPUs at B=512 and 5.9B on 64 GPUs at B=256, b in {{1,2,4,8}}");
    let mut setups = Vec::new();
    let mut prep = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let p = spans.span("plan.prepare", |_| prepare())?;
        setups.push(t0.elapsed().as_secs_f64());
        prep = Some(p);
    }
    let prep = prep.expect("prepared");
    let mut out = Outcome::default();
    let budget = if run.trace {
        run.seconds / 2.0
    } else {
        run.seconds
    };
    let sweep_loop = |spans: &mut Spans, out: &mut Outcome| {
        let start = Instant::now();
        let mut sweeps = Vec::new();
        loop {
            let s = sweep(&prep, run.seed, spans);
            out.attempted += s.evals.len() as u64;
            if digest(&prep, &s) != crate::reference::PLAN_DIGEST {
                out.failed += s.evals.len() as u64;
            }
            let took = s.wall_s;
            sweeps.push(s);
            if start.elapsed().as_secs_f64() + took > budget {
                return sweeps;
            }
        }
    };
    let walls = |sweeps: &[Sweep]| -> Vec<f64> { sweeps.iter().map(|s| s.wall_s).collect() };
    let plain = {
        let mut off = Spans::new(false);
        sweep_loop(&mut off, &mut out)
    };
    if !run.trace {
        let plans = plain[0].evals.len() as f64;
        let per_plan: Vec<f64> = plain
            .iter()
            .flat_map(|s| s.evals.iter().map(|e| e.3))
            .collect();
        out.correct = out.failed == 0;
        out.push("setup_s", median(&setups), "s");
        out.push("op_p50_s", median(&walls(&plain)), "s");
        out.push("work_per_sec", plans / median(&walls(&plain)), "1/s");
        out.note("sweep_s", median(&walls(&plain)), "s");
        out.note("plans_per_sweep", plans, "count");
        out.note("sweeps", plain.len() as f64, "count");
        out.note("simulate_p50_s", median(&per_plan), "s");
        out.note("simulate_p95_s", quantile(&per_plan, 0.95), "s");
        out.note("peak_rss_mib", util::own_peak_rss_mib(), "MiB");
        out.note_fail_frac();
        return Ok(out);
    }
    // Traced pass: the same sweep with a span around every simulate call.
    let traced = spans.span("plan.traced", |spans| sweep_loop(spans, &mut out));
    let overhead = median(&walls(&traced)) / median(&walls(&plain)) - 1.0;
    let ok = layers::suite(
        spans,
        &mut out,
        layers::Given {
            seed: run.seed,
            overhead_frac: overhead,
            training: None,
        },
        scratch,
    )?;
    out.correct = out.failed == 0 && ok;
    Ok(out)
}

/// Print the recorded plan digest as Rust source.
pub fn print_reference() {
    let prep = prepare().expect("plans prepare");
    let s = sweep(&prep, 0, &mut Spans::new(false));
    println!("/// Digest of every `plan_sweep` prediction and each case's best plan.");
    println!("pub const PLAN_DIGEST: u64 = 0x{:016x};", digest(&prep, &s));
}
