//! E38: `repro chaos --process` — real-kill chaos through a supervised
//! 8-process (2,2,2) UDS job.
//!
//! Where E33 injects faults into threads sharing one address space, this
//! experiment pulls real power cords: seeded **SIGKILLs** delivered to
//! worker OS processes at seeded iteration boundaries (each victim parks
//! there until the supervisor kills it), plus a seeded socket fault plan
//! (mid-frame severs, connection refusals, per-link slowdowns) armed
//! inside the workers.
//! The launcher-side [`ProcSupervisor`] must notice each death, commit
//! whatever durable shard generations the dead world left behind,
//! restore the newest, and respawn — and the healed run's **final
//! parameters must be bit-identical** to a fault-free process run of the
//! same job.
//!
//! The run is then priced: the measured goodput (useful work over
//! supervised wall-clock) is compared against the Young/Daly
//! [`GoodputModel`] parameterized by the *measured* MTBF, restore, and
//! backoff costs, and an elastic shrink→grow cycle through the same
//! durable store validates [`ElasticGoodputModel`] the same way. Both
//! land in `BENCH_proc_chaos.json` for the perf-regression sentry.

use std::path::PathBuf;
use std::time::Instant;

use megatron_dist::proc::{launch_configured, JobSpec, ProcKill, ProcSupervisor, SocketFaultPlan};
use megatron_dist::CapacityEvent;
use megatron_fault::{ElasticGoodputModel, RecoveryMeasurement};
use megatron_sim::json::Json;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `repro chaos --process` usage string.
pub const USAGE: &str = "repro chaos --process [--seed N] [--iters N] [--ckpt-every N] [--kills N]
            [--ptd P,T,D] [--out PATH]
  E38: seeded SIGKILL + socket-fault chaos through a supervised process-mode
  job; gates on final params bit-identical to the fault-free process run and
  writes measured-vs-predicted goodput to BENCH_proc_chaos.json";

/// CLI-tunable knobs for the process-mode chaos run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcChaosKnobs {
    /// Seed for the kill schedule and the socket fault plan.
    pub seed: u64,
    /// Total training iterations.
    pub iters: usize,
    /// Durable checkpoint interval in iterations.
    pub ckpt_every: usize,
    /// Scheduled SIGKILLs (each on a seeded victim at a seeded trigger).
    pub kills: usize,
    /// Parallelization `(p, t, d)`.
    pub ptd: (usize, usize, usize),
}

impl Default for ProcChaosKnobs {
    fn default() -> Self {
        ProcChaosKnobs {
            seed: 0xe38,
            iters: 12,
            ckpt_every: 2,
            kills: 2,
            ptd: (2, 2, 2),
        }
    }
}

/// CLI entry: parse flags (ignoring the dispatching `--process`), run.
pub fn run(args: &[String]) -> Result<String, String> {
    let mut knobs = ProcChaosKnobs::default();
    let mut out: Option<String> = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut val = || -> Result<&String, String> {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--process" => {}
            "--seed" => knobs.seed = parse(val()?)?,
            "--iters" => knobs.iters = parse(val()?)?,
            "--ckpt-every" => knobs.ckpt_every = parse(val()?)?,
            "--kills" => knobs.kills = parse(val()?)?,
            "--ptd" => {
                let parts: Vec<usize> = val()?
                    .split(',')
                    .map(|s| s.trim().parse())
                    .collect::<Result<_, _>>()
                    .map_err(|e| format!("--ptd: {e}\n{USAGE}"))?;
                if parts.len() != 3 || parts.contains(&0) {
                    return Err(format!("--ptd needs three nonzero values\n{USAGE}"));
                }
                knobs.ptd = (parts[0], parts[1], parts[2]);
            }
            "--out" => out = Some(val()?.clone()),
            other => return Err(format!("unknown flag '{other}'\n{USAGE}")),
        }
    }
    if knobs.ckpt_every == 0 || knobs.iters < 2 * knobs.ckpt_every {
        return Err("need --ckpt-every >= 1 and --iters >= 2*ckpt-every".into());
    }
    report(&knobs, out.as_deref().unwrap_or("BENCH_proc_chaos.json"))
}

fn parse<T: std::str::FromStr>(s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("could not parse '{s}'\n{USAGE}"))
}

fn yn(b: bool) -> &'static str {
    if b {
        "yes"
    } else {
        "no"
    }
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("megatron-e38-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Seeded kill schedule: `n` victims at progress triggers spread through
/// the run, sorted so earlier kills fire first.
fn kill_schedule(seed: u64, world: usize, iters: usize, n: usize) -> Vec<ProcKill> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6b11_5eed);
    let mut kills: Vec<ProcKill> = (0..n)
        .map(|_| ProcKill {
            rank: rng.gen_range(0..world),
            after_iter: rng.gen_range(1..iters.max(2) - 1),
        })
        .collect();
    kills.sort_by_key(|k| (k.after_iter, k.rank));
    kills
}

fn report(knobs: &ProcChaosKnobs, out_path: &str) -> Result<String, String> {
    let (p, t, d) = knobs.ptd;
    let mut job = JobSpec::canonical(p, t, d);
    job.retry = true; // arms ReliableTransport + the socket replay log
    job.iters = knobs.iters;
    // Heavier than the canonical toy so per-iteration compute dominates
    // process spawn/rendezvous — otherwise the goodput comparison only
    // measures launcher overhead.
    job.batch = 32;
    job.model.seq = 8;
    job.model.hidden = 16;
    let world = job.world();

    // --- Fault-free reference run (no checkpointing): params + clean rate.
    let dir_a = scratch("clean");
    let t0 = Instant::now();
    let handle = launch_configured(&job, &dir_a, None, None).map_err(|e| e.to_string())?;
    let clean = handle.wait();
    let clean_wall = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir_a);
    if !clean.ok() {
        return Err(format!(
            "fault-free run failed: missing {:?}, exits {:?}",
            clean.missing, clean.exits
        ));
    }
    let clean_iter_s = clean_wall / knobs.iters as f64;

    // --- Fault-free run *with* checkpointing: save cost, and proof that
    // durable shard writes don't perturb the numerics.
    let mut job_ck = job;
    job_ck.checkpoint_every = knobs.ckpt_every;
    let dir_b = scratch("clean-ckpt");
    let t0 = Instant::now();
    let handle = launch_configured(&job_ck, &dir_b, Some(&dir_b.join("ckpt")), None)
        .map_err(|e| e.to_string())?;
    let clean_ck = handle.wait();
    let ckpt_wall = t0.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir_b);
    if !clean_ck.ok() {
        return Err(format!(
            "checkpointed fault-free run failed: missing {:?}, exits {:?}",
            clean_ck.missing, clean_ck.exits
        ));
    }
    let ckpt_params_ok = clean
        .outputs
        .iter()
        .all(|(k, o)| clean_ck.outputs.get(k).map(|c| &c.params) == Some(&o.params));
    let n_gens = knobs.iters / knobs.ckpt_every;
    let save_s_total = (ckpt_wall - clean_wall).max(0.0);

    // --- The chaos run: seeded SIGKILLs + socket faults, supervised.
    let kills = kill_schedule(knobs.seed, world, knobs.iters, knobs.kills);
    let faults = SocketFaultPlan::seeded(knobs.seed, world);
    let root = scratch("chaos");
    let sup = ProcSupervisor::new(&job_ck, &root);
    let report = sup.run(&kills, Some(&faults)).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(&root);
    let chaos_params_ok = clean
        .outputs
        .iter()
        .all(|(k, o)| report.outcome.outputs.get(k).map(|c| &c.params) == Some(&o.params));

    // Lost (re-executed) iterations and detection overhead per incident.
    let mut prev_gen = 0usize;
    let mut lost_iters = 0usize;
    let mut detect_s_total = 0.0f64;
    let mut restore_s_total = 0.0f64;
    let mut backoff_s_total = 0.0f64;
    for inc in &report.incidents {
        let executed = inc.at_progress.saturating_sub(prev_gen);
        lost_iters += inc.at_progress.saturating_sub(inc.restored_generation);
        detect_s_total += (inc.detect_s - executed as f64 * clean_iter_s).max(0.0);
        restore_s_total += inc.restore_s;
        backoff_s_total += inc.backoff_s;
        prev_gen = inc.restored_generation;
    }
    let meas = RecoveryMeasurement {
        wall_s: report.wall_s,
        n_iterations: knobs.iters,
        clean_iter_s,
        n_failures: report.incidents.len(),
        lost_iterations: lost_iters,
        restore_s_total,
        backoff_s_total,
        detect_s_total,
        save_s_total,
        n_checkpoints: n_gens,
        checkpoint_every_iters: knobs.ckpt_every,
    };
    let measured = meas.measured_goodput();
    let predicted = meas.predicted_goodput();
    let young_daly_s = meas.to_model().young_daly_interval();
    let model_error = (measured - predicted).abs() / measured.max(1e-12);

    // --- Elastic cycle through the same machinery: shrink on Lost,
    // grow back on Returned, every hop over the canonical restore path.
    let lost_at = knobs.iters / 3;
    let back_at = 2 * knobs.iters / 3;
    let events = [
        CapacityEvent::Lost {
            iteration: lost_at,
            ranks: world / 4,
        },
        CapacityEvent::Returned {
            iteration: back_at,
            ranks: world / 4,
        },
    ];
    let root_e = scratch("elastic");
    let sup_e = ProcSupervisor::new(&job_ck, &root_e);
    let elastic = sup_e.run_elastic(&events).map_err(|e| e.to_string())?;
    // A degraded topology regroups the data-parallel gradient sum, so the
    // elastic run is *not* comparable bit-for-bit against the full-topology
    // run (same as E35). The determinism claim is per-segment: a fresh
    // process world launched from the grow-boundary generation must
    // reproduce the post-grow segment exactly.
    let grow_gen = elastic
        .reconfigurations
        .iter()
        .find(|r| r.direction == megatron_dist::ReconfigureDirection::Grow)
        .map(|r| r.generation);
    let elastic_params_ok = match grow_gen {
        Some(gen) => {
            let mut job_r = job_ck;
            job_r.resume_from = gen;
            let handle = launch_configured(
                &job_r,
                &root_e.join("replay"),
                Some(&root_e.join("ckpt")),
                None,
            )
            .map_err(|e| e.to_string())?;
            let replay = handle.wait();
            replay.ok()
                && elastic
                    .outcome
                    .outputs
                    .iter()
                    .all(|(k, o)| replay.outputs.get(k).map(|c| &c.params) == Some(&o.params))
        }
        None => false,
    };
    let _ = std::fs::remove_dir_all(&root_e);
    let elastic_wall: f64 = elastic.segments.iter().map(|s| s.wall_s).sum();
    let degraded = elastic
        .segments
        .iter()
        .find(|s| s.spec != knobs.ptd)
        .copied();
    let degraded_iter_s = degraded
        .map(|s| s.wall_s / (s.to_iter - s.from_iter).max(1) as f64)
        .unwrap_or(clean_iter_s);
    let reconfigure_s: f64 = elastic.reconfigurations.iter().map(|r| r.restore_s).sum();
    let emodel = ElasticGoodputModel::from_measured(
        meas.to_model(),
        clean_iter_s,
        degraded_iter_s,
        reconfigure_s,
    );
    let useful_s = knobs.iters as f64 * clean_iter_s;
    let outage_s = degraded.map(|s| s.wall_s).unwrap_or(0.0);
    let elastic_measured = (useful_s / elastic_wall).clamp(0.0, 1.0);
    let elastic_predicted = emodel.elastic_goodput(meas.interval_s(), useful_s, outage_s);
    let elastic_error = (elastic_measured - elastic_predicted).abs() / elastic_measured.max(1e-12);

    // --- Report.
    let mut rep = String::new();
    rep.push_str(&format!(
        "E38: supervised ({p},{t},{d}) = {world} OS processes over UDS, {} iterations, \
         checkpoint every {}\n\n",
        knobs.iters, knobs.ckpt_every
    ));
    rep.push_str(&format!(
        "  chaos plan (seed {:#x}): {} SIGKILLs {:?}, {} socket faults\n",
        knobs.seed,
        kills.len(),
        kills
            .iter()
            .map(|k| (k.rank, k.after_iter))
            .collect::<Vec<_>>(),
        faults.faults.len(),
    ));
    rep.push_str(&format!(
        "  incidents: {} (attempts {})\n",
        report.incidents.len(),
        report.attempts
    ));
    for inc in &report.incidents {
        rep.push_str(&format!(
            "    attempt {}: {:?} at progress {} → restored gen {} \
             (detect {:.3} s, restore {:.3} s, backoff {:.3} s)\n",
            inc.attempt,
            inc.dead_ranks,
            inc.at_progress,
            inc.restored_generation,
            inc.detect_s,
            inc.restore_s,
            inc.backoff_s
        ));
    }
    rep.push_str(&format!(
        "\n  checkpointed fault-free params match plain fault-free: {}\n",
        yn(ckpt_params_ok)
    ));
    rep.push_str(&format!(
        "  final params bit-identical to fault-free process run: {}\n",
        yn(chaos_params_ok)
    ));
    rep.push_str(&format!(
        "\n  goodput: measured {:.4}, Young/Daly-predicted {:.4} (error {:.1}%)\n\
         \x20 young/daly interval: {:.2} s (run used {:.2} s)\n\
         \x20 lost iterations: {}, restore {:.3} s, backoff {:.3} s\n",
        measured,
        predicted,
        model_error * 100.0,
        young_daly_s,
        meas.interval_s(),
        lost_iters,
        restore_s_total,
        backoff_s_total,
    ));
    rep.push_str(&format!(
        "\n  elastic: {} segments {:?}\n\
         \x20 post-grow segment bit-identical to fresh launch from the grow generation: {}\n\
         \x20 elastic goodput: measured {:.4}, predicted {:.4} (error {:.1}%)\n",
        elastic.segments.len(),
        elastic
            .segments
            .iter()
            .map(|s| (s.spec, s.from_iter, s.to_iter))
            .collect::<Vec<_>>(),
        yn(elastic_params_ok),
        elastic_measured,
        elastic_predicted,
        elastic_error * 100.0,
    ));

    let record = crate::perf::bench_json(
        "proc_chaos",
        vec![
            ("world".into(), Json::Num(world as f64)),
            ("p".into(), Json::Num(p as f64)),
            ("t".into(), Json::Num(t as f64)),
            ("d".into(), Json::Num(d as f64)),
            ("iters".into(), Json::Num(knobs.iters as f64)),
            ("ckpt_every".into(), Json::Num(knobs.ckpt_every as f64)),
            ("kills".into(), Json::Num(knobs.kills as f64)),
            ("seed".into(), Json::Num(knobs.seed as f64)),
        ],
        vec![
            ("measured_goodput".into(), measured),
            ("predicted_goodput".into(), predicted),
            // Named to dodge the sentry's "goodput → higher-better"
            // keyword: a model error is lower-better.
            ("model_error".into(), model_error),
            ("clean_iter_s".into(), clean_iter_s),
            ("restarts".into(), report.incidents.len() as f64),
            // `lost_iterations` stays console-only: a 0 baseline makes
            // any relative sentry delta explode.
            ("restore_s_total".into(), restore_s_total),
            ("backoff_s_total".into(), backoff_s_total),
            ("elastic_measured_goodput".into(), elastic_measured),
            ("elastic_predicted_goodput".into(), elastic_predicted),
            ("elastic_model_error".into(), elastic_error),
            ("degraded_iter_s".into(), degraded_iter_s),
            ("relative_throughput".into(), emodel.relative_throughput),
        ],
    );
    rep.push_str(&format!(
        "\n  {}\n",
        crate::perf::write_bench_json(out_path, &record)
    ));

    if !(chaos_params_ok && elastic_params_ok && ckpt_params_ok) {
        return Err(rep + "\nFAIL: a healed run diverged from the fault-free run");
    }
    if report.incidents.is_empty() {
        return Err(rep + "\nFAIL: chaos run saw no incidents — the kills never landed");
    }
    Ok(rep)
}
