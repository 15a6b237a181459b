//! The two training workloads: the seeded (2,2,2) PTD-P job as 8 rank
//! threads over in-memory mailboxes (`train_threads`) and as 8 OS
//! processes over Unix-domain sockets with durable checkpoints
//! (`train_procs`).

use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use megatron_collective::mix_seed;
use megatron_dist::checkpoint::CheckpointStore;
use megatron_dist::proc::{launch_configured, JobSpec};
use megatron_dist::{PtdpTrainer, RunControl, TrainLog, TrainOutcome};
use megatron_telemetry::TelemetrySink;
use megatron_tensor::gpt::TinyGptConfig;

use crate::layers;
use crate::util::{self, median, Outcome, Run, Spans};

/// Iterations per `train_threads` job; the recorded reference losses
/// cover exactly these.
pub const THREADS_ITERS: usize = 4;
/// Recorded data streams for `train_threads`; the seed picks one.
pub const THREADS_STREAMS: u64 = 8;
/// Iterations per `train_procs` job.
pub const PROCS_ITERS: usize = 8;
/// Durable checkpoint cadence of `train_procs`.
pub const PROCS_CKPT_EVERY: usize = 4;

/// GEMM-bound thread-mode job: h=128, 4 heads, 4 layers, seq 64, vocab
/// 256, B=16, so m=8 microbatches per replica at b=1.
pub fn threads_job(stream: u64) -> JobSpec {
    let mut job = JobSpec::canonical(2, 2, 2);
    job.model = TinyGptConfig {
        vocab: 256,
        seq: 64,
        hidden: 128,
        heads: 4,
        layers: 4,
    };
    job.batch = 16;
    job.iters = THREADS_ITERS;
    job.model_seed = 0x7137_0001;
    job.data_seed = mix_seed(stream, 0x7151);
    job
}

/// Latency-bound process-mode job: h=32, 4 heads, 4 layers, seq 16,
/// vocab 256, B=32 (m=16), checkpointing every few iterations.
pub fn procs_job(seed: u64) -> JobSpec {
    let mut job = JobSpec::canonical(2, 2, 2);
    job.model = TinyGptConfig {
        vocab: 256,
        seq: 16,
        hidden: 32,
        heads: 4,
        layers: 4,
    };
    job.batch = 32;
    job.iters = PROCS_ITERS;
    job.checkpoint_every = PROCS_CKPT_EVERY;
    job.model_seed = 0x9e0c_0001;
    // `job.json` carries seeds as JSON numbers (f64), which round above
    // 2^53, so the workers would rebuild other data than the launcher's
    // reference run: keep the seed within 32 bits.
    job.data_seed = mix_seed(seed, 0x9e0c) & 0xffff_ffff;
    job
}

/// Training tokens one iteration consumes.
pub fn tokens_per_iter(job: &JobSpec) -> f64 {
    (job.batch * job.model.seq) as f64
}

/// Timings of one job, from the moment its inputs start being built.
#[derive(Clone)]
pub struct JobTiming {
    /// Until every rank finished iteration 0: input build, rank start-up
    /// (threads, or processes plus rendezvous) and the warm-up iteration.
    pub setup_s: f64,
    /// Wall time of iterations 1.. (each ends when the last rank ends it).
    pub iter_s: Vec<f64>,
    /// Whole job, start to every rank joined or reaped.
    pub wall_s: f64,
}

/// Turn per-iteration completion instants into [`JobTiming`].
fn timing(t0: Instant, done: &[Instant], end: Instant) -> JobTiming {
    JobTiming {
        setup_s: done.first().map_or(0.0, |d| (*d - t0).as_secs_f64()),
        iter_s: done
            .windows(2)
            .map(|w| (w[1] - w[0]).as_secs_f64())
            .collect(),
        wall_s: (end - t0).as_secs_f64(),
    }
}

/// Run one in-process job, stamping each iteration's end through the
/// trainer's per-iteration beat hook.
pub fn run_threads_job(
    job: &JobSpec,
    telemetry: Option<Arc<TelemetrySink>>,
) -> (JobTiming, TrainOutcome) {
    let world = job.world();
    let t0 = Instant::now();
    let trainer = PtdpTrainer::new(job.master(), job.spec());
    let data = job.dataset();
    let stamps: Arc<Mutex<Vec<Vec<Instant>>>> = Arc::new(Mutex::new(vec![Vec::new(); world]));
    let beat = {
        let stamps = Arc::clone(&stamps);
        Arc::new(move |rank: usize| {
            stamps.lock().expect("stamp lock")[rank].push(Instant::now());
        }) as Arc<dyn Fn(usize) + Send + Sync>
    };
    let out = trainer.train_with(
        &data,
        RunControl {
            telemetry,
            on_beat: Some(beat),
            ..Default::default()
        },
    );
    let end = Instant::now();
    let stamps = stamps.lock().expect("stamp lock");
    let iters = stamps.iter().map(Vec::len).min().unwrap_or(0);
    let done: Vec<Instant> = (0..iters)
        .map(|i| stamps.iter().map(|s| s[i]).max().expect("world > 0"))
        .collect();
    (timing(t0, &done, end), out)
}

/// One finished `train_threads` job.
struct ThreadsJob {
    timing: JobTiming,
    log: TrainLog,
    sink: Option<Arc<TelemetrySink>>,
}

/// Back-to-back `train_threads` jobs from the master weights until the
/// budget is spent, each checked against the recorded losses. Traced
/// jobs get a fresh telemetry sink each, so one job's spans never mix
/// with another's.
fn threads_loop(
    job: &JobSpec,
    reference: &[u32],
    seconds: f64,
    traced: bool,
    out: &mut Outcome,
) -> Vec<ThreadsJob> {
    let start = Instant::now();
    let mut jobs = Vec::new();
    loop {
        let sink = traced.then(|| layers::training_sink(job));
        let (timing, run) = run_threads_job(job, sink.clone());
        out.attempted += job.iters as u64;
        if let Some(e) = &run.error {
            eprintln!("train_threads job failed: {e}");
            out.failed += job.iters as u64;
        } else {
            out.failed += (0..job.iters)
                .filter(|&i| {
                    run.log.losses.get(i).map(|l| l.to_bits()) != reference.get(i).copied()
                })
                .count() as u64;
        }
        let job_s = timing.wall_s;
        jobs.push(ThreadsJob {
            timing,
            log: run.log,
            sink,
        });
        if start.elapsed().as_secs_f64() + job_s > seconds {
            return jobs;
        }
    }
}

/// Report the end-to-end training metrics for a set of jobs.
fn report_training(out: &mut Outcome, job: &JobSpec, timings: &[JobTiming], rss_mib: f64) {
    let setups: Vec<f64> = timings.iter().map(|t| t.setup_s).collect();
    let iters: Vec<f64> = timings.iter().flat_map(|t| t.iter_s.clone()).collect();
    let busy: f64 = iters.iter().sum();
    let tokens_per_sec = tokens_per_iter(job) * iters.len() as f64 / busy.max(1e-12);
    out.push("setup_s", median(&setups), "s");
    out.push("op_p50_s", median(&iters), "s");
    out.push("work_per_sec", tokens_per_sec, "1/s");
    out.note("iter_p50_s", median(&iters), "s");
    out.note("iter_samples", iters.len() as f64, "count");
    out.note("train_tokens_per_sec", tokens_per_sec, "1/s");
    out.note("peak_rss_mib", rss_mib, "MiB");
    out.note_fail_frac();
}

/// `train_threads`: the seed picks one of the recorded data streams.
pub fn threads(run: &Run, spans: &mut Spans, scratch: &Path) -> Result<Outcome, String> {
    let stream = run.seed % THREADS_STREAMS;
    let job = threads_job(stream);
    let reference = &crate::reference::THREADS_LOSS_BITS[stream as usize];
    let mut out = Outcome::default();
    println!(
        "train_threads: (2,2,2) 1F1B b=1, h=128 L=4 s=64 V=256 B=16, {} iterations per job, stream {stream}",
        job.iters
    );
    let p50 = |js: &[ThreadsJob]| {
        median(
            &js.iter()
                .flat_map(|j| j.timing.iter_s.clone())
                .collect::<Vec<_>>(),
        )
    };
    if !run.trace {
        let jobs = threads_loop(&job, reference, run.seconds, false, &mut out);
        out.correct = out.failed == 0;
        let timings: Vec<JobTiming> = jobs.iter().map(|j| j.timing.clone()).collect();
        report_training(&mut out, &job, &timings, util::own_peak_rss_mib());
        return Ok(out);
    }
    // Traced pass: half the budget untraced, half with the program's
    // telemetry sink on; the last traced job also feeds the dist layer.
    let plain = spans.span("train_threads.untraced", |_| {
        threads_loop(&job, reference, run.seconds / 2.0, false, &mut out)
    });
    let traced = spans.span("train_threads.traced", |_| {
        threads_loop(&job, reference, run.seconds / 2.0, true, &mut out)
    });
    let overhead = p50(&traced) / p50(&plain) - 1.0;
    let last = traced.last().expect("at least one traced job");
    let sink = last.sink.as_ref().expect("traced jobs carry a sink");
    let ok = layers::suite(
        spans,
        &mut out,
        layers::Given {
            seed: run.seed,
            overhead_frac: overhead,
            training: Some((&job, sink, &last.log, median(&last.timing.iter_s))),
        },
        scratch,
    )?;
    out.correct = out.failed == 0 && ok;
    Ok(out)
}

/// One finished process-mode job.
pub struct ProcJob {
    pub timing: JobTiming,
    /// `launch_configured` call (spawning the rank processes).
    pub launch_s: f64,
    /// Until every rank has published its listener address.
    pub rendezvous_s: f64,
    /// From the last iteration's end until every rank is reaped.
    pub teardown_s: f64,
    /// Peak resident set summed over the rank processes.
    pub rss_mib: f64,
    /// Generations the launcher committed.
    pub committed: Vec<usize>,
    pub outcome: megatron_dist::ProcOutcome,
    /// The ranks' Chrome traces merged into one, when the job traced.
    pub trace: Option<String>,
}

/// Launch `job` as `world` processes under `dir`, committing durable
/// generations from the launcher side and stamping progress beats.
pub fn run_procs_job(job: &JobSpec, dir: &Path) -> Result<ProcJob, String> {
    let spec = job.spec();
    let world = job.world();
    let ckpt = dir.join("ckpt");
    let rdv = dir.join("rdv");
    let io = |e: std::io::Error| format!("launch under {}: {e}", dir.display());
    let store = CheckpointStore::open(&ckpt).map_err(|e| e.to_string())?;
    let t0 = Instant::now();
    let handle = launch_configured(job, &rdv, Some(&ckpt), None).map_err(io)?;
    let launch_s = t0.elapsed().as_secs_f64();
    let pids: Vec<u32> = (0..world).filter_map(|r| handle.pid(r)).collect();
    let mut rss = vec![0.0f64; world];
    let mut done: Vec<Instant> = Vec::new();
    let mut rendezvous_s = None;
    let mut committed = Vec::new();
    let deadline = t0 + Duration::from_secs(150);
    let mut polls = 0u64;
    loop {
        std::thread::sleep(Duration::from_millis(2));
        polls += 1;
        let now = Instant::now();
        while done.len() < handle.min_progress() {
            done.push(now);
        }
        if rendezvous_s.is_none()
            && (0..world).all(|r| rdv.join(format!("rank-{r}.addr")).is_file())
        {
            rendezvous_s = Some((now - t0).as_secs_f64());
        }
        if polls.is_multiple_of(10) {
            committed.extend(
                store
                    .commit_complete_generations(&spec, job.model)
                    .map_err(|e| e.to_string())?,
            );
            for (slot, pid) in rss.iter_mut().zip(&pids) {
                if let Some(m) = util::peak_rss_mib(*pid) {
                    *slot = slot.max(m);
                }
            }
        }
        let exits = handle.poll_exits();
        if exits.iter().all(Option::is_some) {
            // The last progress beats may still be in flight.
            let grace = Instant::now() + Duration::from_millis(200);
            while done.len() < job.iters && Instant::now() < grace {
                std::thread::sleep(Duration::from_millis(1));
                while done.len() < handle.min_progress() {
                    done.push(Instant::now());
                }
            }
            break;
        }
        if now > deadline {
            handle.kill_all();
            return Err("process job did not finish within 150 s".to_string());
        }
    }
    let outcome = handle.wait_within(Duration::from_secs(10));
    let end = Instant::now();
    committed.extend(
        store
            .commit_complete_generations(&spec, job.model)
            .map_err(|e| e.to_string())?,
    );
    let teardown_s = done.last().map_or(0.0, |d| (end - *d).as_secs_f64());
    let trace = if job.trace {
        let parts: Vec<String> = (0..world)
            .filter_map(|r| std::fs::read_to_string(rdv.join(format!("rank-{r}.trace.json"))).ok())
            .collect();
        Some(megatron_telemetry::merge_chrome_traces(
            parts.iter().map(String::as_str),
        )?)
    } else {
        None
    };
    Ok(ProcJob {
        timing: timing(t0, &done, end),
        launch_s,
        rendezvous_s: rendezvous_s.unwrap_or(0.0),
        teardown_s,
        rss_mib: rss.iter().sum(),
        committed,
        outcome,
        trace,
    })
}

/// Every rank's final parameters are bit-identical to the in-process run.
pub fn params_match(reference: &TrainLog, outcome: &megatron_dist::ProcOutcome) -> bool {
    reference.final_params.iter().all(|(key, want)| {
        outcome.outputs.get(key).is_some_and(|o| {
            o.params.len() == want.len()
                && o.params
                    .iter()
                    .zip(want)
                    .all(|(a, b)| a.to_bits() == b.to_bits())
        })
    })
}

/// Compare a process run with the in-process run of the same job: the
/// iterations whose loss bits differ, plus every iteration if any rank's
/// final parameters differ in a single bit.
pub fn procs_mismatches(job: &JobSpec, run: &ProcJob, reference: &TrainLog) -> u64 {
    if !run.outcome.ok() {
        eprintln!(
            "process job failed: exits {:?}, missing {:?}",
            run.outcome.exits, run.outcome.missing
        );
        return job.iters as u64;
    }
    if !params_match(reference, &run.outcome) {
        eprintln!("process job's final parameters differ from the in-process run");
        return job.iters as u64;
    }
    let expected: Vec<usize> = (1..=job.iters / job.checkpoint_every.max(1))
        .map(|k| k * job.checkpoint_every)
        .collect();
    if job.checkpoint_every > 0 && run.committed != expected {
        eprintln!(
            "committed generations {:?}, expected {expected:?}",
            run.committed
        );
        return job.iters as u64;
    }
    (0..job.iters)
        .filter(|&i| {
            run.outcome.losses.get(i).map(|l| l.to_bits())
                != reference.losses.get(i).map(|l| l.to_bits())
        })
        .count() as u64
}

/// The untimed in-process twin of a process-mode job, snapshotting its
/// final state in memory (which does not change the numerics).
pub fn in_process_reference(job: &JobSpec) -> Result<TrainOutcome, String> {
    let out = PtdpTrainer::new(job.master(), job.spec()).train_with(
        &job.dataset(),
        RunControl {
            checkpoint_every: Some(job.iters),
            ..Default::default()
        },
    );
    match &out.error {
        Some(e) => Err(format!("in-process reference run failed: {e}")),
        None => Ok(out),
    }
}

/// `train_procs`: jobs launched back to back until the budget is spent.
pub fn procs(run: &Run, spans: &mut Spans, scratch: &Path) -> Result<Outcome, String> {
    let mut job = procs_job(run.seed);
    println!(
        "train_procs: (2,2,2) as 8 UDS processes, h=32 L=4 s=16 V=256 B=32, {} iterations per job, checkpoint every {}",
        job.iters, job.checkpoint_every
    );
    let reference = spans
        .span("train_procs.reference", |_| in_process_reference(&job))?
        .log;
    let mut out = Outcome::default();
    let budget = if run.trace {
        run.seconds / 2.0
    } else {
        run.seconds
    };
    let proc_loop = |job: &JobSpec, out: &mut Outcome, tag: &str| -> Result<Vec<ProcJob>, String> {
        let start = Instant::now();
        let mut jobs = Vec::new();
        loop {
            let dir = scratch.join(format!("{tag}-{}", jobs.len()));
            let r = run_procs_job(job, &dir)?;
            let _ = std::fs::remove_dir_all(&dir);
            out.attempted += job.iters as u64;
            out.failed += procs_mismatches(job, &r, &reference);
            let wall = r.timing.wall_s;
            jobs.push(r);
            if start.elapsed().as_secs_f64() + wall > budget {
                return Ok(jobs);
            }
        }
    };
    let plain = spans.span("train_procs.untraced", |_| {
        proc_loop(&job, &mut out, "plain")
    })?;
    let timings: Vec<JobTiming> = plain.iter().map(|j| j.timing.clone()).collect();
    let rss = median(&plain.iter().map(|j| j.rss_mib).collect::<Vec<_>>());
    if !run.trace {
        out.correct = out.failed == 0;
        report_training(&mut out, &job, &timings, rss);
        return Ok(out);
    }
    job.trace = true;
    let traced = spans.span("train_procs.traced", |_| {
        proc_loop(&job, &mut out, "traced")
    })?;
    let p50 = |js: &[ProcJob]| {
        median(
            &js.iter()
                .flat_map(|j| j.timing.iter_s.clone())
                .collect::<Vec<_>>(),
        )
    };
    let overhead = p50(&traced) / p50(&plain) - 1.0;
    if let Some(trace) = traced.last().and_then(|j| j.trace.clone()) {
        spans.attach_program_trace("train_procs", trace);
    }
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

/// Print the recorded `train_threads` reference losses as Rust source.
pub fn print_reference() {
    println!("/// Per-iteration loss bit patterns of `train_threads`, one row per data stream.");
    println!("pub const THREADS_LOSS_BITS: [[u32; {THREADS_ITERS}]; {THREADS_STREAMS}] = [");
    for stream in 0..THREADS_STREAMS {
        let job = threads_job(stream);
        let (_, out) = run_threads_job(&job, None);
        if let Some(e) = out.error {
            panic!("reference run of stream {stream} failed: {e}");
        }
        let bits: Vec<String> = out
            .log
            .losses
            .iter()
            .map(|l| format!("0x{:08x}", l.to_bits()))
            .collect();
        println!("    [{}],", bits.join(", "));
    }
    println!("];");
}
