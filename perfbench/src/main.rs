//! Seeded benchmark of the PTD-P workspace: four workloads, one command.
//!
//! ```text
//! perfbench --workload <train_threads|train_procs|serve_decode|plan_sweep>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every run builds its inputs from `--seed`, measures for `--seconds`,
//! checks the program's outputs and prints one JSON result object as the
//! last line of standard output. `--trace 0` reports the end-to-end
//! metrics (no tracing anywhere); `--trace 1` runs the traced pass and
//! reports the per-layer metrics, writing the spans to
//! `.bench_out/trace-<workload>-seed<n>.json`. See `README.md`.

mod layers;
mod plan;
mod reference;
mod serve;
mod train;
mod util;

use std::process::ExitCode;

use util::{Outcome, Run, Spans};

const USAGE: &str =
    "usage: perfbench --workload <train_threads|train_procs|serve_decode|plan_sweep> \
--seed <n> --seconds <s> --trace <0|1>
       perfbench --print-reference <train_threads|serve_decode|plan_sweep>";

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = ["train_threads", "train_procs", "serve_decode", "plan_sweep"];

fn parse_args(args: &[String]) -> Result<Run, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        let bad = || format!("bad value '{value}' for {flag}\n{USAGE}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad());
                }
                workload = Some(value.clone());
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag '{flag}'\n{USAGE}")),
        }
    }
    Ok(Run {
        workload: workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn run(run: &Run) -> Result<Outcome, String> {
    let mut spans = Spans::new(run.trace);
    let out_dir = util::out_dir()?;
    let scratch = out_dir.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let result = match run.workload.as_str() {
        "train_threads" => train::threads(run, &mut spans, &scratch),
        "train_procs" => train::procs(run, &mut spans, &scratch),
        "serve_decode" => serve::decode(run, &mut spans, &scratch),
        "plan_sweep" => plan::sweep_workload(run, &mut spans, &scratch),
        other => Err(format!("unknown workload '{other}'")),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let outcome = result?;
    if run.trace {
        let path = out_dir.join(format!("trace-{}-seed{}.json", run.workload, run.seed));
        spans.write(&path, &outcome)?;
        println!("spans written to {}", path.display());
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    // Process-mode rank workers re-exec this binary; they must divert
    // before anything else runs.
    megatron_dist::proc::maybe_worker();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("--print-reference") {
        return match args.get(1).map(String::as_str) {
            Some("train_threads") => {
                train::print_reference();
                ExitCode::SUCCESS
            }
            Some("serve_decode") => {
                serve::print_reference();
                ExitCode::SUCCESS
            }
            Some("plan_sweep") => {
                plan::print_reference();
                ExitCode::SUCCESS
            }
            _ => {
                eprintln!("{USAGE}");
                ExitCode::from(2)
            }
        };
    }
    let parsed = match parse_args(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&parsed) {
        Ok(outcome) => match outcome.result_line() {
            Ok(line) => {
                println!("{line}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        },
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
