//! Shared plumbing: run arguments, the result line, the benchmark's own
//! span recorder, order statistics, digests and memory readings.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use megatron_sim::json::Json;

/// One invocation's arguments.
pub struct Run {
    /// Workload name (one of [`crate::WORKLOADS`]).
    pub workload: String,
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Traced pass (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run reports: output-check verdict, operation counts, metrics.
#[derive(Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (iterations, requests or plans).
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    /// Add a metric and echo it as a human-readable line.
    pub fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        println!("{name:<32} {value:>16.6} {unit}");
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Echo a workload-specific metric the result line does not carry.
    pub fn note(&self, name: &str, value: f64, unit: &str) {
        println!("{name:<32} {value:>16.6} {unit}");
    }

    /// The single JSON result line. Refuses non-finite values rather than
    /// printing something the reader cannot parse.
    pub fn result_line(&self) -> Result<String, String> {
        let mut metrics = BTreeMap::new();
        for m in &self.metrics {
            if !m.value.is_finite() {
                return Err(format!("metric {} is not finite ({})", m.name, m.value));
            }
            metrics.insert(
                m.name.clone(),
                Json::obj([("value", Json::Num(m.value)), ("unit", Json::from(m.unit))]),
            );
        }
        Ok(Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::Obj(metrics)),
        ])
        .to_string())
    }

    /// Print the fraction of failed operations (the result line carries
    /// the two counts it is made of).
    pub fn note_fail_frac(&self) {
        self.note(
            "fail_frac",
            self.failed as f64 / self.attempted.max(1) as f64,
            "frac",
        );
    }
}

struct SpanRec {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// The benchmark's own span recorder: spans around calls into the
/// program's public functions, kept in memory and written when the run
/// ends. Disabled (a branch per call) on the untraced pass.
pub struct Spans {
    on: bool,
    t0: Instant,
    recs: Vec<SpanRec>,
    stack: Vec<usize>,
    program_traces: Vec<(String, String)>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            t0: Instant::now(),
            recs: Vec::new(),
            stack: Vec::new(),
            program_traces: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, nested under the innermost
    /// open span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.recs.len();
        self.recs.push(SpanRec {
            name: name.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.recs[id].end_ns = self.now_ns();
        out
    }

    /// Keep a Chrome trace the program's own telemetry sink produced.
    pub fn attach_program_trace(&mut self, name: &str, chrome_json: String) {
        if self.on {
            self.program_traces.push((name.to_string(), chrome_json));
        }
    }

    /// Write spans, program traces and the per-layer metrics as one JSON
    /// document.
    pub fn write(&self, path: &Path, outcome: &Outcome) -> Result<(), String> {
        let spans = self
            .recs
            .iter()
            .enumerate()
            .map(|(id, r)| {
                Json::obj([
                    ("id", Json::from(id)),
                    ("name", Json::from(r.name.as_str())),
                    ("start_us", Json::Num(r.start_ns as f64 / 1e3)),
                    ("end_us", Json::Num(r.end_ns as f64 / 1e3)),
                    ("parent", r.parent.map_or(Json::Null, Json::from)),
                ])
            })
            .collect();
        let metrics = outcome
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", Json::Num(m.value)), ("unit", Json::from(m.unit))]),
                )
            })
            .collect();
        let mut programs = BTreeMap::new();
        for (name, text) in &self.program_traces {
            let parsed = Json::parse(text).map_err(|e| format!("program trace {name}: {e}"))?;
            programs.insert(name.clone(), parsed);
        }
        let doc = Json::obj([
            ("spans", Json::Arr(spans)),
            ("metrics", Json::Obj(metrics)),
            ("program_traces", Json::Obj(programs)),
        ]);
        std::fs::write(path, doc.to_string()).map_err(|e| format!("{}: {e}", path.display()))
    }
}

/// `.bench_out/` under the working directory (the checkout root). Kept
/// relative: Unix-domain socket paths under it must stay within the
/// kernel's 108-byte limit wherever the checkout lives.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// FNV-1a over a byte stream: the digest of a run's outputs.
#[derive(Clone, Copy)]
pub struct Digest(pub u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Median of unsorted samples (0 for none).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Linear-interpolated quantile of unsorted samples (0 for none).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    megatron_sim::serving::percentile(&v, q)
}

/// Peak resident set (`VmHWM`) of a process in MiB, if readable.
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set of this process in MiB.
pub fn own_peak_rss_mib() -> f64 {
    peak_rss_mib(std::process::id()).unwrap_or(0.0)
}
