//! **Process mode**: run a `(p, t, d)` job as `p·t·d` real OS processes
//! over the socket transport (Unix-domain by default, TCP loopback on
//! request) instead of `p·t·d` threads over in-process mailboxes.
//!
//! The launcher ([`launch`]) forks/execs one worker per flat rank
//! (re-invoking the current executable with `--proc-worker <dir> <rank>`),
//! after writing the serialized [`JobSpec`] and its own heartbeat address
//! into a rendezvous directory. Each worker binds its own
//! [`SocketNode`], publishes `rank-R.addr` / `rank-R.pid` files
//! (atomically: write-temp + rename), waits for every peer's address, and
//! then runs the *unmodified* per-thread training loop
//! ([`run_thread`](crate::trainer)) — its tensor and data groups are
//! process-mode [`Group`]s over [`SocketChannel`]s, and its pipeline
//! endpoints are fed by pump threads that bridge socket frames to the
//! `mpsc` channels the worker already speaks.
//!
//! Determinism is the whole point: the collectives execute the exact same
//! step programs with the exact same chunk routing as the mailbox
//! transport, and the p2p pumps forward activations byte-for-byte, so an
//! N-process run produces **bit-identical** losses, final parameters, and
//! per-rank byte counts to the in-process run (proven in
//! `tests/process_mode.rs`). Results cross the process boundary through
//! `rank-R.out.json` files that encode every `f32` as its `u32` bit
//! pattern — no decimal round-trip.
//!
//! ## Channel-id map
//!
//! Every logical communicator gets a stable channel id, so one listener
//! per process serves all of them:
//!
//! | id | communicator |
//! |----|--------------|
//! | `1000 + pi·d + di` | tensor group of `(pi, di)`, members `ti ∈ 0..t` |
//! | `2000 + pi·t + ti` | data group of `(pi, ti)`, members `di ∈ 0..d` |
//! | `3000 + 2·s + dir` | pipeline boundary `s` lane (2 ranks: sender 0, receiver 1) |
//! | `4000` | heartbeats (`world + 1` ranks; the launcher is rank `world`) |
//!
//! ## Failure semantics
//!
//! A dead peer *process* cannot be poisoned (no shared memory), so every
//! stall surfaces as [`CommError::Timeout`](crate::comm::CommError) after
//! the group timeout — with the peer's **pid and socket address** attached
//! to the [`StallContext`](crate::comm::StallContext). Pipeline pumps use
//! the same convention: a receive pump that sees no frame for the comm
//! timeout assumes its stage neighbor died and hangs up, which the worker
//! observes as `PipelineBroken`. Liveness is tracked out-of-band: each
//! worker runs a beacon thread that sends a 1-element heartbeat frame to
//! the launcher every [`JobSpec::hb_period`], and the per-iteration
//! [`RunControl::on_beat`](crate::trainer::RunControl) hook beats too, so
//! the launcher's [`HealthMonitor`] classifies a SIGKILLed rank as dead
//! while stalled survivors keep beating.

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel as unbounded, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use megatron_collective::{SocketChannel, SocketNode, WireAddr};
use megatron_schedule::ScheduleKind;
use megatron_sim::json::Json;
use megatron_tensor::gpt::{GptModel, TinyGptConfig};
use megatron_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::checkpoint::CheckpointStore;
use crate::comm::{CommVolume, Group, TransportConfig, WireKind};
use crate::health::HealthMonitor;
use crate::supervisor::{CapacityEvent, Reconfiguration, ReconfigureDirection};
use crate::trainer::{
    classify_panic, run_thread, Endpoints, PtdpSpec, RankCommOps, RankCommVolume, RunControl,
    SharedMap, StepSample, ThreadArgs, ThreadKey, ThreadState,
};

const TENSOR_CHAN_BASE: u64 = 1000;
const DATA_CHAN_BASE: u64 = 2000;
const P2P_CHAN_BASE: u64 = 3000;
const HEARTBEAT_CHAN: u64 = 4000;

/// How long a worker waits for every peer's address file to appear.
const RENDEZVOUS_TIMEOUT: Duration = Duration::from_secs(30);

/// A self-contained, serializable description of one process-mode job:
/// the parallelization plan plus everything each worker needs to rebuild
/// identical inputs — model architecture, init/data seeds, batch size and
/// iteration count — so no tensor ever crosses the process boundary at
/// startup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobSpec {
    /// Pipeline-parallel size `p`.
    pub pipeline: usize,
    /// Tensor-parallel size `t`.
    pub tensor: usize,
    /// Data-parallel size `d`.
    pub data: usize,
    /// Model chunks per device `v`.
    pub chunks: usize,
    /// Microbatch size `b`.
    pub microbatch: usize,
    /// Pipeline schedule.
    pub schedule: ScheduleKind,
    /// Adam learning rate.
    pub lr: f32,
    /// ZeRO-1 optimizer sharding.
    pub shard_optimizer: bool,
    /// §3.5 activation recomputation.
    pub recompute: bool,
    /// Vocab-parallel embedding + LM head.
    pub vocab_parallel: bool,
    /// Collective (and pipeline-pump) timeout.
    pub comm_timeout: Duration,
    /// Model architecture; every worker rebuilds the same master.
    pub model: TinyGptConfig,
    /// Seed for master-weight initialization.
    pub model_seed: u64,
    /// Seed for the synthetic token stream.
    pub data_seed: u64,
    /// Global batch size (samples per iteration).
    pub batch: usize,
    /// Training iterations.
    pub iters: usize,
    /// Socket flavor: must be [`WireKind::Uds`] or [`WireKind::Tcp`].
    pub wire: WireKind,
    /// Arm the reliable retry layer on every group.
    pub retry: bool,
    /// Write a per-rank Chrome trace (`rank-R.trace.json`).
    pub trace: bool,
    /// Heartbeat beacon period.
    pub hb_period: Duration,
    /// Durable checkpoint cadence in iterations (0 = no checkpointing).
    /// Workers write their own shards; the launcher commits complete
    /// generations (see [`CheckpointStore::commit_complete_generations`]).
    pub checkpoint_every: usize,
    /// Restore from this durable generation before training (0 = fresh
    /// start). The launcher pins the generation — rather than letting each
    /// worker pick "latest" independently — so every rank of a respawned
    /// attempt restores the *same* state even if a newer generation
    /// commits concurrently.
    pub resume_from: usize,
    /// Incident epoch stamped into step samples and telemetry (attempt
    /// number − 1 under the supervisor; 0 for a plain launch).
    pub epoch: usize,
}

impl JobSpec {
    /// The canonical seeded tiny job (the same model, seeds, batch, and
    /// iteration count as `tests/real_vs_sim_bytes.rs`), over UDS.
    pub fn canonical(pipeline: usize, tensor: usize, data: usize) -> JobSpec {
        let spec = PtdpSpec::new(pipeline, tensor, data);
        JobSpec {
            pipeline,
            tensor,
            data,
            chunks: spec.chunks,
            microbatch: spec.microbatch,
            schedule: spec.schedule,
            lr: spec.lr,
            shard_optimizer: spec.shard_optimizer,
            recompute: spec.recompute,
            vocab_parallel: spec.vocab_parallel,
            comm_timeout: spec.comm_timeout,
            model: TinyGptConfig {
                vocab: 13,
                seq: 6,
                hidden: 8,
                heads: 4,
                layers: 2,
            },
            model_seed: 7,
            data_seed: 11,
            batch: 8,
            iters: 2,
            wire: WireKind::Uds,
            retry: false,
            trace: false,
            hb_period: Duration::from_millis(25),
            checkpoint_every: 0,
            resume_from: 0,
            epoch: 0,
        }
    }

    /// The equivalent in-process parallelization plan.
    pub fn spec(&self) -> PtdpSpec {
        let mut s = PtdpSpec::new(self.pipeline, self.tensor, self.data);
        s.chunks = self.chunks;
        s.microbatch = self.microbatch;
        s.schedule = self.schedule;
        s.lr = self.lr;
        s.shard_optimizer = self.shard_optimizer;
        s.recompute = self.recompute;
        s.vocab_parallel = self.vocab_parallel;
        s.comm_timeout = self.comm_timeout;
        s
    }

    /// Total worker processes.
    pub fn world(&self) -> usize {
        self.pipeline * self.tensor * self.data
    }

    /// Rebuild the master model every worker starts from.
    pub fn master(&self) -> GptModel {
        let mut rng = StdRng::seed_from_u64(self.model_seed);
        GptModel::new(self.model, &mut rng)
    }

    /// Rebuild the synthetic dataset (identical in every process).
    pub fn dataset(&self) -> Vec<(Vec<usize>, Vec<usize>)> {
        let mut rng = StdRng::seed_from_u64(self.data_seed);
        (0..self.iters)
            .map(|_| {
                let toks: Vec<usize> = (0..self.batch * self.model.seq)
                    .map(|_| rng.gen_range(0..self.model.vocab))
                    .collect();
                let tgts: Vec<usize> = (0..self.batch * self.model.seq)
                    .map(|_| rng.gen_range(0..self.model.vocab))
                    .collect();
                (toks, tgts)
            })
            .collect()
    }

    /// The transport config every worker arms its groups with.
    pub fn transport(&self) -> TransportConfig {
        TransportConfig {
            wire: self.wire,
            retry: self.retry.then(Default::default),
            faults: None,
        }
    }

    /// Serialize to the `job.json` wire form. `f32` fields travel as
    /// their `u32` bit patterns and the `u64` seeds as decimal strings, so
    /// the round trip is exact.
    pub fn to_json(&self) -> String {
        let n = |x: usize| Json::Num(x as f64);
        let schedule = match self.schedule {
            ScheduleKind::GPipe => "gpipe".to_string(),
            ScheduleKind::OneFOneB => "1f1b".to_string(),
            ScheduleKind::Interleaved { chunks } => format!("interleaved:{chunks}"),
        };
        Json::obj([
            ("p", n(self.pipeline)),
            ("t", n(self.tensor)),
            ("d", n(self.data)),
            ("chunks", n(self.chunks)),
            ("microbatch", n(self.microbatch)),
            ("schedule", Json::Str(schedule)),
            ("lr_bits", Json::Num(self.lr.to_bits() as f64)),
            ("shard_optimizer", Json::Bool(self.shard_optimizer)),
            ("recompute", Json::Bool(self.recompute)),
            ("vocab_parallel", Json::Bool(self.vocab_parallel)),
            (
                "comm_timeout_ms",
                Json::Num(self.comm_timeout.as_millis() as f64),
            ),
            ("vocab", n(self.model.vocab)),
            ("seq", n(self.model.seq)),
            ("hidden", n(self.model.hidden)),
            ("heads", n(self.model.heads)),
            ("layers", n(self.model.layers)),
            ("model_seed", Json::Str(self.model_seed.to_string())),
            ("data_seed", Json::Str(self.data_seed.to_string())),
            ("batch", n(self.batch)),
            ("iters", n(self.iters)),
            (
                "wire",
                Json::Str(
                    match self.wire {
                        WireKind::Mailbox => "mailbox",
                        WireKind::Uds => "uds",
                        WireKind::Tcp => "tcp",
                    }
                    .to_string(),
                ),
            ),
            ("retry", Json::Bool(self.retry)),
            ("trace", Json::Bool(self.trace)),
            ("hb_period_ms", Json::Num(self.hb_period.as_millis() as f64)),
            ("checkpoint_every", n(self.checkpoint_every)),
            ("resume_from", n(self.resume_from)),
            ("epoch", n(self.epoch)),
        ])
        .to_string()
    }

    /// Parse the `job.json` wire form. Integer fields must be whole,
    /// non-negative and in range; anything else (a negative, fractional,
    /// non-finite or overflowing value) is an error, never a silent 0 or a
    /// saturated cast. Seeds may be numbers, as older files wrote them, or
    /// decimal strings.
    pub fn from_json(text: &str) -> Result<JobSpec, String> {
        let j = Json::parse(text).map_err(|e| e.to_string())?;
        let field = |k: &str| uint_field(&j, k).map_err(|e| format!("job.json: {e}"));
        let us = |k: &str| -> Result<usize, String> {
            field(k)?.ok_or_else(|| format!("job.json: missing numeric field `{k}`"))
        };
        // Fields added after PR 9 default to zero so older job.json files
        // (and hand-written ones) still parse.
        let us0 = |k: &str| -> Result<usize, String> { Ok(field(k)?.unwrap_or(0)) };
        let millis =
            |k: &str| -> Result<Duration, String> { Ok(Duration::from_millis(us(k)? as u64)) };
        let b = |k: &str| matches!(j.get(k), Json::Bool(true));
        let schedule = match j.get("schedule").as_str().unwrap_or("1f1b") {
            "gpipe" => ScheduleKind::GPipe,
            s if s.starts_with("interleaved:") => ScheduleKind::Interleaved {
                chunks: s["interleaved:".len()..]
                    .parse()
                    .map_err(|_| format!("job.json: bad schedule `{s}`"))?,
            },
            _ => ScheduleKind::OneFOneB,
        };
        let wire = match j.get("wire").as_str().unwrap_or("uds") {
            "tcp" => WireKind::Tcp,
            "mailbox" => WireKind::Mailbox,
            _ => WireKind::Uds,
        };
        Ok(JobSpec {
            pipeline: us("p")?,
            tensor: us("t")?,
            data: us("d")?,
            chunks: us("chunks")?,
            microbatch: us("microbatch")?,
            schedule,
            lr: f32::from_bits(
                u32::try_from(us("lr_bits")?)
                    .map_err(|_| "job.json: field `lr_bits` exceeds 32 bits".to_string())?,
            ),
            shard_optimizer: b("shard_optimizer"),
            recompute: b("recompute"),
            vocab_parallel: b("vocab_parallel"),
            comm_timeout: millis("comm_timeout_ms")?,
            model: TinyGptConfig {
                vocab: us("vocab")?,
                seq: us("seq")?,
                hidden: us("hidden")?,
                heads: us("heads")?,
                layers: us("layers")?,
            },
            model_seed: seed_field(&j, "model_seed")?,
            data_seed: seed_field(&j, "data_seed")?,
            batch: us("batch")?,
            iters: us("iters")?,
            wire,
            retry: b("retry"),
            trace: b("trace"),
            hb_period: millis("hb_period_ms")?,
            checkpoint_every: us0("checkpoint_every")?,
            resume_from: us0("resume_from")?,
            epoch: us0("epoch")?,
        })
    }
}

/// An integer field of a rendezvous JSON file as a `usize`: `None` when
/// absent, an error unless it is a whole, non-negative number that f64
/// holds exactly and `usize` can hold.
fn uint_field(j: &Json, k: &str) -> Result<Option<usize>, String> {
    const EXACT: f64 = (1u64 << 53) as f64;
    match *j.get(k) {
        Json::Null => Ok(None),
        Json::Num(v) if v.fract() == 0.0 && (0.0..=EXACT).contains(&v) => usize::try_from(v as u64)
            .map(Some)
            .map_err(|_| format!("field `{k}` = {v} overflows usize")),
        ref other => Err(format!(
            "field `{k}` must be a non-negative integer, got {other}"
        )),
    }
}

/// A `u64` seed: a decimal string (exact over the full range), or a number
/// below 2^53 as written before seeds became strings.
fn seed_field(j: &Json, k: &str) -> Result<u64, String> {
    if let Json::Str(s) = j.get(k) {
        return s
            .parse()
            .map_err(|_| format!("job.json: field `{k}` is not a u64: `{s}`"));
    }
    let v = uint_field(j, k)
        .map_err(|e| format!("job.json: {e}"))?
        .ok_or_else(|| format!("job.json: missing numeric field `{k}`"))?;
    Ok(v as u64)
}

// ---------------------------------------------------------------------------
// Socket fault plan
// ---------------------------------------------------------------------------

/// Which of a rank's group channels a socket fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultChan {
    /// The rank's tensor-parallel group channel.
    Tensor,
    /// The rank's data-parallel group channel.
    Data,
}

/// One launcher-injected socket-level fault, executed by the worker it
/// names before training starts. Severs and slowdowns act on the rank's
/// outbound connection toward its next ring neighbor in the chosen group
/// (the edge every ring collective uses each iteration), so the fault is
/// guaranteed to sit on a live traffic path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketFault {
    /// Cut the connection mid-frame once `after_bytes` cumulative payload
    /// bytes have been written. `lossy` drops the severed frame cold —
    /// recovery is then entirely the reliable layer + replay log's job —
    /// while `!lossy` has the socket layer resend it whole.
    Sever {
        /// Flat rank whose outbound connection is cut.
        rank: usize,
        /// Group channel carrying the fault.
        chan: FaultChan,
        /// Payload bytes before the cut.
        after_bytes: u64,
        /// Genuinely lose the severed frame?
        lossy: bool,
    },
    /// Delay the rank's listener bind (and address publish) by `delay_ms`:
    /// every peer that dials early is refused and must retry, exercising
    /// the connect-retry path from the other side of the pipe.
    Refuse {
        /// Flat rank whose listener comes up late.
        rank: usize,
        /// Milliseconds of bind delay.
        delay_ms: u64,
    },
    /// Slow every frame the rank sends on `chan` by `delay_us` — a
    /// degraded link the health monitor should classify as Slow, not
    /// Dead.
    Slow {
        /// Flat rank with the degraded link.
        rank: usize,
        /// Group channel carrying the fault.
        chan: FaultChan,
        /// Per-frame send delay in microseconds.
        delay_us: u64,
    },
}

/// A seeded schedule of socket faults for one process-mode job, written
/// by the launcher as `faults.json` and read by every worker at startup
/// (each applies only the entries naming its own rank). The process-mode
/// analog of `TransientFaults`: these are *wire* faults — broken pipes,
/// refused connections, slow links — across real address spaces.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SocketFaultPlan {
    /// The faults, in no particular order.
    pub faults: Vec<SocketFault>,
}

impl SocketFaultPlan {
    /// A deterministic plan for a world of `world` ranks: one lossy
    /// mid-frame sever, one refused-connection startup delay, and one
    /// slow link, on ranks drawn from `seed`. The sever's byte offset is
    /// drawn so it lands inside the first few iterations' traffic.
    pub fn seeded(seed: u64, world: usize) -> SocketFaultPlan {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x50c4_e7fa);
        let mut pick = |exclude: &[usize]| loop {
            let r = rng.gen_range(0..world);
            if !exclude.contains(&r) {
                return r;
            }
        };
        let a = pick(&[]);
        let b = pick(&[a]);
        let c = pick(&[a, b]);
        let after_bytes = rng.gen_range(100..600);
        let faults = vec![
            SocketFault::Sever {
                rank: a,
                chan: FaultChan::Tensor,
                after_bytes,
                lossy: true,
            },
            SocketFault::Refuse {
                rank: b,
                delay_ms: rng.gen_range(20..120),
            },
            SocketFault::Slow {
                rank: c,
                chan: FaultChan::Data,
                delay_us: rng.gen_range(100..800),
            },
        ];
        SocketFaultPlan { faults }
    }

    /// The entries that name `rank`.
    pub fn for_rank(&self, rank: usize) -> Vec<SocketFault> {
        self.faults
            .iter()
            .copied()
            .filter(|f| match f {
                SocketFault::Sever { rank: r, .. }
                | SocketFault::Refuse { rank: r, .. }
                | SocketFault::Slow { rank: r, .. } => *r == rank,
            })
            .collect()
    }

    /// Serialize to the `faults.json` wire form.
    pub fn to_json(&self) -> String {
        let chan = |c: FaultChan| {
            Json::Str(
                match c {
                    FaultChan::Tensor => "tensor",
                    FaultChan::Data => "data",
                }
                .to_string(),
            )
        };
        let n = |x: u64| Json::Num(x as f64);
        Json::obj([(
            "faults",
            Json::Arr(
                self.faults
                    .iter()
                    .map(|f| match *f {
                        SocketFault::Sever {
                            rank,
                            chan: c,
                            after_bytes,
                            lossy,
                        } => Json::obj([
                            ("kind", Json::Str("sever".into())),
                            ("rank", n(rank as u64)),
                            ("chan", chan(c)),
                            ("after_bytes", n(after_bytes)),
                            ("lossy", Json::Bool(lossy)),
                        ]),
                        SocketFault::Refuse { rank, delay_ms } => Json::obj([
                            ("kind", Json::Str("refuse".into())),
                            ("rank", n(rank as u64)),
                            ("delay_ms", n(delay_ms)),
                        ]),
                        SocketFault::Slow {
                            rank,
                            chan: c,
                            delay_us,
                        } => Json::obj([
                            ("kind", Json::Str("slow".into())),
                            ("rank", n(rank as u64)),
                            ("chan", chan(c)),
                            ("delay_us", n(delay_us)),
                        ]),
                    })
                    .collect(),
            ),
        )])
        .to_string()
    }

    /// Parse the `faults.json` wire form.
    pub fn from_json(text: &str) -> Result<SocketFaultPlan, String> {
        let j = Json::parse(text).map_err(|e| e.to_string())?;
        let arr = j
            .get("faults")
            .as_array()
            .ok_or("faults.json: missing `faults` array")?;
        let mut faults = Vec::with_capacity(arr.len());
        for f in arr {
            let rank = f.get("rank").as_f64().ok_or("fault: missing rank")? as usize;
            let chan = || match f.get("chan").as_str() {
                Some("data") => FaultChan::Data,
                _ => FaultChan::Tensor,
            };
            let u = |k: &str| f.get(k).as_f64().unwrap_or(0.0) as u64;
            faults.push(match f.get("kind").as_str() {
                Some("sever") => SocketFault::Sever {
                    rank,
                    chan: chan(),
                    after_bytes: u("after_bytes"),
                    lossy: matches!(f.get("lossy"), Json::Bool(true)),
                },
                Some("refuse") => SocketFault::Refuse {
                    rank,
                    delay_ms: u("delay_ms"),
                },
                Some("slow") => SocketFault::Slow {
                    rank,
                    chan: chan(),
                    delay_us: u("delay_us"),
                },
                k => return Err(format!("fault: unknown kind {k:?}")),
            });
        }
        Ok(SocketFaultPlan { faults })
    }
}

// ---------------------------------------------------------------------------
// Rendezvous files
// ---------------------------------------------------------------------------

/// Atomically publish a rendezvous file: write `name.tmp`, then rename.
/// Readers polling the directory never observe a torn write.
fn publish(dir: &Path, name: &str, contents: &str) {
    let tmp = dir.join(format!("{name}.tmp"));
    fs::write(&tmp, contents).expect("write rendezvous file");
    fs::rename(&tmp, dir.join(name)).expect("rename rendezvous file");
}

fn read_addr(dir: &Path, name: &str) -> Option<WireAddr> {
    let text = fs::read_to_string(dir.join(name)).ok()?;
    WireAddr::parse(text.trim())
}

/// Poll until every worker's `rank-R.addr` exists, returning the flat-rank
/// edge map.
fn await_addrs(dir: &Path, world: usize, deadline: Instant) -> Result<Vec<WireAddr>, String> {
    let mut addrs: Vec<Option<WireAddr>> = vec![None; world];
    loop {
        for (r, slot) in addrs.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = read_addr(dir, &format!("rank-{r}.addr"));
            }
        }
        if addrs.iter().all(|a| a.is_some()) {
            return Ok(addrs.into_iter().map(|a| a.unwrap()).collect());
        }
        if Instant::now() >= deadline {
            let missing: Vec<usize> = addrs
                .iter()
                .enumerate()
                .filter(|(_, a)| a.is_none())
                .map(|(r, _)| r)
                .collect();
            return Err(format!(
                "rendezvous timed out waiting for ranks {missing:?}"
            ));
        }
        thread::sleep(Duration::from_millis(2));
    }
}

// ---------------------------------------------------------------------------
// Pipeline p2p pumps
// ---------------------------------------------------------------------------

/// Matrix wire frame: `[rows, cols, data…]` as f32 (dimensions are exact
/// below 2²⁴). Serialization is lossless, so pumped activations are
/// bit-identical to in-process channel sends.
fn matrix_frame(m: &Matrix) -> Vec<f32> {
    let mut frame = Vec::with_capacity(m.rows() * m.cols() + 2);
    frame.push(m.rows() as f32);
    frame.push(m.cols() as f32);
    frame.extend_from_slice(m.as_slice());
    frame
}

fn frame_matrix(frame: &[f32]) -> Option<Matrix> {
    let (rows, cols) = (*frame.first()? as usize, *frame.get(1)? as usize);
    if frame.len() != rows * cols + 2 {
        return None;
    }
    Some(Matrix::from_vec(rows, cols, frame[2..].to_vec()))
}

/// Forward matrices from the worker's `mpsc` sender into the socket lane.
/// Exits when the worker drops its sender (normal completion) or a send
/// fails; the dropped receiver then surfaces to the worker as
/// `PipelineBroken` on its next send.
fn pump_send(mut chan: SocketChannel, rx: Receiver<Matrix>, timeout: Duration) {
    for m in rx {
        chan.set_deadline(Instant::now() + timeout);
        if megatron_collective::Transport::send(&mut chan, 1, &matrix_frame(&m)).is_err() {
            return;
        }
    }
}

/// Forward socket frames into the worker's `mpsc` receiver. Hangs up —
/// dropping the sender, which the worker observes as `PipelineBroken` —
/// after `timeout` of silence (the same dead-peer convention as group
/// collectives) or when `stop` is raised after the worker exits.
fn pump_recv(
    mut chan: SocketChannel,
    tx: Sender<Matrix>,
    stop: Arc<AtomicBool>,
    timeout: Duration,
) {
    let mut last_frame = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        chan.set_deadline(Instant::now() + Duration::from_millis(200));
        match megatron_collective::PollTransport::recv_within(
            &mut chan,
            0,
            Duration::from_millis(50),
        ) {
            Ok(Some(frame)) => {
                last_frame = Instant::now();
                let Some(m) = frame_matrix(&frame) else {
                    return;
                };
                if tx.send(m).is_err() {
                    return;
                }
            }
            Ok(None) | Err(_) => {
                if last_frame.elapsed() > timeout {
                    return;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Worker process
// ---------------------------------------------------------------------------

/// If the process was invoked as a rank worker (`--proc-worker <dir>
/// <rank>` anywhere in argv), run the worker to completion and exit.
/// Call this first thing in any binary that hosts [`launch`] — the
/// launcher re-execs the current executable with these arguments.
pub fn maybe_worker() {
    let args: Vec<String> = std::env::args().collect();
    if let Some(i) = args.iter().position(|a| a == "--proc-worker") {
        if args.len() > i + 2 {
            let dir = PathBuf::from(&args[i + 1]);
            let rank: usize = args[i + 2].parse().expect("--proc-worker rank");
            std::process::exit(worker_main(&dir, rank));
        }
    }
}

/// The body of one rank process: bind, rendezvous, train, report.
/// Returns the process exit code (0 = the rank finished its run).
pub fn worker_main(dir: &Path, rank: usize) -> i32 {
    let job = match fs::read_to_string(dir.join("job.json"))
        .map_err(|e| e.to_string())
        .and_then(|s| JobSpec::from_json(&s))
    {
        Ok(j) => j,
        Err(e) => {
            eprintln!("rank {rank}: {e}");
            return 3;
        }
    };
    assert!(job.wire.is_socket(), "process mode needs a socket wire");
    let spec = job.spec();
    let world = spec.world();
    let (pi, di, ti) = spec.thread_key(rank);
    let (p, t, d, v) = (spec.pipeline, spec.tensor, spec.data, spec.chunks);
    let stages = p * v;
    let timeout = spec.comm_timeout;

    // Launcher-injected socket faults for this rank, if a plan was
    // published. A Refuse fault delays the bind below, so early-dialing
    // peers get genuine connection refusals and have to retry.
    let my_faults = fs::read_to_string(dir.join("faults.json"))
        .ok()
        .and_then(|s| SocketFaultPlan::from_json(&s).ok())
        .map(|p| p.for_rank(rank))
        .unwrap_or_default();
    for f in &my_faults {
        if let SocketFault::Refuse { delay_ms, .. } = f {
            thread::sleep(Duration::from_millis(*delay_ms));
        }
    }
    // Launcher-scheduled kill: park after the first iteration that
    // completes at or past this count, so the SIGKILL lands at that
    // boundary rather than wherever a poll happens to catch the rank.
    let parks = match fs::read_to_string(dir.join(PARK_FILE)) {
        Ok(s) => match parks_from_json(&s) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("rank {rank}: {e}");
                return 3;
            }
        },
        Err(_) => Vec::new(),
    };
    let park_at = parks
        .iter()
        .filter(|k| k.rank == rank)
        .map(|k| k.after_iter.max(1))
        .min();
    let arm = |chan: &mut SocketChannel, which: FaultChan| {
        for f in &my_faults {
            match *f {
                SocketFault::Sever {
                    chan: c,
                    after_bytes,
                    lossy,
                    ..
                } if c == which => {
                    let size = if which == FaultChan::Tensor { t } else { d };
                    if size > 1 {
                        let to = (chan.rank() + 1) % size;
                        if lossy {
                            chan.sever_outbound_after_lossy(to, after_bytes);
                        } else {
                            chan.sever_outbound_after(to, after_bytes);
                        }
                    }
                }
                SocketFault::Slow {
                    chan: c, delay_us, ..
                } if c == which => {
                    chan.set_send_delay(Some(Duration::from_micros(delay_us)));
                }
                _ => {}
            }
        }
    };

    // Bind our listener and advertise it. UDS socket files live in the
    // rendezvous dir; TCP binds an ephemeral loopback port and publishes
    // the actual one.
    let bind = match job.wire {
        WireKind::Tcp => WireAddr::Tcp("127.0.0.1:0".parse().unwrap()),
        _ => WireAddr::Uds(dir.join(format!("rank-{rank}.sock"))),
    };
    let node = Arc::new(SocketNode::bind(&bind).expect("bind rank listener"));
    publish(dir, &format!("rank-{rank}.addr"), &node.addr().to_string());
    publish(
        dir,
        &format!("rank-{rank}.pid"),
        &std::process::id().to_string(),
    );

    let deadline = Instant::now() + RENDEZVOUS_TIMEOUT;
    let addrs = match await_addrs(dir, world, deadline) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rank {rank}: {e}");
            return 3;
        }
    };
    let launcher_addr = read_addr(dir, "launcher.addr");
    let transport = job.transport();

    // Group communicators: one socket channel per logical group, one
    // member (this process) per group.
    let flat = |pj: usize, dj: usize, tj: usize| spec.flat_rank((pj, dj, tj));
    let tg = {
        let chan_id = TENSOR_CHAN_BASE + (pi * d + di) as u64;
        let peers = (0..t)
            .map(|tj| Some(addrs[flat(pi, di, tj)].clone()))
            .collect();
        let mut chan = SocketChannel::new(Arc::clone(&node), chan_id, ti, peers);
        arm(&mut chan, FaultChan::Tensor);
        Group::with_socket(t, timeout, transport, chan).member(ti)
    };
    let dg = {
        let chan_id = DATA_CHAN_BASE + (pi * t + ti) as u64;
        let peers = (0..d)
            .map(|dj| Some(addrs[flat(pi, dj, ti)].clone()))
            .collect();
        let mut chan = SocketChannel::new(Arc::clone(&node), chan_id, di, peers);
        arm(&mut chan, FaultChan::Data);
        Group::with_socket(d, timeout, transport, chan).member(di)
    };

    // Pipeline lanes: for every stage boundary this device touches, a
    // dedicated 2-rank channel per direction (sender = lane rank 0) and a
    // pump thread bridging it to the mpsc endpoints the worker expects.
    let stop = Arc::new(AtomicBool::new(false));
    let mut pumps = Vec::new();
    let mut ep = Endpoints::default();
    for s in 0..stages.saturating_sub(1) {
        let from_dev = s % p;
        let to_dev = (s + 1) % p;
        // dir 0 = forward activations (from→to), 1 = backward gradients.
        for (dir, tx_dev, rx_dev) in [(0u64, from_dev, to_dev), (1u64, to_dev, from_dev)] {
            let chan_id = P2P_CHAN_BASE + (s as u64) * 2 + dir;
            if pi == tx_dev {
                let peers = vec![None, Some(addrs[flat(rx_dev, di, ti)].clone())];
                let chan = SocketChannel::new(Arc::clone(&node), chan_id, 0, peers);
                let (mtx, mrx) = unbounded::<Matrix>();
                if dir == 0 {
                    ep.fwd_out.insert(s, mtx);
                } else {
                    ep.bwd_out.insert(s + 1, mtx);
                }
                pumps.push(thread::spawn(move || pump_send(chan, mrx, timeout)));
            }
            if pi == rx_dev {
                let chan = SocketChannel::new(Arc::clone(&node), chan_id, 1, vec![None, None]);
                let (mtx, mrx) = unbounded::<Matrix>();
                if dir == 0 {
                    ep.fwd_in.insert(s + 1, mrx);
                } else {
                    ep.bwd_in.insert(s, mrx);
                }
                let stop = Arc::clone(&stop);
                pumps.push(thread::spawn(move || pump_recv(chan, mtx, stop, timeout)));
            }
        }
    }

    // Heartbeats: a channel of world+1 ranks whose last rank is the
    // launcher. A beacon thread pulses process liveness every hb_period
    // (independent of training progress, so stalled-but-alive survivors
    // keep beating), and the per-iteration on_beat hook pulses progress.
    let hb = launcher_addr.map(|la| {
        let mut peers: Vec<Option<WireAddr>> = vec![None; world + 1];
        peers[world] = Some(la);
        let chan = SocketChannel::new(Arc::clone(&node), HEARTBEAT_CHAN, rank, peers);
        Arc::new(Mutex::new(chan))
    });
    if let Some(hb) = &hb {
        let hb = Arc::clone(hb);
        let stop = Arc::clone(&stop);
        let period = job.hb_period;
        pumps.push(thread::spawn(move || {
            while !stop.load(Ordering::Relaxed) {
                if send_heartbeat(&hb, world, &[rank as f32]).is_err() {
                    return;
                }
                thread::sleep(period);
            }
        }));
    }

    // Telemetry: per-process sink; the trace file is merged by the
    // launcher side (`repro analyze --merge-traces`).
    let sink = job.trace.then(|| {
        megatron_telemetry::TelemetrySink::new(megatron_telemetry::SinkConfig {
            world,
            flops_per_iteration: 0.0,
            gpu: None,
        })
    });

    // Durable checkpointing: each worker writes only its own shard — the
    // launcher, which sees every rank's shards on disk, commits complete
    // generations. The store root crosses the attempt boundary (the
    // supervisor reuses one store over many rendezvous dirs) via the
    // `ckpt.path` rendezvous file.
    let store = (job.checkpoint_every > 0).then(|| {
        let root = fs::read_to_string(dir.join("ckpt.path"))
            .map(|s| PathBuf::from(s.trim()))
            .unwrap_or_else(|_| dir.join("ckpt"));
        crate::checkpoint::CheckpointStore::open(root).expect("open checkpoint store")
    });
    let restore = if job.resume_from > 0 {
        let Some(store) = &store else {
            eprintln!("rank {rank}: resume_from set without checkpointing");
            return 3;
        };
        // Restore the launcher-pinned generation *specifically*: restoring
        // whatever happens to be latest would silently diverge across the
        // ranks (and forbid replaying an older generation for audits).
        match store.load_pinned(&spec, job.model, job.resume_from) {
            Ok(r) => Some(r.snapshot),
            Err(e) => {
                eprintln!(
                    "rank {rank}: restore of pinned generation {} failed: {e}",
                    job.resume_from
                );
                return 3;
            }
        }
    } else {
        None
    };

    let ctl = RunControl {
        comm_timeout: Some(timeout),
        telemetry: sink.clone(),
        checkpoint_every: (job.checkpoint_every > 0).then_some(job.checkpoint_every),
        durable: store,
        restore,
        epoch: job.epoch,
        on_beat: hb.as_ref().map(|hb| {
            let hb = Arc::clone(hb);
            // Progress beats carry the rank's absolute completed-iteration
            // count in a second frame element; the launcher's kill
            // scheduler and the supervisor's grow boundary both key off
            // it. The plain beacon stays 1-element.
            let done = std::sync::atomic::AtomicUsize::new(job.resume_from);
            let parked = AtomicBool::new(false);
            Arc::new(move |r: usize| {
                let completed = done.fetch_add(1, Ordering::Relaxed) + 1;
                let _ = send_heartbeat(&hb, world, &[r as f32, completed as f32]);
                // This beat follows the iteration's durable shard write.
                // Parked, the rank runs no further iteration while its
                // pumps and beacon stay up, so peers finish this one and
                // the launcher's SIGKILL lands here. If no kill comes, the
                // rank sleeps out the comm timeout; its peers, blocked on
                // it under the same timeout, then fail the job with a
                // comm timeout.
                if park_at.is_some_and(|p| completed >= p) && !parked.swap(true, Ordering::Relaxed)
                {
                    thread::sleep(timeout);
                }
            }) as Arc<dyn Fn(usize) + Send + Sync>
        }),
        ..Default::default()
    };

    // The unmodified per-thread training loop, exactly as the in-process
    // trainer drives it — same ThreadArgs, same schedule, same seeds.
    let master = job.master();
    let dataset = job.dataset();
    let m = job.batch / d / spec.microbatch;
    let schedule = spec.schedule.build(p, m);
    let losses = Arc::new(Mutex::new(vec![0.0f32; job.iters]));
    let final_params: SharedMap<Vec<f32>> = Arc::new(Mutex::new(HashMap::new()));
    let peak_stash: SharedMap<usize> = Arc::new(Mutex::new(HashMap::new()));
    let step_times: SharedMap<Vec<StepSample>> = Arc::new(Mutex::new(HashMap::new()));
    let comm_volumes: SharedMap<RankCommVolume> = Arc::new(Mutex::new(HashMap::new()));
    let comm_ops: SharedMap<RankCommOps> = Arc::new(Mutex::new(HashMap::new()));
    let ckpts: Mutex<HashMap<usize, HashMap<ThreadKey, ThreadState>>> = Mutex::new(HashMap::new());

    let result: Result<(), crate::trainer::TrainError> = {
        let args = ThreadArgs {
            pi,
            di,
            ti,
            spec,
            master: &master,
            schedule: &schedule,
            data: &dataset,
            ep,
            tg,
            dg,
            losses: Arc::clone(&losses),
            final_params: Arc::clone(&final_params),
            peak_stash: Arc::clone(&peak_stash),
            step_times: Arc::clone(&step_times),
            comm_volumes: Arc::clone(&comm_volumes),
            comm_ops: Arc::clone(&comm_ops),
            ctl: &ctl,
            ckpts: &ckpts,
        };
        thread::scope(|s| {
            s.spawn(|| run_thread(args))
                .join()
                .unwrap_or_else(|e| Err(classify_panic(&e)))
        })
    };
    stop.store(true, Ordering::Relaxed);
    for h in pumps {
        let _ = h.join();
    }

    // Report: every f32 as u32 bits, so the launcher's merge is exact.
    let key = (pi, di, ti);
    let lock = |m: &SharedMap<Vec<f32>>| {
        m.lock()
            .unwrap_or_else(|e| e.into_inner())
            .remove(&key)
            .unwrap_or_default()
    };
    let vol = comm_volumes
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&key)
        .unwrap_or_default();
    let tape_bytes = comm_ops
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&key)
        .map(|ops| ops.total_bytes(t, ti, d, di))
        .unwrap_or(0.0);
    let peak = peak_stash
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&key)
        .unwrap_or(0);
    let steps = step_times
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .remove(&key)
        .map(|s| s.len())
        .unwrap_or(0);
    let losses = Arc::try_unwrap(losses)
        .unwrap()
        .into_inner()
        .unwrap_or_else(|e| e.into_inner());
    let doc = Json::obj([
        ("rank", Json::Num(rank as f64)),
        (
            "key",
            Json::Arr(vec![
                Json::Num(pi as f64),
                Json::Num(di as f64),
                Json::Num(ti as f64),
            ]),
        ),
        ("pid", Json::Num(std::process::id() as f64)),
        (
            "error",
            match &result {
                Ok(()) => Json::Null,
                Err(e) => Json::Str(e.to_string()),
            },
        ),
        ("losses_bits", bits_json(&losses)),
        ("params_bits", bits_json(&lock(&final_params))),
        ("volume", volume_json(&vol)),
        ("tape_bytes", Json::Num(tape_bytes)),
        ("peak_stash", Json::Num(peak as f64)),
        ("steps", Json::Num(steps as f64)),
    ]);
    publish(dir, &format!("rank-{rank}.out.json"), &doc.to_string());
    if let Some(sink) = &sink {
        publish(
            dir,
            &format!("rank-{rank}.trace.json"),
            &megatron_telemetry::chrome_trace_json(&sink.hub, stages),
        );
    }
    i32::from(result.is_err())
}

/// Send one heartbeat frame to the launcher: `[flat]` for a bare liveness
/// beacon, `[flat, completed_iters]` for a progress beat.
fn send_heartbeat(
    hb: &Mutex<SocketChannel>,
    launcher_rank: usize,
    frame: &[f32],
) -> Result<(), megatron_collective::SocketError> {
    let mut chan = hb.lock().unwrap_or_else(|e| e.into_inner());
    chan.set_deadline(Instant::now() + Duration::from_secs(5));
    megatron_collective::Transport::send(&mut *chan, launcher_rank, frame)
}

fn bits_json(xs: &[f32]) -> Json {
    Json::Arr(xs.iter().map(|v| Json::Num(v.to_bits() as f64)).collect())
}

fn bits_from(j: &Json) -> Vec<f32> {
    j.as_array()
        .map(|a| {
            a.iter()
                .filter_map(|v| v.as_f64())
                .map(|b| f32::from_bits(b as u32))
                .collect()
        })
        .unwrap_or_default()
}

fn volume_json(v: &RankCommVolume) -> Json {
    let c = |cv: &CommVolume| {
        Json::obj([
            ("all_reduce", Json::Num(cv.all_reduce_bytes)),
            ("all_gather", Json::Num(cv.all_gather_bytes)),
            ("reduce_scatter", Json::Num(cv.reduce_scatter_bytes)),
            ("broadcast", Json::Num(cv.broadcast_bytes)),
            ("ops", Json::Num(cv.ops as f64)),
        ])
    };
    Json::obj([
        ("tensor", c(&v.tensor)),
        ("data", c(&v.data)),
        ("p2p_send_bytes", Json::Num(v.p2p_send_bytes)),
    ])
}

fn volume_from(j: &Json) -> RankCommVolume {
    let c = |j: &Json| CommVolume {
        all_reduce_bytes: j.get("all_reduce").as_f64().unwrap_or(0.0),
        all_gather_bytes: j.get("all_gather").as_f64().unwrap_or(0.0),
        reduce_scatter_bytes: j.get("reduce_scatter").as_f64().unwrap_or(0.0),
        broadcast_bytes: j.get("broadcast").as_f64().unwrap_or(0.0),
        ops: j.get("ops").as_f64().unwrap_or(0.0) as u64,
    };
    RankCommVolume {
        tensor: c(j.get("tensor")),
        data: c(j.get("data")),
        p2p_send_bytes: j.get("p2p_send_bytes").as_f64().unwrap_or(0.0),
    }
}

// ---------------------------------------------------------------------------
// Launcher
// ---------------------------------------------------------------------------

/// One rank's parsed `rank-R.out.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct RankOutput {
    /// Thread coordinate.
    pub key: ThreadKey,
    /// OS pid of the rank process.
    pub pid: u32,
    /// Whether the process exited 0.
    pub exit_ok: bool,
    /// Display form of the rank's `TrainError`, if it failed.
    pub error: Option<String>,
    /// Per-iteration losses as this rank recorded them (only loss-owning
    /// ranks fill these; others report zeros).
    pub losses: Vec<f32>,
    /// Flattened final parameters of this rank's shard (bit-exact).
    pub params: Vec<f32>,
    /// Transport-measured comm volume.
    pub volume: RankCommVolume,
    /// Bytes the rank's comm-op tape implies it sent.
    pub tape_bytes: f64,
    /// Peak stashed-activation floats.
    pub peak_stash: usize,
    /// Completed step samples.
    pub steps: usize,
}

/// How one rank process ended, as the launcher observed it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerExit {
    /// Exited with status 0.
    Ok,
    /// Exited with a nonzero status code.
    Failed(i32),
    /// Terminated by a signal (SIGKILL, a panic-abort, ...).
    Killed,
    /// Still running when the wait deadline expired; reaped by SIGKILL.
    Timeout,
}

impl WorkerExit {
    fn of(status: std::process::ExitStatus) -> WorkerExit {
        use std::os::unix::process::ExitStatusExt;
        if status.signal().is_some() {
            WorkerExit::Killed
        } else {
            match status.code() {
                Some(0) | None => {
                    if status.success() {
                        WorkerExit::Ok
                    } else {
                        WorkerExit::Failed(-1)
                    }
                }
                Some(c) => WorkerExit::Failed(c),
            }
        }
    }
}

/// The merged result of a process-mode run.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcOutcome {
    /// Per-rank outputs, keyed by thread coordinate.
    pub outputs: HashMap<ThreadKey, RankOutput>,
    /// Merged per-iteration losses (from the loss-owning ranks).
    pub losses: Vec<f32>,
    /// Ranks that left no parsable output file (e.g. SIGKILLed).
    pub missing: Vec<ThreadKey>,
    /// Per-flat-rank exit status.
    pub exits: Vec<WorkerExit>,
}

impl ProcOutcome {
    /// Did every rank finish cleanly?
    pub fn ok(&self) -> bool {
        self.missing.is_empty()
            && self.exits.iter().all(|e| *e == WorkerExit::Ok)
            && self
                .outputs
                .values()
                .all(|o| o.exit_ok && o.error.is_none())
    }
}

/// A launched process-mode job: child processes, the heartbeat listener,
/// and the liveness monitor.
pub struct LaunchHandle {
    job: JobSpec,
    dir: PathBuf,
    children: Mutex<Vec<Option<Child>>>,
    monitor: Arc<HealthMonitor>,
    stop: Arc<AtomicBool>,
    readers: Vec<thread::JoinHandle<()>>,
    /// Per-flat-rank completed-iteration counters, fed by the heartbeat
    /// readers from `[flat, completed]` progress beats.
    progress: Arc<Vec<std::sync::atomic::AtomicUsize>>,
    /// Per-flat-rank exit status, filled lazily by [`LaunchHandle::poll_exits`].
    exits: Mutex<Vec<Option<WorkerExit>>>,
    // Keeps the launcher's listener (and its acceptor thread) alive.
    _node: Arc<SocketNode>,
}

/// Harden a rendezvous directory against stale state from a previous
/// run. Leftover `job.json` / `rank-R.addr` files would make fresh
/// workers dial dead (or worse, recycled) addresses and hang until the
/// comm deadline. Policy: read every advertised `rank-R.pid`; if any
/// pid is still alive (`/proc/<pid>` exists) the directory belongs to a
/// running job, so refuse loudly. Otherwise sweep the rendezvous files
/// (each unlink is atomic; checkpoint data under the dir is untouched)
/// and let the new job proceed.
fn clear_stale_rendezvous(dir: &Path) -> std::io::Result<()> {
    if !dir.join("job.json").is_file() {
        return Ok(());
    }
    let mut stale = Vec::new();
    let mut live = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        let is_rendezvous = name == "job.json"
            || name == "faults.json"
            || name == PARK_FILE
            || name == "ckpt.path"
            || name.starts_with("launcher.")
            || (name.starts_with("rank-")
                && (name.ends_with(".addr")
                    || name.ends_with(".pid")
                    || name.ends_with(".sock")
                    || name.ends_with(".out.json")
                    || name.ends_with(".trace.json")));
        if !is_rendezvous {
            continue;
        }
        if name.starts_with("rank-") && name.ends_with(".pid") {
            if let Ok(s) = fs::read_to_string(entry.path()) {
                if let Ok(pid) = s.trim().parse::<u32>() {
                    if fs::metadata(format!("/proc/{pid}")).is_ok() {
                        live.push((name.clone(), pid));
                    }
                }
            }
        }
        stale.push(entry.path());
    }
    if !live.is_empty() {
        return Err(std::io::Error::new(
            std::io::ErrorKind::AddrInUse,
            format!(
                "rendezvous dir {} is in use: advertised worker pid(s) still alive: {}",
                dir.display(),
                live.iter()
                    .map(|(n, p)| format!("{n}={p}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        ));
    }
    for p in stale {
        let _ = fs::remove_file(p);
    }
    Ok(())
}

/// Launch `job` as `world` OS processes rendezvousing in `dir`
/// (created if absent). The workers re-exec the **current executable**
/// with `--proc-worker <dir> <rank>`, so the hosting binary must call
/// [`maybe_worker`] before anything else.
pub fn launch(job: &JobSpec, dir: &Path) -> std::io::Result<LaunchHandle> {
    launch_configured(job, dir, None, None)
}

/// [`launch`] with the supervisor-side extras: an explicit durable
/// checkpoint root (published to workers as `ckpt.path`, so respawn
/// attempts in fresh rendezvous dirs share one store) and a socket
/// fault plan (written as `faults.json` for workers to arm).
pub fn launch_configured(
    job: &JobSpec,
    dir: &Path,
    ckpt_root: Option<&Path>,
    faults: Option<&SocketFaultPlan>,
) -> std::io::Result<LaunchHandle> {
    launch_parked(job, dir, ckpt_root, faults, &[])
}

/// [`launch_configured`] plus a kill schedule, written as `park.json`:
/// each named rank parks after its `after_iter` boundary until the
/// launcher SIGKILLs it (see [`ProcKill`] and [`LaunchHandle::kill_due`]).
pub fn launch_parked(
    job: &JobSpec,
    dir: &Path,
    ckpt_root: Option<&Path>,
    faults: Option<&SocketFaultPlan>,
    parks: &[ProcKill],
) -> std::io::Result<LaunchHandle> {
    assert!(job.wire.is_socket(), "process mode needs a socket wire");
    if !job.batch.is_multiple_of(job.data * job.microbatch) {
        // The in-process trainer asserts this; catch it here so an invalid
        // job errors before any worker is spawned instead of the workers
        // silently truncating the batch (`m` below rounds down).
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "batch {} must divide by d*b = {}",
                job.batch,
                job.data * job.microbatch
            ),
        ));
    }
    fs::create_dir_all(dir)?;
    clear_stale_rendezvous(dir)?;
    fs::write(dir.join("job.json"), job.to_json())?;
    if let Some(root) = ckpt_root {
        publish(dir, "ckpt.path", &root.display().to_string());
    }
    if let Some(plan) = faults {
        publish(dir, "faults.json", &plan.to_json());
    }
    if !parks.is_empty() {
        publish(dir, PARK_FILE, &parks_json(parks));
    }

    let bind = match job.wire {
        WireKind::Tcp => WireAddr::Tcp("127.0.0.1:0".parse().unwrap()),
        _ => WireAddr::Uds(dir.join("launcher.sock")),
    };
    let node = Arc::new(SocketNode::bind(&bind)?);
    publish(dir, "launcher.addr", &node.addr().to_string());

    let spec = job.spec();
    let world = spec.world();
    let monitor = HealthMonitor::new(&spec, job.hb_period);
    let stop = Arc::new(AtomicBool::new(false));
    let progress: Arc<Vec<std::sync::atomic::AtomicUsize>> = Arc::new(
        (0..world)
            .map(|_| std::sync::atomic::AtomicUsize::new(0))
            .collect(),
    );
    // One heartbeat reader per rank, each blocked on that rank's stream,
    // so a beat is stamped when it arrives. A single thread polling the
    // ranks in turn waited on every idle one; on a loaded 2-core host a
    // pass took ~90 ms, longer than the dead window, and live ranks were
    // classified dead. The readers share HEARTBEAT_CHAN and the launcher's
    // rank, which `SocketChannel` allows for receive-only channels that
    // each receive from their own peer.
    let readers = (0..world)
        .map(|r| {
            let mut chan = SocketChannel::new(
                Arc::clone(&node),
                HEARTBEAT_CHAN,
                world,
                vec![None; world + 1],
            );
            let monitor = Arc::clone(&monitor);
            let stop = Arc::clone(&stop);
            let progress = Arc::clone(&progress);
            thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    chan.set_deadline(Instant::now() + Duration::from_millis(100));
                    let wait = Duration::from_millis(5);
                    match megatron_collective::PollTransport::recv_within(&mut chan, r, wait) {
                        Ok(Some(frame)) => {
                            monitor.beat(r);
                            // Two-element frames are progress beats:
                            // `[flat, completed_iters]`. `fetch_max` because
                            // a late bare beacon must not be confused with
                            // regressing progress.
                            if let Some(&done) = frame.get(1) {
                                progress[r].fetch_max(done as usize, Ordering::Relaxed);
                            }
                        }
                        Ok(None) => {}
                        // A broken stream fails at once; don't spin on it.
                        Err(_) => thread::sleep(wait),
                    }
                }
            })
        })
        .collect();

    let exe = std::env::current_exe()?;
    let mut children = Vec::with_capacity(world);
    for r in 0..world {
        children.push(Some(
            Command::new(&exe)
                .arg("--proc-worker")
                .arg(dir)
                .arg(r.to_string())
                .spawn()?,
        ));
    }

    Ok(LaunchHandle {
        job: *job,
        dir: dir.to_path_buf(),
        children: Mutex::new(children),
        monitor,
        stop,
        readers,
        progress,
        exits: Mutex::new(vec![None; world]),
        _node: node,
    })
}

impl LaunchHandle {
    /// The heartbeat-fed liveness monitor (beats arrive over the socket,
    /// one per worker beacon pulse and one per completed iteration).
    pub fn monitor(&self) -> Arc<HealthMonitor> {
        Arc::clone(&self.monitor)
    }

    /// OS pid of a rank's process, if it was spawned.
    pub fn pid(&self, rank: usize) -> Option<u32> {
        self.children.lock().unwrap()[rank].as_ref().map(|c| c.id())
    }

    /// SIGKILL one rank's process (the "pull the power cord" experiment).
    pub fn kill_rank(&self, rank: usize) -> bool {
        let mut children = self.children.lock().unwrap();
        match &mut children[rank] {
            Some(c) => c.kill().is_ok(),
            None => false,
        }
    }

    /// SIGKILL every remaining rank process.
    pub fn kill_all(&self) {
        let mut children = self.children.lock().unwrap();
        for c in children.iter_mut().flatten() {
            let _ = c.kill();
        }
    }

    /// Completed iterations reported by `rank`'s progress beats so far.
    pub fn progress(&self, rank: usize) -> usize {
        self.progress[rank].load(Ordering::Relaxed)
    }

    /// Minimum completed-iteration count across the world — the last
    /// iteration *every* rank has finished.
    pub fn min_progress(&self) -> usize {
        self.progress
            .iter()
            .map(|p| p.load(Ordering::Relaxed))
            .min()
            .unwrap_or(0)
    }

    /// True once the victim of a [`launch_parked`] kill is parked at its
    /// boundary and every rank has completed that iteration: the moment
    /// to SIGKILL it.
    pub fn kill_due(&self, k: ProcKill) -> bool {
        let at = self.progress(k.rank);
        at >= k.after_iter.max(1) && self.min_progress() >= at
    }

    /// Non-blocking exit sweep: `try_wait` every still-running child,
    /// reap any that ended, and return the per-rank picture so far
    /// (`None` = still running). This is how the supervisor notices a
    /// SIGKILL or panic *before* heartbeat silence does.
    pub fn poll_exits(&self) -> Vec<Option<WorkerExit>> {
        let mut children = self.children.lock().unwrap();
        let mut exits = self.exits.lock().unwrap();
        for (r, slot) in children.iter_mut().enumerate() {
            if exits[r].is_some() {
                continue;
            }
            if let Some(c) = slot.as_mut() {
                if let Ok(Some(status)) = c.try_wait() {
                    exits[r] = Some(WorkerExit::of(status));
                    *slot = None; // reaped
                }
            }
        }
        exits.clone()
    }

    /// Wait for every rank process to exit, then merge the per-rank
    /// output files into a [`ProcOutcome`]. Bounded: a worker that dies
    /// before rendezvous (or wedges past the comm deadline) no longer
    /// hangs the launcher forever — the default deadline covers
    /// rendezvous plus the workers' own communication timeout, after
    /// which stragglers are SIGKILLed and reported as
    /// [`WorkerExit::Timeout`].
    pub fn wait(self) -> ProcOutcome {
        let limit = RENDEZVOUS_TIMEOUT + self.job.comm_timeout * 4 + Duration::from_secs(60);
        self.wait_within(limit)
    }

    /// [`LaunchHandle::wait`] with an explicit deadline.
    pub fn wait_within(mut self, limit: Duration) -> ProcOutcome {
        let spec = self.job.spec();
        let world = spec.world();
        let deadline = Instant::now() + limit;
        loop {
            let exits = self.poll_exits();
            if exits.iter().all(|e| e.is_some()) {
                break;
            }
            if Instant::now() >= deadline {
                let mut children = self.children.lock().unwrap();
                let mut exits = self.exits.lock().unwrap();
                for (r, slot) in children.iter_mut().enumerate() {
                    if exits[r].is_none() {
                        if let Some(mut c) = slot.take() {
                            let _ = c.kill();
                            let _ = c.wait();
                        }
                        exits[r] = Some(WorkerExit::Timeout);
                    }
                }
                break;
            }
            thread::sleep(Duration::from_millis(5));
        }
        let exits: Vec<WorkerExit> = self
            .exits
            .lock()
            .unwrap()
            .iter()
            .map(|e| e.expect("all ranks resolved above"))
            .collect();
        let exit_ok: Vec<bool> = exits.iter().map(|e| *e == WorkerExit::Ok).collect();
        self.stop.store(true, Ordering::Relaxed);
        for h in self.readers.drain(..) {
            let _ = h.join();
        }

        let mut outputs = HashMap::new();
        let mut missing = Vec::new();
        for (r, &rank_exit_ok) in exit_ok.iter().enumerate() {
            let key = spec.thread_key(r);
            let parsed = fs::read_to_string(self.dir.join(format!("rank-{r}.out.json")))
                .ok()
                .and_then(|s| Json::parse(&s).ok());
            match parsed {
                Some(j) => {
                    outputs.insert(
                        key,
                        RankOutput {
                            key,
                            pid: j.get("pid").as_f64().unwrap_or(0.0) as u32,
                            exit_ok: rank_exit_ok,
                            error: j.get("error").as_str().map(str::to_string),
                            losses: bits_from(j.get("losses_bits")),
                            params: bits_from(j.get("params_bits")),
                            volume: volume_from(j.get("volume")),
                            tape_bytes: j.get("tape_bytes").as_f64().unwrap_or(0.0),
                            peak_stash: j.get("peak_stash").as_f64().unwrap_or(0.0) as usize,
                            steps: j.get("steps").as_f64().unwrap_or(0.0) as usize,
                        },
                    );
                }
                None => missing.push(key),
            }
        }

        // Merge losses: every writer holds the same all-reduced value, so
        // take the first nonzero per iteration in flat-rank order.
        let mut losses = vec![0.0f32; self.job.iters];
        for (i, slot) in losses.iter_mut().enumerate() {
            for r in 0..world {
                if let Some(o) = outputs.get(&spec.thread_key(r)) {
                    if o.losses.get(i).copied().unwrap_or(0.0) != 0.0 {
                        *slot = o.losses[i];
                        break;
                    }
                }
            }
        }

        ProcOutcome {
            outputs,
            losses,
            missing,
            exits,
        }
    }
}

impl Drop for LaunchHandle {
    /// A dropped handle must not leak rank processes or the reader
    /// threads (e.g. when a test assertion fails mid-run).
    fn drop(&mut self) {
        self.kill_all();
        self.stop.store(true, Ordering::Relaxed);
        for h in self.readers.drain(..) {
            let _ = h.join();
        }
    }
}

// ---------------------------------------------------------------------
// Launcher-side supervision: detect → restore → respawn
// ---------------------------------------------------------------------

/// One scheduled real kill in a supervised chaos run: SIGKILL `rank`'s
/// process at its `after_iter` boundary (at least 1), after any
/// checkpoint shard written there is on disk.
///
/// The kill lands there by construction, not by polling luck. The victim
/// learns its schedule from `park.json` and, after the first iteration
/// that completes at or past `after_iter`, reports its progress and
/// parks. The supervisor SIGKILLs it once every rank has completed that
/// iteration ([`LaunchHandle::kill_due`]), so the boundary's shards are
/// all durable and no rank has started the next one without the victim.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcKill {
    /// Flat rank of the victim process.
    pub rank: usize,
    /// Completed iterations the victim must report before the SIGKILL.
    pub after_iter: usize,
}

/// Rendezvous file carrying an attempt's kill schedule to its workers.
const PARK_FILE: &str = "park.json";

fn parks_json(parks: &[ProcKill]) -> String {
    let n = |x: usize| Json::Num(x as f64);
    Json::Arr(
        parks
            .iter()
            .map(|k| Json::obj([("rank", n(k.rank)), ("after_iter", n(k.after_iter))]))
            .collect(),
    )
    .to_string()
}

fn parks_from_json(text: &str) -> Result<Vec<ProcKill>, String> {
    let Json::Arr(items) = Json::parse(text).map_err(|e| e.to_string())? else {
        return Err("park.json: expected an array".into());
    };
    let field = |j: &Json, k: &str| {
        uint_field(j, k)
            .map_err(|e| format!("park.json: {e}"))?
            .ok_or_else(|| format!("park.json: missing field `{k}`"))
    };
    items
        .iter()
        .map(|j| {
            Ok(ProcKill {
                rank: field(j, "rank")?,
                after_iter: field(j, "after_iter")?,
            })
        })
        .collect()
}

/// Why the supervisor tore an attempt down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IncidentCause {
    /// Worker processes ended abnormally (signal, nonzero exit).
    Exit(Vec<(usize, WorkerExit)>),
    /// Ranks still running but heartbeat-silent past the dead window.
    Silence(Vec<usize>),
    /// No rank died, but the attempt overran its wall-clock limit.
    Wedged,
}

/// One detect → restore → respawn cycle a [`ProcSupervisor`] performed.
#[derive(Debug, Clone, PartialEq)]
pub struct ProcIncident {
    /// Attempt index (0-based) that died.
    pub attempt: usize,
    /// What the detector saw.
    pub cause: IncidentCause,
    /// Flat ranks implicated.
    pub dead_ranks: Vec<usize>,
    /// Minimum completed-iteration count across the world at detection.
    pub at_progress: usize,
    /// Seconds from the attempt's launch to detection.
    pub detect_s: f64,
    /// Durable generation the next attempt resumed from (0 = scratch).
    pub restored_generation: usize,
    /// Seconds spent committing shard sets and pinning the generation.
    pub restore_s: f64,
    /// Seconds slept in exponential backoff before the respawn.
    pub backoff_s: f64,
}

/// The merged result of a supervised run.
///
/// `outcome.losses` holds the cross-attempt merge (first nonzero per
/// absolute iteration). SIGKILLed attempts write no `rank-R.out.json`,
/// so iterations re-run from a restored generation are the ones
/// guaranteed present; the bit-identity proof therefore gates on the
/// merged **final parameters**, which the last (clean) attempt always
/// reports in full.
#[derive(Debug)]
pub struct ProcReport {
    /// Output of the final, clean attempt (losses merged across all).
    pub outcome: ProcOutcome,
    /// Every incident, in order.
    pub incidents: Vec<ProcIncident>,
    /// Attempts launched (1 = no incident).
    pub attempts: usize,
    /// Generations the launcher-side committer sealed, in commit order.
    pub committed: Vec<usize>,
    /// Total supervised wall seconds, backoffs included.
    pub wall_s: f64,
}

/// One topology segment of an elastic process-mode run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProcSegment {
    /// `(p, t, d)` the segment ran at.
    pub spec: (usize, usize, usize),
    /// First iteration (absolute) the segment executed.
    pub from_iter: usize,
    /// One past the last iteration the segment executed.
    pub to_iter: usize,
    /// Wall seconds for the segment, launch to merged exit.
    pub wall_s: f64,
}

/// The merged result of an elastic supervised run.
#[derive(Debug)]
pub struct ElasticProcReport {
    /// Output of the final segment (losses merged across segments).
    pub outcome: ProcOutcome,
    /// Shrink/grow records, reusing the in-process supervisor's type.
    pub reconfigurations: Vec<Reconfiguration>,
    /// Generations sealed by the launcher-side committer.
    pub committed: Vec<usize>,
    /// Per-segment timings, in execution order.
    pub segments: Vec<ProcSegment>,
}

/// Launcher-side supervision loop for process-mode jobs: fuses the
/// heartbeat [`HealthMonitor`] and [`LaunchHandle::poll_exits`] into a
/// detector, and heals by **restore + respawn** — commit whatever
/// complete shard generations the dead world left on disk, pin the
/// newest as the resume point, and re-exec the whole world in a fresh
/// rendezvous directory sharing the same durable store.
///
/// Workers cannot seal generations themselves (each process sees only
/// its own shard, and the in-trainer commit quorum never fills across
/// address spaces), so the supervisor doubles as the **committer**: its
/// watch loop sweeps the store for complete, CRC-valid shard sets and
/// writes their manifests.
///
/// Restart policy: at most `max_restarts` respawns, exponential backoff
/// `backoff_base · 2^n` capped at `backoff_cap`, and a per-attempt
/// wall-clock limit after which a silent-but-undead world counts as
/// wedged. Every incident is recorded as a [`ProcIncident`].
pub struct ProcSupervisor {
    job: JobSpec,
    root: PathBuf,
    /// Maximum respawns before giving up (budget).
    pub max_restarts: usize,
    /// First backoff; doubles per incident.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_cap: Duration,
    /// How long after launch heartbeat silence is forgiven (spawn +
    /// rendezvous take seconds; `classify` counts never-beaten as dead).
    pub startup_grace: Duration,
    /// Per-attempt wall-clock limit; past it the attempt is wedged.
    pub attempt_limit: Duration,
    /// Watch-loop period.
    pub poll: Duration,
    /// Straggler threshold handed to [`HealthMonitor::classify`].
    pub slow_threshold: f64,
}

impl ProcSupervisor {
    /// A supervisor for `job`, scratch + durable state under `root`
    /// (`root/attempt-<k>/` rendezvous dirs, `root/ckpt` store). The job
    /// must checkpoint (`checkpoint_every > 0`) — without durable
    /// generations there is nothing to heal from.
    pub fn new(job: &JobSpec, root: &Path) -> ProcSupervisor {
        assert!(
            job.checkpoint_every > 0,
            "self-healing needs durable checkpoints (JobSpec::checkpoint_every > 0)"
        );
        ProcSupervisor {
            job: *job,
            root: root.to_path_buf(),
            max_restarts: 8,
            backoff_base: Duration::from_millis(50),
            backoff_cap: Duration::from_secs(2),
            startup_grace: Duration::from_secs(20),
            attempt_limit: RENDEZVOUS_TIMEOUT + job.comm_timeout * 4 + Duration::from_secs(120),
            poll: Duration::from_millis(5),
            slow_threshold: crate::health::DEFAULT_SLOW_THRESHOLD,
        }
    }

    fn ckpt_root(&self) -> PathBuf {
        self.root.join("ckpt")
    }

    fn store(&self) -> std::io::Result<Arc<CheckpointStore>> {
        CheckpointStore::open(self.ckpt_root()).map_err(|e| std::io::Error::other(e.to_string()))
    }

    /// Supervised run: launch, watch, and on any fatal incident restore
    /// the latest durable generation and respawn the world under the
    /// restart budget. `kills` is the chaos schedule of real SIGKILLs
    /// the supervisor itself fires (each at most once, on whichever
    /// attempt first reaches its progress trigger); `faults` is written
    /// as `faults.json` for attempt 0's workers to arm at the socket
    /// layer. If the durable store already holds generations from an
    /// earlier supervised run, attempt 0 resumes from them — that is the
    /// durable-restart path.
    pub fn run(
        &self,
        kills: &[ProcKill],
        faults: Option<&SocketFaultPlan>,
    ) -> std::io::Result<ProcReport> {
        let t0 = Instant::now();
        let store = self.store()?;
        let spec = self.job.spec();
        let world = spec.world();
        let io_err = |e: crate::checkpoint::CheckpointError| std::io::Error::other(e.to_string());
        let mut pending: Vec<Option<ProcKill>> = kills.iter().copied().map(Some).collect();
        let mut incidents: Vec<ProcIncident> = Vec::new();
        let mut committed: Vec<usize> = Vec::new();
        let mut merged_losses = vec![0.0f32; self.job.iters];
        let merge = |merged: &mut Vec<f32>, losses: &[f32]| {
            for (slot, v) in merged.iter_mut().zip(losses) {
                if *v != 0.0 {
                    *slot = *v;
                }
            }
        };

        committed.extend(
            store
                .commit_complete_generations(&spec, self.job.model)
                .map_err(io_err)?,
        );
        let mut resume = store
            .load_latest(&spec, self.job.model)
            .map(|r| r.generation)
            .unwrap_or(0);
        let mut attempt = 0usize;
        loop {
            let mut job = self.job;
            job.resume_from = resume;
            job.epoch = attempt;
            let dir = self.root.join(format!("attempt-{attempt}"));
            let parks: Vec<ProcKill> = pending.iter().flatten().copied().collect();
            let handle = launch_parked(
                &job,
                &dir,
                Some(&self.ckpt_root()),
                if attempt == 0 { faults } else { None },
                &parks,
            )?;

            let attempt_t0 = Instant::now();
            let grace_until = attempt_t0 + self.startup_grace;
            let deadline = attempt_t0 + self.attempt_limit;
            let cause: Option<IncidentCause> = loop {
                thread::sleep(self.poll);
                // Fire any due chaos kills: the victim is parked at its
                // boundary and every rank has completed that iteration.
                for slot in pending.iter_mut() {
                    if let Some(k) = *slot {
                        if k.rank < world && handle.kill_due(k) {
                            handle.kill_rank(k.rank);
                            *slot = None;
                        }
                    }
                }
                // Committer sweep: seal complete shard generations.
                if let Ok(newly) = store.commit_complete_generations(&spec, self.job.model) {
                    committed.extend(newly);
                }
                let exits = handle.poll_exits();
                if exits.iter().all(|e| matches!(e, Some(WorkerExit::Ok))) {
                    break None;
                }
                let abnormal: Vec<(usize, WorkerExit)> = exits
                    .iter()
                    .enumerate()
                    .filter_map(|(r, e)| match e {
                        Some(x) if *x != WorkerExit::Ok => Some((r, *x)),
                        _ => None,
                    })
                    .collect();
                if !abnormal.is_empty() {
                    break Some(IncidentCause::Exit(abnormal));
                }
                let now = Instant::now();
                if now >= grace_until {
                    let report = handle.monitor().classify(self.slow_threshold);
                    let silent: Vec<usize> = (0..world)
                        .filter(|&r| exits[r].is_none() && report.ranks[r].1.is_dead())
                        .collect();
                    if !silent.is_empty() {
                        break Some(IncidentCause::Silence(silent));
                    }
                }
                if now >= deadline {
                    break Some(IncidentCause::Wedged);
                }
            };

            match cause {
                None => {
                    let outcome = handle.wait();
                    merge(&mut merged_losses, &outcome.losses);
                    // One last committer sweep so the final boundary
                    // generation is sealed for whoever resumes later.
                    if let Ok(newly) = store.commit_complete_generations(&spec, self.job.model) {
                        committed.extend(newly);
                    }
                    let mut outcome = outcome;
                    outcome.losses = merged_losses;
                    return Ok(ProcReport {
                        outcome,
                        incidents,
                        attempts: attempt + 1,
                        committed,
                        wall_s: t0.elapsed().as_secs_f64(),
                    });
                }
                Some(cause) => {
                    let detect_s = attempt_t0.elapsed().as_secs_f64();
                    let at_progress = handle.min_progress();
                    let dead_ranks: Vec<usize> = match &cause {
                        IncidentCause::Exit(v) => v.iter().map(|(r, _)| *r).collect(),
                        IncidentCause::Silence(v) => v.clone(),
                        IncidentCause::Wedged => (0..world).collect(),
                    };
                    // Fail-stop teardown: the socket world cannot run
                    // degraded, so kill the survivors and reap everyone.
                    handle.kill_all();
                    let torn = handle.wait_within(Duration::from_secs(10));
                    merge(&mut merged_losses, &torn.losses);

                    attempt += 1;
                    if attempt > self.max_restarts {
                        return Err(std::io::Error::other(format!(
                            "restart budget exhausted: {} incidents over {} attempts \
                             (last cause: {cause:?})",
                            incidents.len() + 1,
                            attempt,
                        )));
                    }
                    let backoff = std::cmp::min(
                        self.backoff_cap,
                        self.backoff_base * 2u32.pow((attempt as u32 - 1).min(16)),
                    );
                    thread::sleep(backoff);

                    let restore_t0 = Instant::now();
                    committed.extend(
                        store
                            .commit_complete_generations(&spec, self.job.model)
                            .map_err(io_err)?,
                    );
                    resume = store
                        .load_latest(&spec, self.job.model)
                        .map(|r| r.generation)
                        .unwrap_or(0);
                    incidents.push(ProcIncident {
                        attempt: attempt - 1,
                        cause,
                        dead_ranks,
                        at_progress,
                        detect_s,
                        restored_generation: resume,
                        restore_s: restore_t0.elapsed().as_secs_f64(),
                        backoff_s: backoff.as_secs_f64(),
                    });
                }
            }
        }
    }

    /// Best degraded `(p, t, d)` for `capacity` survivors: the elastic
    /// layout picker (shared with the in-process supervisor) plus the
    /// process-mode constraint that the global batch stays divisible by
    /// `d · microbatch`.
    pub fn pick_degraded_spec(&self, capacity: usize) -> Option<PtdpSpec> {
        let spec = self.job.spec();
        let cost = crate::supervisor::job_cost_model(&spec, self.job.model, self.job.batch);
        cost.enumerate(capacity)
            .into_iter()
            .filter(|&(_, t, _)| !spec.vocab_parallel || self.job.model.vocab.is_multiple_of(t))
            .filter(|&(_, _, d)| self.job.batch.is_multiple_of(d * self.job.microbatch))
            .min_by(|&a, &b| {
                let (ca, cb) = (
                    cost.iteration_s(a.0, a.1, a.2),
                    cost.iteration_s(b.0, b.1, b.2),
                );
                ca.partial_cmp(&cb).unwrap().then(a.cmp(&b))
            })
            .map(|(p, t, d)| PtdpSpec {
                pipeline: p,
                tensor: t,
                data: d,
                ..spec
            })
    }

    /// Run one segment (a truncated or resumed job at some topology) to
    /// clean completion, then seal its boundary generations.
    fn run_segment(
        &self,
        job: &JobSpec,
        tag: &str,
        committed: &mut Vec<usize>,
    ) -> std::io::Result<(ProcOutcome, f64)> {
        let store = self.store()?;
        let t0 = Instant::now();
        let handle = launch_configured(job, &self.root.join(tag), Some(&self.ckpt_root()), None)?;
        let out = handle.wait();
        if !out.ok() {
            return Err(std::io::Error::other(format!(
                "elastic segment {tag} failed: exits {:?}, missing {:?}",
                out.exits, out.missing
            )));
        }
        committed.extend(
            store
                .commit_complete_generations(&job.spec(), job.model)
                .map_err(|e| std::io::Error::other(e.to_string()))?,
        );
        Ok((out, t0.elapsed().as_secs_f64()))
    }

    /// Elastic supervised run for one capacity dip: on
    /// [`CapacityEvent::Lost`] the world shrinks to the best degraded
    /// `(p, t, d)` the survivors support (through the cross-topology
    /// canonical checkpoint path), and on [`CapacityEvent::Returned`] it
    /// grows back at the next checkpoint boundary. Each topology change
    /// happens at a sealed generation, so every segment restores
    /// bit-identical state and the merged run matches a fault-free one.
    ///
    /// Requires the canonical layout, i.e. `shard_optimizer == false`.
    pub fn run_elastic(&self, events: &[CapacityEvent]) -> std::io::Result<ElasticProcReport> {
        assert!(
            !self.job.shard_optimizer,
            "elastic reconfiguration needs the canonical checkpoint layout \
             (ZeRO-1 shards are topology-bound)"
        );
        let spec = self.job.spec();
        let world = spec.world();
        let k = self.job.checkpoint_every;
        let iters = self.job.iters;
        let boundary = |it: usize| it.div_ceil(k) * k;
        let lost = events.iter().find_map(|e| match e {
            CapacityEvent::Lost { iteration, ranks } => Some((*iteration, *ranks)),
            _ => None,
        });
        let returned = events.iter().find_map(|e| match e {
            CapacityEvent::Returned { iteration, .. } => Some(*iteration),
            _ => None,
        });

        let mut committed = Vec::new();
        let mut segments = Vec::new();
        let mut reconfigurations = Vec::new();
        let mut merged_losses = vec![0.0f32; iters];
        let merge = |merged: &mut Vec<f32>, losses: &[f32]| {
            for (slot, v) in merged.iter_mut().zip(losses) {
                if *v != 0.0 {
                    *slot = *v;
                }
            }
        };

        // Segment plan: full spec to the shrink boundary, degraded spec
        // to the grow boundary, full spec to the end.
        let (cut, lost_ranks) = lost.unwrap_or((iters, 0));
        let cut = boundary(cut).min(iters);
        let grow = boundary(returned.unwrap_or(iters)).clamp(cut, iters);

        let mut job_a = self.job;
        job_a.iters = cut;
        job_a.epoch = 0;
        let (mut outcome, wall_a) = self.run_segment(&job_a, "seg-0-full", &mut committed)?;
        merge(&mut merged_losses, &outcome.losses);
        segments.push(ProcSegment {
            spec: (spec.pipeline, spec.tensor, spec.data),
            from_iter: 0,
            to_iter: cut,
            wall_s: wall_a,
        });

        if cut < iters && lost_ranks > 0 {
            let capacity = world.saturating_sub(lost_ranks).max(1);
            let degraded = self.pick_degraded_spec(capacity).ok_or_else(|| {
                std::io::Error::other(format!("no viable degraded layout for capacity {capacity}"))
            })?;
            let store = self.store()?;
            if grow > cut {
                let restore_t0 = Instant::now();
                let gen = store
                    .load_latest(&degraded, self.job.model)
                    .map_err(|e| std::io::Error::other(e.to_string()))?
                    .generation;
                let mut job_b = self.job;
                job_b.pipeline = degraded.pipeline;
                job_b.tensor = degraded.tensor;
                job_b.data = degraded.data;
                job_b.resume_from = gen;
                job_b.iters = grow;
                job_b.epoch = 1;
                reconfigurations.push(Reconfiguration {
                    at_iter: cut,
                    generation: gen,
                    from: (spec.pipeline, spec.tensor, spec.data),
                    to: (degraded.pipeline, degraded.tensor, degraded.data),
                    direction: ReconfigureDirection::Shrink,
                    capacity,
                    restore_s: restore_t0.elapsed().as_secs_f64(),
                });
                let (out_b, wall_b) = self.run_segment(&job_b, "seg-1-degraded", &mut committed)?;
                merge(&mut merged_losses, &out_b.losses);
                segments.push(ProcSegment {
                    spec: (degraded.pipeline, degraded.tensor, degraded.data),
                    from_iter: cut,
                    to_iter: grow,
                    wall_s: wall_b,
                });
                outcome = out_b;
            }
            if grow < iters {
                let restore_t0 = Instant::now();
                let gen = store
                    .load_latest(&spec, self.job.model)
                    .map_err(|e| std::io::Error::other(e.to_string()))?
                    .generation;
                let mut job_c = self.job;
                job_c.resume_from = gen;
                job_c.epoch = 2;
                reconfigurations.push(Reconfiguration {
                    at_iter: grow,
                    generation: gen,
                    from: (degraded.pipeline, degraded.tensor, degraded.data),
                    to: (spec.pipeline, spec.tensor, spec.data),
                    direction: ReconfigureDirection::Grow,
                    capacity: world,
                    restore_s: restore_t0.elapsed().as_secs_f64(),
                });
                let (out_c, wall_c) = self.run_segment(&job_c, "seg-2-full", &mut committed)?;
                merge(&mut merged_losses, &out_c.losses);
                segments.push(ProcSegment {
                    spec: (spec.pipeline, spec.tensor, spec.data),
                    from_iter: grow,
                    to_iter: iters,
                    wall_s: wall_c,
                });
                outcome = out_c;
            }
        }

        outcome.losses = merged_losses;
        Ok(ElasticProcReport {
            outcome,
            reconfigurations,
            committed,
            segments,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_spec_round_trips_through_json() {
        let mut job = JobSpec::canonical(2, 2, 2);
        job.wire = WireKind::Tcp;
        job.retry = true;
        job.lr = 0.012_345_7;
        job.schedule = ScheduleKind::GPipe;
        let back = JobSpec::from_json(&job.to_json()).unwrap();
        assert_eq!(job, back);
        let inter = JobSpec {
            schedule: ScheduleKind::Interleaved { chunks: 2 },
            chunks: 2,
            ..JobSpec::canonical(2, 1, 1)
        };
        assert_eq!(JobSpec::from_json(&inter.to_json()).unwrap(), inter);
    }

    #[test]
    fn matrix_frames_round_trip_bit_exactly() {
        let m = Matrix::from_fn(3, 5, |r, c| (r * 5 + c) as f32 * 0.1 - 0.7);
        let back = frame_matrix(&matrix_frame(&m)).unwrap();
        assert_eq!(back.rows(), 3);
        assert_eq!(back.cols(), 5);
        assert_eq!(m.as_slice(), back.as_slice());
        assert!(
            frame_matrix(&[2.0, 2.0, 1.0]).is_none(),
            "torn frame rejected"
        );
    }

    #[test]
    fn canonical_job_matches_inprocess_inputs() {
        let job = JobSpec::canonical(2, 2, 2);
        let spec = job.spec();
        assert_eq!(spec.world(), 8);
        let data = job.dataset();
        assert_eq!(data.len(), 2);
        assert_eq!(data[0].0.len(), 8 * job.model.seq);
        // Same seeds → same master weights in every process.
        let a = job.master();
        let b = job.master();
        assert_eq!(a.cfg, b.cfg);
    }

    #[test]
    fn resume_fields_default_to_zero_for_old_job_json() {
        // A job.json written before the self-healing fields existed must
        // still parse (fresh run, no checkpointing).
        let job = JobSpec::canonical(2, 1, 1);
        let mut j = Json::parse(&job.to_json()).unwrap();
        if let Json::Obj(m) = &mut j {
            for k in ["checkpoint_every", "resume_from", "epoch"] {
                m.remove(k);
            }
        }
        let back = JobSpec::from_json(&j.to_string()).unwrap();
        assert_eq!(back.checkpoint_every, 0);
        assert_eq!(back.resume_from, 0);
        assert_eq!(back.epoch, 0);
    }

    #[test]
    fn seeds_round_trip_over_the_full_u64_range() {
        let mut job = JobSpec::canonical(2, 2, 2);
        for seed in [u64::MAX, (1 << 53) + 1, 0] {
            job.model_seed = seed;
            job.data_seed = seed ^ 1;
            let back = JobSpec::from_json(&job.to_json()).unwrap();
            assert_eq!((back.model_seed, back.data_seed), (seed, seed ^ 1));
        }
        // Files written before seeds became strings carry plain numbers.
        let mut j = Json::parse(&JobSpec::canonical(2, 2, 2).to_json()).unwrap();
        if let Json::Obj(m) = &mut j {
            m.insert("model_seed".into(), Json::Num(7.0));
            m.insert("data_seed".into(), Json::Num(11.0));
        }
        let back = JobSpec::from_json(&j.to_string()).unwrap();
        assert_eq!(back, JobSpec::canonical(2, 2, 2));
    }

    #[test]
    fn malformed_integer_fields_are_errors() {
        let base = Json::parse(&JobSpec::canonical(2, 2, 2).to_json()).unwrap();
        let with = |k: &str, v: Json| {
            let mut j = base.clone();
            if let Json::Obj(m) = &mut j {
                m.insert(k.into(), v);
            }
            JobSpec::from_json(&j.to_string())
        };
        for k in [
            "p",
            "iters",
            "batch",
            "comm_timeout_ms",
            "checkpoint_every",
            "model_seed",
        ] {
            for bad in [-1.0, 2.5, 1e300] {
                let err = with(k, Json::Num(bad)).expect_err(&format!("{k} = {bad}"));
                assert!(err.contains(k), "error names the field: {err}");
            }
            assert!(with(k, Json::Bool(true)).is_err(), "{k} = true");
        }
        assert!(with("lr_bits", Json::Num((1u64 << 32) as f64)).is_err());
        assert!(with("data_seed", Json::Str("-3".into())).is_err());
        assert!(with("data_seed", Json::Str("18446744073709551616".into())).is_err());
    }

    #[test]
    fn park_schedule_round_trips_through_json() {
        let parks = [
            ProcKill {
                rank: 4,
                after_iter: 1,
            },
            ProcKill {
                rank: 5,
                after_iter: 10,
            },
        ];
        assert_eq!(parks_from_json(&parks_json(&parks)).unwrap(), parks);
        assert!(parks_from_json(r#"[{"rank":-1,"after_iter":2}]"#).is_err());
        assert!(parks_from_json(r#"{"rank":1}"#).is_err());
    }

    #[test]
    fn fault_plan_round_trips_through_json() {
        let plan = SocketFaultPlan::seeded(0xfa117, 8);
        assert!(!plan.faults.is_empty());
        let back = SocketFaultPlan::from_json(&plan.to_json()).unwrap();
        assert_eq!(plan, back);
    }

    #[test]
    fn seeded_fault_plan_is_deterministic_and_in_range() {
        let a = SocketFaultPlan::seeded(7, 8);
        let b = SocketFaultPlan::seeded(7, 8);
        assert_eq!(a, b);
        for f in &a.faults {
            let rank = match f {
                SocketFault::Sever { rank, .. }
                | SocketFault::Refuse { rank, .. }
                | SocketFault::Slow { rank, .. } => *rank,
            };
            assert!(rank < 8);
        }
        // Per-rank filtering covers exactly the planned faults.
        let total: usize = (0..8).map(|r| a.for_rank(r).len()).sum();
        assert_eq!(total, a.faults.len());
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mproc-{}-{}", tag, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn stale_rendezvous_with_dead_pids_is_swept() {
        let dir = scratch("stale-dead");
        fs::write(dir.join("job.json"), "{}").unwrap();
        fs::write(dir.join("rank-0.addr"), "uds:/tmp/gone.sock").unwrap();
        // A pid that is certainly not running (pid_max is far below this).
        fs::write(dir.join("rank-0.pid"), "999999999").unwrap();
        fs::write(dir.join("launcher.addr"), "uds:/tmp/gone2.sock").unwrap();
        clear_stale_rendezvous(&dir).unwrap();
        assert!(!dir.join("job.json").exists());
        assert!(!dir.join("rank-0.addr").exists());
        assert!(!dir.join("rank-0.pid").exists());
        assert!(!dir.join("launcher.addr").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_rendezvous_with_live_pid_is_refused() {
        let dir = scratch("stale-live");
        fs::write(dir.join("job.json"), "{}").unwrap();
        // Our own pid is definitely alive.
        fs::write(dir.join("rank-0.pid"), std::process::id().to_string()).unwrap();
        let err = clear_stale_rendezvous(&dir).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
        assert!(err.to_string().contains("still alive"), "{err}");
        // Nothing was deleted.
        assert!(dir.join("job.json").exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn degraded_spec_respects_batch_divisibility() {
        let mut job = JobSpec::canonical(2, 2, 2);
        job.checkpoint_every = 2;
        let dir = scratch("degrade");
        let sup = ProcSupervisor::new(&job, &dir);
        // 6 survivors: best layout must keep batch % (d·b) == 0.
        let picked = sup.pick_degraded_spec(6).expect("some layout fits");
        assert!(picked.world() <= 6);
        assert!(job.batch.is_multiple_of(picked.data * job.microbatch));
        let _ = fs::remove_dir_all(&dir);
    }
}
