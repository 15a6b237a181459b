//! Process-mode acceptance tests (harness = false: this binary re-execs
//! **itself** as the rank workers, so it must own `main`).
//!
//! 1. The seeded canonical (2,2,2) job launched as **8 OS processes over
//!    Unix-domain sockets** produces bit-identical losses and final
//!    parameters to the in-process mailbox run, with per-GPU socket byte
//!    counts equal to the comm-tape's closed forms (the same §3 identities
//!    `tests/real_vs_sim_bytes.rs` proves against the simulator).
//! 2. Heartbeats flow over the socket transport: SIGKILLing one rank
//!    process leaves it classified **dead** by the launcher-side
//!    [`HealthMonitor`](megatron_repro::dist::HealthMonitor) while the
//!    stalled survivors keep beating.
//! 3. Self-healing: a SIGKILL mid-run is detected by the
//!    [`ProcSupervisor`](megatron_repro::dist::ProcSupervisor), which
//!    restores the latest durable generation and respawns; the healed
//!    run's final parameters are bit-identical to a fault-free run.

use std::path::PathBuf;
use std::time::{Duration, Instant};

use megatron_repro::dist::proc::{
    launch, launch_parked, maybe_worker, JobSpec, ProcKill, ProcSupervisor,
};
use megatron_repro::dist::PtdpTrainer;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("megatron-procmode-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn eight_uds_processes_bit_identical_to_in_process() {
    let job = JobSpec::canonical(2, 2, 2);
    let dir = scratch("bitident");
    let handle = launch(&job, &dir).expect("launch 8 rank processes");
    let out = handle.wait();
    assert!(
        out.ok(),
        "process run failed: missing={:?} errors={:?}",
        out.missing,
        out.outputs
            .values()
            .filter_map(|o| o.error.clone())
            .collect::<Vec<_>>()
    );

    // The same job, in-process (threads + mailbox transport).
    let spec = job.spec();
    let log = PtdpTrainer::new(job.master(), spec).train(&job.dataset());

    assert_eq!(out.losses, log.losses, "losses must be bit-identical");
    assert_eq!(out.outputs.len(), spec.world());
    let mut total_bytes = 0.0;
    for (key, o) in &out.outputs {
        assert_eq!(
            o.params, log.final_params[key],
            "final params differ at {key:?}"
        );
        assert_eq!(
            o.volume, log.comm_volumes[key],
            "socket-measured comm volume differs at {key:?}"
        );
        // The §3 identity, per GPU: bytes measured on the socket wire ==
        // bytes the rank's op tape implies via the ring closed forms.
        assert_eq!(
            o.tape_bytes,
            o.volume.total_bytes(),
            "closed-form bytes != socket bytes at {key:?}"
        );
        assert!(o.steps >= job.iters, "rank {key:?} finished every step");
        total_bytes += o.volume.total_bytes();
    }
    assert!(total_bytes > 0.0, "run moved no bytes — vacuous identity");

    let _ = std::fs::remove_dir_all(&dir);
    println!("ok - eight_uds_processes_bit_identical_to_in_process");
}

fn sigkilled_rank_process_classified_dead() {
    let mut job = JobSpec::canonical(2, 2, 2);
    // Long enough to be running when the kill lands; the handle kills the
    // survivors afterwards (and on drop), so this bound is never reached.
    job.iters = 100_000;
    // Survivors must still be stalled-but-alive at classification time.
    job.comm_timeout = Duration::from_secs(30);
    job.hb_period = Duration::from_millis(20);
    let spec = job.spec();
    let world = spec.world();
    let dir = scratch("sigkill");
    // The victim parks after iteration 1, so it is alive when the kill
    // lands, and every rank has finished set-up and iteration 1: the
    // survivors then sit blocked on the victim rather than competing with
    // their beacons for the CPU.
    let victim = 3; // thread (0, 1, 1)
    let park = ProcKill {
        rank: victim,
        after_iter: 1,
    };
    let handle = launch_parked(&job, &dir, None, None, &[park]).expect("launch 8 rank processes");
    let monitor = handle.monitor();

    // Wait until every rank's beacon has pulsed a few times.
    let t0 = Instant::now();
    while (0..world).any(|r| monitor.beats(r) < 3) {
        assert!(
            t0.elapsed() < Duration::from_secs(30),
            "workers never started beating: {:?}",
            (0..world).map(|r| monitor.beats(r)).collect::<Vec<_>>()
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    while !handle.kill_due(park) {
        assert!(
            t0.elapsed() < Duration::from_secs(60),
            "victim never parked after iteration 1"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    assert!(handle.kill_rank(victim), "SIGKILL rank {victim}");
    // dead-after is 4 heartbeat periods (80 ms); give it 5×.
    std::thread::sleep(Duration::from_millis(400));

    let report = monitor.classify(25.0);
    let victim_key = spec.thread_key(victim);
    assert!(
        report.dead().contains(&victim_key),
        "SIGKILLed rank {victim_key:?} not classified dead: {:?}",
        report.ranks
    );
    for r in 0..world {
        if r != victim {
            let key = spec.thread_key(r);
            assert!(
                !report.dead().contains(&key),
                "survivor {key:?} (still beating via its beacon) classified dead: {:?}",
                report.ranks
            );
        }
    }

    handle.kill_all();
    let out = handle.wait();
    assert!(
        out.missing.contains(&victim_key),
        "a SIGKILLed rank leaves no output file"
    );
    let _ = std::fs::remove_dir_all(&dir);
    println!("ok - sigkilled_rank_process_classified_dead");
}

/// 3. Self-healing round-trip: SIGKILL a rank mid-run, the supervisor
///    restores the latest durable generation, respawns the job pinned at
///    it, and the healed run's final parameters are bit-identical to a
///    fault-free process run of the same job.
fn supervisor_respawn_round_trip_bit_identical() {
    let mut job = JobSpec::canonical(2, 2, 2);
    job.iters = 6;
    job.checkpoint_every = 2;
    job.retry = true;

    // Fault-free reference, as real processes.
    let clean_dir = scratch("respawn-clean");
    let clean = launch(&job, &clean_dir)
        .expect("launch fault-free run")
        .wait();
    assert!(clean.ok(), "fault-free process run failed");

    // Same job under supervision, rank 3 SIGKILLed after 2 iterations.
    let root = scratch("respawn-chaos");
    let sup = ProcSupervisor::new(&job, &root);
    let report = sup
        .run(
            &[ProcKill {
                rank: 3,
                after_iter: 2,
            }],
            None,
        )
        .expect("supervised run must heal within its restart budget");

    assert!(report.attempts >= 2, "the SIGKILL must force a respawn");
    assert!(
        !report.incidents.is_empty(),
        "the SIGKILL must be recorded as an incident"
    );
    assert!(
        report.incidents[0].dead_ranks.contains(&3),
        "incident must name the SIGKILLed rank: {:?}",
        report.incidents[0]
    );
    assert!(
        report.outcome.ok(),
        "healed run's final attempt was not clean"
    );
    assert_eq!(
        report.outcome.losses.len(),
        job.iters,
        "healed run must report every iteration's loss"
    );

    let spec = job.spec();
    assert_eq!(report.outcome.outputs.len(), spec.world());
    for (key, o) in &report.outcome.outputs {
        assert_eq!(
            o.params, clean.outputs[key].params,
            "healed params differ from fault-free at {key:?}"
        );
    }

    let _ = std::fs::remove_dir_all(&clean_dir);
    let _ = std::fs::remove_dir_all(&root);
    println!("ok - supervisor_respawn_round_trip_bit_identical");
}

fn main() {
    // Rank-worker re-entry: `--proc-worker <dir> <rank>` runs the worker
    // and exits, everything else falls through to the tests.
    maybe_worker();

    eight_uds_processes_bit_identical_to_in_process();
    sigkilled_rank_process_classified_dead();
    supervisor_respawn_round_trip_bit_identical();
    println!("process_mode: all tests passed");
}
