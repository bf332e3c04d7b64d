//! Reproducibility: a run is a pure function of its seed.
//!
//! Every figure in EXPERIMENTS.md depends on this property — a reviewer
//! rerunning `reproduce_all` must get byte-identical tables.

use mnp_repro::experiments::resilience::grid4_fault_plan;
use mnp_repro::prelude::*;

/// FNV-1a 64 of a JSONL log: the frozen digests below pin its bytes, so a
/// formatter change that shifted every line alike would still fail here.
/// Only ROADMAP item 11's determinism-epoch bump re-records them, with one
/// exception already taken: when refreshed timeouts moved onto one kernel
/// timer (`engine::Deadline`), each log lost only `timer_set` and
/// `timer_fire` lines, every other line kept in order, and the digests
/// were re-recorded (old → new in CHANGES.md).
fn log_digest(log: &str) -> u64 {
    log.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The 4×4, one-segment grid every event-log test runs.
fn grid(seed: u64) -> GridExperiment {
    GridExperiment::new(4, 4, 10.0).segments(1).seed(seed)
}

/// The JSONL event log of one run of `P` on `scenario`, which must
/// complete.
fn event_log<P: Disseminator>(scenario: &GridExperiment) -> String {
    let (log, out) = run_log::<P>(scenario);
    assert!(out.completed, "{} run did not complete: {out}", P::NAME);
    log
}

/// The JSONL event log of one run of `P` on `scenario`, up to completion
/// or the deadline, and the run's outcome.
fn run_log<P: Disseminator>(scenario: &GridExperiment) -> (String, RunOutcome) {
    let log = Shared::new(JsonlLogger::new());
    let out = scenario.run_observed::<P>(|_| {}, Instruments::observing(log.clone()));
    let text = log.borrow().as_str().to_owned();
    (text, out)
}

fn fingerprint(out: &RunOutcome) -> Vec<(Option<u64>, Option<u32>, u64, u64)> {
    out.trace
        .iter()
        .map(|(_, s)| {
            (
                s.completion.map(|t| t.as_micros()),
                s.parent.map(|p| p.0),
                s.sent,
                s.received,
            )
        })
        .collect()
}

#[test]
fn identical_seeds_give_identical_runs() {
    let a = GridExperiment::new(6, 6, 10.0)
        .segments(1)
        .seed(77)
        .run::<Mnp>(|_| {});
    let b = GridExperiment::new(6, 6, 10.0)
        .segments(1)
        .seed(77)
        .run::<Mnp>(|_| {});
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.completion, b.completion);
    assert_eq!(fingerprint(&a), fingerprint(&b));
    assert_eq!(a.art_s, b.art_s);
    assert_eq!(a.collisions, b.collisions);
}

#[test]
fn different_seeds_give_different_runs() {
    let a = GridExperiment::new(5, 5, 10.0)
        .segments(1)
        .seed(1)
        .run::<Mnp>(|_| {});
    let b = GridExperiment::new(5, 5, 10.0)
        .segments(1)
        .seed(2)
        .run::<Mnp>(|_| {});
    assert_ne!(
        fingerprint(&a),
        fingerprint(&b),
        "different seeds should explore different schedules"
    );
}

#[test]
fn deluge_runs_are_also_deterministic() {
    let a = GridExperiment::new(5, 5, 10.0)
        .segments(1)
        .seed(3)
        .run::<Deluge>(|_| {});
    let b = GridExperiment::new(5, 5, 10.0)
        .segments(1)
        .seed(3)
        .run::<Deluge>(|_| {});
    assert_eq!(a.completion, b.completion);
    assert_eq!(fingerprint(&a), fingerprint(&b));
}

#[test]
fn config_tweaks_change_behaviour_deterministically() {
    let base = GridExperiment::new(5, 5, 10.0).segments(1).seed(4);
    let with_sleep = base.run::<Mnp>(|_| {});
    let no_sleep_1 = base.run::<Mnp>(|c| c.sleep_enabled = false);
    let no_sleep_2 = base.run::<Mnp>(|c| c.sleep_enabled = false);
    assert_eq!(fingerprint(&no_sleep_1), fingerprint(&no_sleep_2));
    assert_ne!(with_sleep.art_s, no_sleep_1.art_s);
}

#[test]
fn identical_seeds_give_byte_identical_event_logs() {
    // The observability layer inherits the determinism guarantee: the
    // JSONL event log — every state transition, transmission, reception,
    // drop, timer, and sleep interval — must be byte-for-byte identical
    // across runs of the same seed.
    let a = event_log::<Mnp>(&grid(77));
    assert!(!a.is_empty());
    assert_eq!(
        a,
        event_log::<Mnp>(&grid(77)),
        "same seed must replay the same event log"
    );
    assert_eq!(
        log_digest(&a),
        0x4dd0_aaff_0778_72bb,
        "seed 77 log bytes moved"
    );
    assert_ne!(
        a,
        event_log::<Mnp>(&grid(78)),
        "different seeds should produce different logs"
    );
}

// The baseline digests below (Deluge clean, RLNC and XOR clean and
// faulted) were first recorded before the three protocols were folded
// onto the one page-transfer skeleton (`paged.rs`), which left every byte
// of these logs where it was.

#[test]
fn deluge_event_logs_are_also_byte_identical() {
    // The engine components under Deluge (timer muxes, forward vector)
    // must not perturb its schedule either.
    let a = event_log::<Deluge>(&grid(77));
    assert!(!a.is_empty());
    assert_eq!(
        a,
        event_log::<Deluge>(&grid(77)),
        "same seed must replay the same event log"
    );
    assert_eq!(
        log_digest(&a),
        0x8d3c_abe8_0907_5be1,
        "Deluge seed 77 log bytes moved"
    );
    assert_ne!(
        a,
        event_log::<Deluge>(&grid(78)),
        "different seeds should produce different logs"
    );
}

#[test]
fn deluge_recovers_from_crash_restarts_and_write_faults() {
    // Deluge runs the skeleton's crash-restart (RAM wiped, flash kept,
    // stale timers filtered) and takes injected write faults like the
    // coded protocols. Its faulted digest was recorded when it got them:
    // before, a reboot re-ran `on_start` over the pre-crash RAM state
    // and write faults were ignored.
    let faulted = grid(77).faults(grid4_fault_plan()).check_invariants(true);
    let a = event_log::<Deluge>(&faulted);
    assert!(
        a.contains("\"ev\":\"restarted\""),
        "the crash-restarts must surface in the event log"
    );
    assert_eq!(
        a,
        event_log::<Deluge>(&faulted),
        "same seed + same plan must replay the same log"
    );
    assert_eq!(
        log_digest(&a),
        0x7d16_3ce6_2013_6447,
        "Deluge faulted seed 77 log bytes moved"
    );
}

#[test]
fn coded_event_logs_are_byte_identical() {
    // The coded protocols draw extra randomness (coefficient seeds from
    // the node RNG) — that randomness must come from the seeded stream,
    // never from ambient state, so same-seed replays stay byte-identical.
    let a = event_log::<Rlnc>(&grid(77));
    assert!(!a.is_empty());
    assert_eq!(
        a,
        event_log::<Rlnc>(&grid(77)),
        "same seed must replay the same RLNC log"
    );
    assert_ne!(
        a,
        event_log::<Rlnc>(&grid(78)),
        "different seeds should differ"
    );

    let x = event_log::<Xor>(&grid(77));
    assert!(!x.is_empty());
    assert_eq!(
        x,
        event_log::<Xor>(&grid(77)),
        "same seed must replay the same XOR log"
    );
    assert_ne!(x, a, "the two coded protocols produce different schedules");

    for (name, log, digest) in [
        ("RLNC", a, 0xcb8d_cfe2_1419_4c5a),
        ("XOR", x, 0xcd68_95be_96e9_48a2),
        (
            "RLNC faulted",
            event_log::<Rlnc>(&grid(77).faults(grid4_fault_plan())),
            0xd6c1_4fb5_b922_5557,
        ),
        (
            "XOR faulted",
            event_log::<Xor>(&grid(77).faults(grid4_fault_plan())),
            0x3d29_e60c_5dd2_a7de,
        ),
    ] {
        assert_eq!(log_digest(&log), digest, "{name} seed 77 log bytes moved");
    }
}

#[test]
fn moap_xnp_and_flood_event_logs_are_frozen() {
    // The three protocols without a frozen log elsewhere. On this grid
    // only MOAP completes; XNP and flood are pinned up to the deadline,
    // and their `completed` flag is pinned too, so a digest that starts
    // to mean "completed" fails here instead of drifting.
    fn check<P: Disseminator>(completes: bool, digest: u64) {
        let (log, out) = run_log::<P>(&grid(77));
        assert_eq!(out.completed, completes, "{} completion moved", P::NAME);
        assert_eq!(log_digest(&log), digest, "{} log bytes moved", P::NAME);
    }
    check::<Moap>(true, 0x1e24_e2e5_1411_f8b4);
    check::<Xnp>(false, 0x7ce2_ffaf_bb46_8c09);
    check::<Flood>(false, 0x3cad_3664_ef15_d78a);
}

#[test]
fn sharded_coded_runs_give_byte_identical_event_logs() {
    // The sharded lockstep kernel must replay the coded protocols'
    // sequential schedules byte for byte too — their extra RNG draws and
    // multi-destination recoded frames cross shard boundaries.
    let log_for = |shards: usize, xor: bool| {
        let log = Shared::new(JsonlLogger::new());
        let scenario = GridExperiment::new(4, 4, 10.0)
            .segments(1)
            .seed(77)
            .shards(shards);
        let out = if xor {
            scenario.run_observed::<Xor>(|_| {}, Instruments::observing(log.clone()))
        } else {
            scenario.run_observed::<Rlnc>(|_| {}, Instruments::observing(log.clone()))
        };
        assert!(out.completed, "{shards}-shard run did not complete");
        let text = log.borrow().as_str().to_owned();
        text
    };
    for xor in [false, true] {
        let name = if xor { "xor" } else { "rlnc" };
        let seq = log_for(1, xor);
        assert!(!seq.is_empty());
        let sharded = log_for(4, xor);
        assert_eq!(
            sharded, seq,
            "{name}: 4-shard log diverged from the sequential kernel"
        );
    }
}

#[test]
fn capture_enabled_event_logs_are_byte_identical() {
    // The capture-effect branch takes a different path through the
    // medium's pooled delivery (a cleaner locked signal survives an
    // overlap instead of both frames corrupting); the recycled payload
    // cells and listener buffers must not leak any run-to-run state into
    // the schedule there either.
    let log_for = |seed: u64| {
        let log = Shared::new(JsonlLogger::new());
        let out = GridExperiment::new(4, 4, 10.0)
            .segments(1)
            .seed(seed)
            .capture(true)
            .run_observed::<Mnp>(|_| {}, Instruments::observing(log.clone()));
        assert!(out.completed);
        let text = log.borrow().as_str().to_owned();
        text
    };
    let a = log_for(77);
    let b = log_for(77);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must replay the same event log");
}

#[test]
fn faulted_runs_replay_byte_identically() {
    // Fault injection must not cost reproducibility: a FaultPlan is fixed
    // before the run and delivered through the event queue, so the same
    // network seed plus the same plan replays the same JSONL event log
    // byte for byte — crashes, reboots, flaps, write faults and all.
    let faulted = grid(77).faults(grid4_fault_plan());
    let a = event_log::<Mnp>(&faulted);
    assert!(!a.is_empty());
    assert_eq!(
        a,
        event_log::<Mnp>(&faulted),
        "same seed + same plan must replay the same log"
    );
    assert_eq!(
        log_digest(&a),
        0x5fdb_9b43_8db6_ccf4,
        "faulted log bytes moved"
    );
    assert_ne!(
        a,
        event_log::<Mnp>(&grid(77)),
        "the faults must actually perturb the run"
    );
    assert!(
        a.contains("\"ev\":\"restarted\""),
        "the crash-restart must surface in the event log"
    );
}

#[test]
fn sharded_runs_give_byte_identical_event_logs() {
    // The sharded kernel is an execution strategy, not a model change:
    // whatever the shard count, a seeded run must emit the exact JSONL
    // event log of the sequential kernel — same events, same order, same
    // bytes. Faults are included so kills, reboots and link flaps cross
    // shard boundaries too.
    let log_for = |shards: usize| {
        let log = Shared::new(JsonlLogger::new());
        let plan = FaultPlan::seeded(5)
            .crash_restart(NodeId(5), SimTime::from_secs(12), SimDuration::from_secs(9))
            .link_flap(
                NodeId(0),
                NodeId(1),
                SimTime::from_secs(6),
                SimDuration::from_secs(4),
                1.0,
            )
            .storage_faults(NodeId(3), SimTime::from_secs(4), 2);
        let out = GridExperiment::new(4, 4, 10.0)
            .segments(1)
            .seed(77)
            .faults(plan)
            .shards(shards)
            .run_observed::<Mnp>(|_| {}, Instruments::observing(log.clone()));
        assert!(out.completed, "{shards}-shard run did not complete");
        let text = log.borrow().as_str().to_owned();
        (text, out.events, out.completion)
    };
    let (seq_log, seq_events, seq_done) = log_for(1);
    assert!(!seq_log.is_empty());
    for shards in [2, 4] {
        let (log, events, done) = log_for(shards);
        if log != seq_log {
            let byte = log
                .bytes()
                .zip(seq_log.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(log.len().min(seq_log.len()));
            let line = seq_log[..byte].matches('\n').count();
            panic!(
                "{shards}-shard log diverged from sequential at byte {byte} (line {line}): \
                 lengths {} vs {}",
                log.len(),
                seq_log.len()
            );
        }
        assert_eq!(events, seq_events, "{shards}-shard events_processed");
        assert_eq!(done, seq_done, "{shards}-shard completion instant");
    }
}

#[test]
fn mobile_runs_replay_byte_identically_at_any_shard_count() {
    // Motion is pre-materialized into a potential-edge topology plus a
    // deterministic SetLink schedule, so a mobile scenario inherits the
    // full determinism guarantee: same seed → same JSONL log, whatever
    // the shard count, churn included.
    let log_for = |seed: u64, shards: usize| {
        let log = Shared::new(JsonlLogger::new());
        let out = MobileExperiment::new(9)
            .seed(seed)
            .speed(2.0)
            .churn(1)
            .shards(shards)
            .run_observed::<Mnp>(|_| {}, Instruments::observing(log.clone()));
        assert!(out.completed, "{shards}-shard mobile run did not complete");
        let text = log.borrow().as_str().to_owned();
        text
    };
    let seq = log_for(2, 1);
    assert!(!seq.is_empty());
    assert!(
        seq.contains("\"ev\":\"link_change\""),
        "motion must surface as link_change events"
    );
    assert_eq!(log_for(2, 1), seq, "same seed must replay the same log");
    assert_eq!(
        log_digest(&seq),
        0x347f_b02a_549a_1fa2,
        "mobile log bytes moved"
    );
    for shards in [2, 4] {
        assert_eq!(
            log_for(2, shards),
            seq,
            "{shards}-shard mobile log diverged from the sequential kernel"
        );
    }
    assert_ne!(log_for(3, 1), seq, "different seeds should differ");
}

#[test]
fn attaching_observers_never_changes_delivery() {
    // The kernel reads the outcome's drop columns and the protocols' state
    // labels only when observers are attached. That guard must never steer
    // a run: each protocol, and MNP under the fault plan, runs once bare
    // and once with every observer attached, and the two runs must agree.
    fn check<P: Disseminator>(scenario: &GridExperiment, name: &str) {
        let bare = scenario.run::<P>(|_| {});
        assert!(bare.completed, "{name} run did not complete: {bare}");
        let instruments = Instruments {
            observers: vec![
                Box::new(JsonlLogger::new()),
                Box::new(MetricsRegistry::new()),
                Box::new(InvariantMonitor::new()),
            ],
            sampler: None,
        };
        let watched = scenario.run_observed::<P>(|_| {}, instruments);
        assert_eq!(fingerprint(&watched), fingerprint(&bare), "{name}");
        assert_eq!(watched.events, bare.events, "{name} events_processed");
    }
    check::<Mnp>(&grid(77), "MNP");
    check::<Deluge>(&grid(77), "Deluge");
    check::<Rlnc>(&grid(77), "RLNC");
    check::<Xor>(&grid(77), "XOR");
    check::<Mnp>(&grid(77).faults(grid4_fault_plan()), "MNP faulted");
}

#[test]
fn refreshed_timeouts_queue_no_event_per_packet() {
    // A receiver refreshes its timeout on every data packet. With one
    // kernel timer per deadline those refreshes queue nothing, so the
    // kernel's event count stays near the frame count. A timer per
    // refresh gave the counts quoted in the messages.
    let mnp = grid(77).run::<Mnp>(|_| {});
    assert_eq!(
        mnp.events, 3_922,
        "MNP 4x4 seed 77 (timer per refresh: 10 043)"
    );
    let rlnc = grid(77).run::<Rlnc>(|_| {});
    assert_eq!(
        rlnc.events, 7_689,
        "RLNC 4x4 seed 77 (timer per refresh: 11 522)"
    );
}

#[test]
fn seed_sweep_always_completes() {
    // Robustness across randomness: no seed in a small sweep may fail
    // coverage on a connected grid.
    for seed in 10..20 {
        let out = GridExperiment::new(4, 4, 10.0)
            .segments(1)
            .seed(seed)
            .run::<Mnp>(|_| {});
        assert!(out.completed, "seed {seed} failed: {out}");
    }
}
