//! Reproducibility: a run is a pure function of its seed.
//!
//! Every figure in EXPERIMENTS.md depends on this property — a reviewer
//! rerunning `reproduce_all` must get byte-identical tables.

use mnp_repro::prelude::*;

/// FNV-1a 64 of a JSONL log: the frozen digests below pin its bytes as
/// they were before the JSON writer was rewritten for speed, so a formatter
/// change that shifted every line alike would still fail here. Only
/// ROADMAP item 11's determinism-epoch bump re-records them.
fn log_digest(log: &str) -> u64 {
    log.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
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
    let log_for = |seed: u64| {
        let log = Shared::new(JsonlLogger::new());
        let out = GridExperiment::new(4, 4, 10.0)
            .segments(1)
            .seed(seed)
            .run_observed::<Mnp>(|_| {}, Instruments::observing(log.clone()));
        assert!(out.completed);
        let text = log.borrow().as_str().to_owned();
        text
    };
    let a = log_for(77);
    let b = log_for(77);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must replay the same event log");
    assert_eq!(
        log_digest(&a),
        0x3296_448d_46a5_4f3c,
        "seed 77 log bytes moved"
    );

    let c = log_for(78);
    assert_ne!(a, c, "different seeds should produce different logs");
}

#[test]
fn deluge_event_logs_are_also_byte_identical() {
    // The engine components under Deluge (timer muxes, forward vector)
    // must not perturb its schedule either.
    let log_for = |seed: u64| {
        let log = Shared::new(JsonlLogger::new());
        let out = GridExperiment::new(4, 4, 10.0)
            .segments(1)
            .seed(seed)
            .run_observed::<Deluge>(|_| {}, Instruments::observing(log.clone()));
        assert!(out.completed);
        let text = log.borrow().as_str().to_owned();
        text
    };
    let a = log_for(77);
    let b = log_for(77);
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed must replay the same event log");

    let c = log_for(78);
    assert_ne!(a, c, "different seeds should produce different logs");
}

#[test]
fn coded_event_logs_are_byte_identical() {
    // The coded protocols draw extra randomness (coefficient seeds from
    // the node RNG) — that randomness must come from the seeded stream,
    // never from ambient state, so same-seed replays stay byte-identical.
    let log_rlnc = |seed: u64| {
        let log = Shared::new(JsonlLogger::new());
        let out = GridExperiment::new(4, 4, 10.0)
            .segments(1)
            .seed(seed)
            .run_observed::<Rlnc>(|_| {}, Instruments::observing(log.clone()));
        assert!(out.completed);
        let text = log.borrow().as_str().to_owned();
        text
    };
    let log_xor = |seed: u64| {
        let log = Shared::new(JsonlLogger::new());
        let out = GridExperiment::new(4, 4, 10.0)
            .segments(1)
            .seed(seed)
            .run_observed::<Xor>(|_| {}, Instruments::observing(log.clone()));
        assert!(out.completed);
        let text = log.borrow().as_str().to_owned();
        text
    };
    let a = log_rlnc(77);
    assert!(!a.is_empty());
    assert_eq!(a, log_rlnc(77), "same seed must replay the same RLNC log");
    assert_ne!(a, log_rlnc(78), "different seeds should differ");

    let x = log_xor(77);
    assert!(!x.is_empty());
    assert_eq!(x, log_xor(77), "same seed must replay the same XOR log");
    assert_ne!(x, a, "the two coded protocols produce different schedules");
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
    let plan = || {
        FaultPlan::seeded(5)
            .crash_restart(NodeId(5), SimTime::from_secs(12), SimDuration::from_secs(9))
            .link_flap(
                NodeId(0),
                NodeId(1),
                SimTime::from_secs(6),
                SimDuration::from_secs(4),
                1.0,
            )
            .storage_faults(NodeId(3), SimTime::from_secs(4), 2)
            .random_crash_restarts(
                2,
                &[NodeId(2), NodeId(7), NodeId(11)],
                (SimTime::from_secs(5), SimTime::from_secs(60)),
                (SimDuration::from_secs(3), SimDuration::from_secs(12)),
            )
    };
    let log_for = |faults: Option<FaultPlan>| {
        let log = Shared::new(JsonlLogger::new());
        let mut scenario = GridExperiment::new(4, 4, 10.0).segments(1).seed(77);
        if let Some(p) = faults {
            scenario = scenario.faults(p);
        }
        let out = scenario.run_observed::<Mnp>(|_| {}, Instruments::observing(log.clone()));
        assert!(out.completed, "transient faults must not cost completion");
        let text = log.borrow().as_str().to_owned();
        text
    };
    let a = log_for(Some(plan()));
    let b = log_for(Some(plan()));
    assert!(!a.is_empty());
    assert_eq!(a, b, "same seed + same plan must replay the same log");
    assert_eq!(
        log_digest(&a),
        0x0c03_7794_333e_4ec4,
        "faulted log bytes moved"
    );

    let clean = log_for(None);
    assert_ne!(a, clean, "the faults must actually perturb the run");
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
        0xdfc1_3a92_dc52_512a,
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
