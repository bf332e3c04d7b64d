//! Dumps the seeded JSONL event logs of the determinism seed set to a
//! directory, so a refactor can prove wire behaviour unchanged by diffing
//! the files produced before and after:
//!
//! ```text
//! cargo run --release --example dump_logs -- /tmp/logs_before
//! # ... refactor ...
//! cargo run --release --example dump_logs -- /tmp/logs_after
//! diff -r /tmp/logs_before /tmp/logs_after
//! ```
//!
//! An optional `--shards N` runs every scenario on the N-way sharded
//! kernel; the output must not change, which is exactly how CI proves the
//! sharded merge byte-identical:
//!
//! ```text
//! cargo run --release --example dump_logs -- /tmp/logs_s1
//! cargo run --release --example dump_logs -- /tmp/logs_s4 --shards 4
//! diff -r /tmp/logs_s1 /tmp/logs_s4
//! ```
//!
//! The scenarios mirror `tests/determinism.rs`: MNP, Deluge, and the
//! coded protocols (RLNC, XOR) on a 4×4 grid, with and without a fault
//! plan, plus the capture-effect variant and a mobile (random-waypoint
//! with churn) field.

use mnp_repro::prelude::*;

fn fault_plan() -> FaultPlan {
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
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut dir = None;
    let mut shards = 1usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--shards" {
            shards = it
                .next()
                .and_then(|v| v.parse().ok())
                .expect("--shards takes a positive integer");
        } else {
            dir = Some(arg.clone());
        }
    }
    let dir = dir.expect("usage: dump_logs OUT_DIR [--shards N]");
    std::fs::create_dir_all(&dir).expect("create output directory");

    let scenarios: [(&str, u64, bool, bool); 10] = [
        ("mnp_seed77", 77, false, false),
        ("mnp_seed78", 78, false, false),
        ("mnp_seed77_faults", 77, true, false),
        ("mnp_seed77_capture", 77, false, true),
        ("deluge_seed77", 77, false, false),
        ("deluge_seed78", 78, false, false),
        ("rlnc_seed77", 77, false, false),
        ("rlnc_seed77_faults", 77, true, false),
        ("xor_seed77", 77, false, false),
        ("xor_seed77_faults", 77, true, false),
    ];
    for (name, seed, faulted, capture) in scenarios {
        let log = Shared::new(JsonlLogger::new());
        let mut scenario = GridExperiment::new(4, 4, 10.0)
            .segments(1)
            .seed(seed)
            .shards(shards)
            .capture(capture);
        if faulted {
            scenario = scenario.faults(fault_plan());
        }
        // Scenario names start with the protocol's registry name.
        let protocol = name.split('_').next().and_then(ProtocolId::lookup);
        let out = scenario.run_named(
            protocol.expect("scenario names a registered protocol"),
            Instruments::observing(log.clone()),
        );
        assert!(out.completed, "{name} did not complete");
        let path = format!("{dir}/{name}.jsonl");
        std::fs::write(&path, log.borrow().as_str()).expect("write log");
        println!("wrote {path}");
    }

    // Mobile scenarios: motion (and churn) arrive through the same
    // owner-keyed event path as faults, so the sharded merge must replay
    // them byte-identically too.
    for (name, seed) in [("mobile_seed2", 2), ("mobile_seed3", 3)] {
        let log = Shared::new(JsonlLogger::new());
        let out = MobileExperiment::new(9)
            .seed(seed)
            .speed(2.0)
            .churn(1)
            .shards(shards)
            .run_observed::<Mnp>(|_| {}, Instruments::observing(log.clone()));
        assert!(out.completed, "{name} did not complete");
        let path = format!("{dir}/{name}.jsonl");
        std::fs::write(&path, log.borrow().as_str()).expect("write log");
        println!("wrote {path}");
    }
}
