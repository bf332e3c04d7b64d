//! The seeded-log table: every scenario whose JSONL event log is the
//! refactoring licence, with the FNV-1a digest of that log frozen in the
//! same row.
//!
//! `examples/dump_logs.rs` writes one file per row, `tests/determinism.rs`
//! checks every row's completion flag and digest, and the registry test
//! checks that every row's trace, medium and metrics agree. A change that
//! moves a log's bytes re-records the row's digest here and says why
//! (old → new) in CHANGES.md.

use std::sync::Arc;

use mnp_net::FaultPlan;
use mnp_obs::{JsonlLogger, Shared};
use mnp_radio::NodeId;
use mnp_sim::{SimDuration, SimTime};

use crate::mobility::MobileExperiment;
use crate::registry::ProtocolId;
use crate::runner::{GridExperiment, Instruments, RunOutcome, Scenario, Site};

/// One seeded run whose event log is frozen.
#[derive(Clone, Copy, Debug)]
pub struct SeededLog {
    /// The registry name of the protocol that disseminates.
    pub protocol: &'static str,
    /// What it runs on.
    pub scenario: LogScenario,
    /// Whether every node completes before the deadline. XNP and flood
    /// do not on the 4×4 grid: their logs run to the deadline.
    pub completes: bool,
    /// [`log_digest`] of the run's JSONL log.
    pub digest: u64,
}

/// The scenario of a [`SeededLog`], at its seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LogScenario {
    /// [`grid4`].
    Grid(u64),
    /// [`grid4`] under one fault plan: a scheduled and two random
    /// crash-restarts, a link flap and two storage write faults.
    Faulted(u64),
    /// [`grid4`] with the radio capture effect.
    Capture(u64),
    /// Nine motes under random waypoint at 2 ft/s, with one churn
    /// crash-restart.
    Mobile(u64),
}

use LogScenario::{Capture, Faulted, Grid, Mobile};

const fn row(
    protocol: &'static str,
    scenario: LogScenario,
    completes: bool,
    digest: u64,
) -> SeededLog {
    SeededLog {
        protocol,
        scenario,
        completes,
        digest,
    }
}

/// Every seeded log, clean and faulted for each registered protocol.
/// Columns: protocol, scenario, completes, digest.
#[rustfmt::skip]
pub const SEEDED_LOGS: &[SeededLog] = &[
    row("mnp", Grid(77), true, 0x4dd0_aaff_0778_72bb),
    row("mnp", Grid(78), true, 0x06c5_ca74_fb52_ac67),
    row("mnp", Faulted(77), true, 0x5fdb_9b43_8db6_ccf4),
    row("mnp", Capture(77), true, 0x89fb_6b40_41d9_1771),
    row("deluge", Grid(77), true, 0x8d3c_abe8_0907_5be1),
    row("deluge", Grid(78), true, 0x9e1f_24d4_e926_ef21),
    row("deluge", Faulted(77), true, 0x7d16_3ce6_2013_6447),
    row("moap", Grid(77), true, 0x1e24_e2e5_1411_f8b4),
    row("moap", Faulted(77), true, 0xf00e_e809_50b5_dc02),
    row("xnp", Grid(77), false, 0x7ce2_ffaf_bb46_8c09),
    row("xnp", Faulted(77), false, 0xf15f_966d_9cb0_629c),
    row("flood", Grid(77), false, 0x3cad_3664_ef15_d78a),
    row("flood", Faulted(77), false, 0x12eb_fffe_fa72_b8ca),
    row("rlnc", Grid(77), true, 0xcb8d_cfe2_1419_4c5a),
    row("rlnc", Faulted(77), true, 0xd6c1_4fb5_b922_5557),
    row("xor", Grid(77), true, 0xcd68_95be_96e9_48a2),
    row("xor", Faulted(77), true, 0x3d29_e60c_5dd2_a7de),
    row("mnp", Mobile(2), true, 0x347f_b02a_549a_1fa2),
    row("mnp", Mobile(3), true, 0x78db_2c53_3980_3818),
];

impl SeededLog {
    /// File stem of the dumped log: `{protocol}_seed{seed}`, with a
    /// `_faults` or `_capture` suffix, or `mobile_seed{seed}`.
    pub fn name(&self) -> String {
        let p = self.protocol;
        match self.scenario {
            Grid(seed) => format!("{p}_seed{seed}"),
            Faulted(seed) => format!("{p}_seed{seed}_faults"),
            Capture(seed) => format!("{p}_seed{seed}_capture"),
            Mobile(seed) => format!("mobile_seed{seed}"),
        }
    }

    /// The registered protocol the row runs.
    ///
    /// # Panics
    ///
    /// Panics if the row names no registered protocol.
    pub fn protocol(&self) -> ProtocolId {
        ProtocolId::lookup(self.protocol).expect("a seeded log names a registered protocol")
    }

    /// The scenario the row runs.
    pub fn experiment(&self) -> Scenario<Arc<dyn Site>> {
        match self.scenario {
            Grid(seed) => grid4(seed).erase(),
            Faulted(seed) => grid4(seed).faults(grid4_fault_plan()).erase(),
            Capture(seed) => grid4(seed).capture(true).erase(),
            Mobile(seed) => MobileExperiment::new(9)
                .seed(seed)
                .speed(2.0)
                .churn(1)
                .erase(),
        }
    }

    /// Runs the row's protocol over its [`experiment`](SeededLog::experiment)
    /// with a JSONL logger attached ahead of `instruments`, and returns
    /// the log beside the outcome.
    pub fn record(&self, mut instruments: Instruments) -> (String, RunOutcome) {
        let log = Shared::new(JsonlLogger::new());
        instruments.observers.insert(0, Box::new(log.clone()));
        let out = self.experiment().run_named(self.protocol(), instruments);
        let text = log.borrow().as_str().to_owned();
        (text, out)
    }
}

/// The 4×4, one-segment grid at 10 ft every grid row runs, at `seed`.
pub fn grid4(seed: u64) -> GridExperiment {
    GridExperiment::new(4, 4, 10.0).segments(1).seed(seed)
}

/// The fault plan of the faulted rows.
fn grid4_fault_plan() -> FaultPlan {
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

/// FNV-1a 64 of a text: the frozen digests pin every byte of a log, so a
/// formatter change that shifted every line alike still moves them.
pub fn log_digest(text: &str) -> u64 {
    text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::NAMES;

    #[test]
    fn the_table_covers_every_registered_protocol() {
        for (i, row) in SEEDED_LOGS.iter().enumerate() {
            let name = row.name();
            assert!(
                SEEDED_LOGS[..i].iter().all(|r| r.name() != name),
                "duplicate row {name}"
            );
            assert!(ProtocolId::lookup(row.protocol).is_some(), "{name}");
        }
        for name in NAMES {
            let rows = || SEEDED_LOGS.iter().filter(|r| r.protocol == *name);
            assert!(
                rows().any(|r| matches!(r.scenario, Grid(_))),
                "{name} has no clean row"
            );
            assert!(
                rows().any(|r| matches!(r.scenario, Faulted(_))),
                "{name} has no faulted row"
            );
        }
    }
}
