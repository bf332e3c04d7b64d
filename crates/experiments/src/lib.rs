//! The experiment harness: one module per table/figure of the paper.
//!
//! Every module exposes a `run*` function returning a typed result and a
//! `Display` implementation that prints the same rows/series the paper
//! reports. [`claims`] runs the full set at the paper's scale or a reduced
//! one and states each paper claim once, as a predicate over the results;
//! `examples/reproduce_all.rs` prints the paper-scale set and checks every
//! claim, and EXPERIMENTS.md quotes its output.
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`claims`] | every claim of the evaluation, checked at two scales |
//! | [`table1`] | Table 1 — power required by Mica operations |
//! | [`fig05`] | Fig. 5 — indoor 5×5 grid, power levels 3 and 9 |
//! | [`fig06`] | Fig. 6 — outdoor 7×7 grid, power 255 and 50 |
//! | [`fig07`] | Fig. 7 — outdoor 2×10 grid, power 255 and 50 |
//! | [`fig08`] | Figs. 8+9 — active radio time, 20×20 grid |
//! | [`fig10`] | Fig. 10 — completion/ART vs program size |
//! | [`fig11`] | Fig. 11 — tx/rx distribution by location |
//! | [`fig12`] | Fig. 12 — message classes per one-minute window |
//! | [`fig13`] | Fig. 13 — propagation snapshots |
//! | [`deluge_cmp`] | §5 — MNP vs Deluge completion and ART |
//! | [`diagonal`] | §5 — diagonal-vs-edge propagation dynamic |
//! | [`battery`] | §6 — battery-aware sender selection extension |
//! | [`subsets`] | §6 — subset (targeted) dissemination extension |
//! | [`resilience`] | §3.3 — fail-stop resilience + chaos (crash–restart, link-flap) sweeps |
//! | [`mobility`] | dynamic topologies — mobile/irregular scenarios with churn |
//! | [`capture`] | X4 — capture-effect sensitivity of the radio model |
//! | [`ablation`] | DESIGN.md A1–A4 — design-choice ablations |
//! | [`sweep`] | protocol-comparison sweeps: the loss campaign (`mnp-run coded`) and the mobility campaign (`mnp-run mobility`) |
//! | [`registry`] | the `Disseminator` trait and the one protocol list every harness dispatches from |
//! | [`seeded_logs`] | the seeded event logs whose frozen digests license refactors (`dump_logs`, `tests/determinism.rs`) |
//! | [`fuzz`] | DESIGN.md §11 — schedule-exploration fuzz harness (`mnp-run fuzz`/`repro`) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod battery;
pub mod capture;
pub mod claims;
pub mod deluge_cmp;
pub mod diagonal;
pub mod fig05;
pub mod fig06;
pub mod fig07;
pub mod fig08;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fuzz;
pub mod mobility;
pub mod registry;
pub mod report;
pub mod resilience;
pub mod runner;
pub mod seeded_logs;
pub mod subsets;
pub mod sweep;
pub mod table1;

pub use mobility::{FieldLayout, MobileExperiment};
pub use registry::{Disseminator, ProtocolId};
pub use runner::{GridExperiment, Instruments, RunOutcome};

/// Table 1's pricing function, [`table1::OperationCosts::charge_nah`]: the
/// constants, each charge class, and idle listening as radio-on time minus
/// on-air time.
#[cfg(test)]
mod tests {
    use mnp_sim::SimDuration;

    use crate::table1::{OperationCosts, OperationCounts};

    /// Prices `tx` and `rx` packets, `on_ms` of radio-on time of which
    /// `air_ms` on air, and `reads` and `writes` EEPROM lines.
    fn price(tx: u64, rx: u64, on_ms: u64, air_ms: u64, reads: u64, writes: u64) -> f64 {
        OperationCosts::MICA2.charge_nah(&OperationCounts {
            tx,
            rx,
            radio_on: SimDuration::from_millis(on_ms),
            on_air: SimDuration::from_millis(air_ms),
            eeprom_reads: reads,
            eeprom_writes: writes,
        })
    }

    #[test]
    fn table1_constants_match_paper() {
        let c = OperationCosts::MICA2;
        assert_eq!(c.tx_packet_nah, 20.000);
        assert_eq!(c.rx_packet_nah, 8.000);
        assert_eq!(c.idle_listen_ms_nah, 1.250);
        assert_eq!(c.eeprom_read_nah, 1.111);
        assert_eq!(c.eeprom_write_nah, 83.333);
    }

    #[test]
    fn breakdown_accumulates_counts() {
        assert_eq!(price(10, 0, 0, 0, 0, 0), 200.0);
        assert_eq!(price(0, 5, 0, 0, 0, 0), 40.0);
        assert!((price(0, 0, 0, 0, 1, 1) - 84.444).abs() < 1e-9);
        assert!((price(10, 5, 0, 0, 1, 1) - 324.444).abs() < 1e-9);
    }

    #[test]
    fn idle_time_excludes_on_air_time() {
        assert!((price(0, 0, 1_000, 500, 0, 0) - 500.0 * 1.25).abs() < 1e-9);
    }

    #[test]
    fn idle_time_saturates_when_airtime_exceeds_radio_time() {
        assert_eq!(price(1, 0, 1_000, 2_000, 0, 0), 20.0, "only the packet");
    }

    #[test]
    fn idle_listening_dominates_an_always_on_minute() {
        // The paper's motivation: "if a node keeps its radio on at all time,
        // the vast majority of energy is wasted in idle-listening".
        let idle = price(0, 0, 60_000, 4_000, 0, 0);
        let total = price(100, 100, 60_000, 4_000, 0, 0);
        assert!(idle > 0.8 * total, "idle {idle} of {total} nAh");
    }
}
