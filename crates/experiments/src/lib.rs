//! The experiment harness: one module per table/figure of the paper.
//!
//! Every module exposes a `run*` function returning a typed result and a
//! `Display` implementation that prints the same rows/series the paper
//! reports. `examples/reproduce_all.rs` at the workspace root executes the
//! full set; EXPERIMENTS.md records paper-vs-measured values.
//!
//! | Module | Paper artefact |
//! |---|---|
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
//! | [`fuzz`] | DESIGN.md §11 — schedule-exploration fuzz harness (`mnp-run fuzz`/`repro`) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod battery;
pub mod capture;
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
pub mod subsets;
pub mod sweep;
pub mod table1;

pub use mobility::{FieldLayout, MobileExperiment};
pub use registry::{Disseminator, ProtocolId};
pub use runner::{GridExperiment, Instruments, RunOutcome};
