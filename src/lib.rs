//! # MNP reproduction workspace
//!
//! A full reimplementation of **"MNP: Multihop Network Reprogramming
//! Service for Sensor Networks"** (Kulkarni & Wang, ICDCS 2005) in Rust:
//! the protocol, the discrete-event radio substrate it was evaluated on,
//! the baselines it was compared against, and a harness regenerating every
//! table and figure of the paper's evaluation.
//!
//! This crate is the umbrella: it re-exports the workspace libraries and
//! hosts the runnable examples (`examples/`) and cross-crate integration
//! tests (`tests/`).
//!
//! ## Layer map
//!
//! | Layer | Crate |
//! |---|---|
//! | Discrete-event kernel | [`sim`] |
//! | Lossy radio, CSMA MAC | [`radio`] |
//! | Placement & link sampling | [`topology`] |
//! | EEPROM / program images | [`storage`] |
//! | Protocol runtime | [`net`] |
//! | Observability (events, invariants, timelines) | [`obs`] |
//! | Metrics & figures | [`trace`] |
//! | **MNP itself** | [`protocol`] |
//! | Deluge/XNP/MOAP/flood, coded (RLNC, XOR) | [`baselines`] |
//! | Table/figure harness, Mica energy pricing (Table 1) | [`experiments`] |
//!
//! ## Quickstart
//!
//! ```
//! use mnp_repro::prelude::*;
//!
//! // Disseminate a 1-segment image over a 3×3 grid.
//! let outcome = GridExperiment::new(3, 3, 10.0).seed(7).run::<Mnp>(|_| {});
//! assert!(outcome.completed);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use mnp as protocol;
pub use mnp_baselines as baselines;
pub use mnp_experiments as experiments;
pub use mnp_net as net;
pub use mnp_obs as obs;
pub use mnp_radio as radio;
pub use mnp_sim as sim;
pub use mnp_storage as storage;
pub use mnp_topology as topology;
pub use mnp_trace as trace;

/// The most common imports for building and running experiments.
pub mod prelude {
    pub use mnp::{Mnp, MnpConfig, MnpState, PacketBitmap};
    pub use mnp_baselines::{
        Deluge, DelugeConfig, Flood, FloodConfig, Moap, MoapConfig, Rlnc, RlncConfig, Xnp,
        XnpConfig, Xor, XorConfig,
    };
    pub use mnp_experiments::{
        Disseminator, FieldLayout, GridExperiment, Instruments, MobileExperiment, ProtocolId,
        RunOutcome,
    };
    pub use mnp_net::{
        Context, FaultPlan, LinkChange, Network, NetworkBuilder, PlannedFault, Protocol, WireMsg,
    };
    pub use mnp_obs::{
        EventKind, InvariantMonitor, JsonlLogger, MetricsRegistry, ObsEvent, Observer, Shared,
        TimelineExporter,
    };
    pub use mnp_radio::{LinkTable, NodeId, PowerLevel};
    pub use mnp_sim::{SimDuration, SimRng, SimTime};
    pub use mnp_storage::{ImageLayout, PacketStore, ProgramId, ProgramImage};
    pub use mnp_topology::{
        Field, GridSpec, MobilityModel, MotionPlan, Placement, TopologyBuilder,
    };
    pub use mnp_trace::{MsgClass, RunTrace};
}

#[cfg(test)]
mod tests {
    #[test]
    fn prelude_compiles_and_reaches_every_layer() {
        use crate::prelude::*;
        let _ = NodeId(0);
        let _ = SimTime::ZERO;
        let _ = ImageLayout::paper_default(1);
        let _ = GridSpec::new(2, 2, 1.0);
        let _ = MsgClass::Data;
    }
}
