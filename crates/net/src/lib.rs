//! Network composition layer: the [`Protocol`] trait and the [`Network`]
//! event-loop runner.
//!
//! This crate wires the substrates together — discrete-event kernel
//! (`mnp-sim`), lossy medium and CSMA MAC (`mnp-radio`), and the run
//! trace (`mnp-trace`) — into the execution environment that MNP and the
//! baseline protocols run in, playing the role TOSSIM + TinyOS played for
//! the paper.
//!
//! A protocol is a per-node state machine reacting to three stimuli:
//! start-of-world, an incoming message, and a timer. It acts through a
//! [`Context`]: broadcast a message, set a timer, power the radio down for
//! a while, and report milestones to the trace.
//!
//! # Example
//!
//! A one-shot flooding protocol (each node rebroadcasts the first `u8` it
//! hears) across a 3-node line:
//!
//! ```
//! use mnp_net::{Context, Network, NetworkBuilder, Protocol, WireMsg};
//! use mnp_radio::{LinkTable, NodeId};
//! use mnp_trace::MsgClass;
//!
//! #[derive(Clone, Copy, Debug)]
//! struct Ping(u8);
//! impl WireMsg for Ping {
//!     fn wire_bytes(&self) -> usize { 1 }
//!     fn class(&self) -> MsgClass { MsgClass::Data }
//! }
//!
//! struct Flood { seen: bool, seed_node: bool }
//! impl Protocol for Flood {
//!     type Msg = Ping;
//!     fn on_start(&mut self, ctx: &mut Context<'_, Ping>) {
//!         if self.seed_node {
//!             self.seen = true;
//!             ctx.note_completion();
//!             ctx.send(Ping(1));
//!         }
//!     }
//!     fn on_message(&mut self, ctx: &mut Context<'_, Ping>, _from: NodeId, msg: &Ping) {
//!         if !self.seen {
//!             self.seen = true;
//!             ctx.note_completion();
//!             ctx.send(Ping(msg.0));
//!         }
//!     }
//! }
//!
//! let mut links = LinkTable::new(3);
//! for (a, b) in [(0, 1), (1, 0), (1, 2), (2, 1)] {
//!     links.connect(NodeId(a), NodeId(b), 0.0);
//! }
//! let mut net: Network<Flood> = NetworkBuilder::new(links, 42)
//!     .build(|id, _| Flood { seen: false, seed_node: id == NodeId(0) });
//! net.run_until(|n| n.trace().all_complete(), mnp_sim::SimTime::from_secs(10));
//! assert!(net.trace().all_complete());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod context;
mod fault;
mod kernel;
mod network;
mod nodes;
mod protocol;

pub use context::Context;
pub use fault::{FaultPlan, FaultPlanError, PlannedFault};
pub use mnp_radio::LinkChange;
pub use network::{Network, NetworkBuilder};
pub use protocol::{EepromOps, Protocol, WireMsg};

// Re-exported so protocol crates can implement `WireMsg::detail`, derive
// observer-facing state labels, and attach observers without depending on
// `mnp-obs` directly.
pub use mnp_obs::{EventKind, MsgDetail, ObsEvent, Observer, StateLabel};
