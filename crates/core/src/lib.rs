//! MNP: the multihop network reprogramming protocol of Kulkarni & Wang
//! (ICDCS 2005).
//!
//! MNP reliably disseminates a program image to every node of a multihop
//! sensor network. Its pieces, each mapped to a module here:
//!
//! * **Sender selection** — sources advertising the same segment compete on
//!   the number of distinct requesters (`ReqCtr`); losers power their radio
//!   down. Download requests are broadcast with the destination *inside*
//!   so third parties learn about sources they cannot hear directly (the
//!   hidden-terminal defence). See [`message`] and the advertise-state
//!   logic in [`Mnp`].
//! * **Pipelining** — the image travels as segments of ≤128 packets;
//!   segments are received strictly in order, lower segments have priority,
//!   and distant neighbourhoods transfer different segments concurrently.
//! * **Loss detection and recovery** — a per-segment `MissingVector`
//!   bitmap on the receiver, a `ForwardVector` (union of requesters'
//!   losses) on the sender so only requested packets are transmitted, and
//!   an optional query/update repair phase ([`bitmap`]).
//! * **Energy efficiency** — a node sleeps whenever it loses the sender
//!   competition or its neighbourhood transfers a segment it cannot use;
//!   *active radio time* is the paper's energy metric.
//!
//! The protocol runs on the [`mnp_net`] execution environment; see
//! `examples/quickstart.rs` at the workspace root for an end-to-end run.
//!
//! # Example
//!
//! Disseminate a 1-segment image across a 2-node network:
//!
//! ```
//! use mnp::{Mnp, MnpConfig};
//! use mnp_net::{Network, NetworkBuilder};
//! use mnp_radio::{LinkTable, NodeId};
//! use mnp_sim::SimTime;
//! use mnp_storage::{ImageLayout, ProgramId, ProgramImage};
//!
//! let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(1));
//! let cfg = MnpConfig::for_image(&image);
//! let mut links = LinkTable::new(2);
//! links.connect(NodeId(0), NodeId(1), 0.0);
//! links.connect(NodeId(1), NodeId(0), 0.0);
//! let mut net: Network<Mnp> = NetworkBuilder::new(links, 7).build(|id, _| {
//!     if id == NodeId(0) {
//!         Mnp::base_station(cfg.clone(), &image)
//!     } else {
//!         Mnp::node(cfg.clone())
//!     }
//! });
//! assert!(net.run_until_all_complete(SimTime::from_secs(600)));
//! assert!(net.protocol(NodeId(1)).is_complete());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitmap;
mod config;
pub mod engine;
pub mod message;
pub mod mnp;

pub use bitmap::PacketBitmap;
pub use config::MnpConfig;
pub use message::{Advertisement, DataPacket, DownloadRequest, MnpMsg};
pub use mnp::{Mnp, MnpState, MnpStats};
