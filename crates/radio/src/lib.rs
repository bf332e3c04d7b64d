//! Lossy wireless radio substrate for sensor-network simulation.
//!
//! The MNP paper evaluates on Mica-2/XSM motes (CC1000 radio) and on TOSSIM,
//! whose network model is "a directed graph \[where\] each edge has a bit
//! error probability". Neither the hardware nor TOSSIM is available here, so
//! this crate rebuilds the radio properties the protocol's behaviour depends
//! on:
//!
//! * **Asymmetric lossy links** — every directed edge carries its own bit
//!   error rate, sampled from a distance-based curve ([`loss`]).
//! * **Collisions and hidden terminals** — a receiver locked onto one frame
//!   is corrupted by any overlapping audible transmission; carrier sense
//!   only hears transmitters within range, so two out-of-range senders can
//!   collide at a common receiver exactly as in the paper's §5 discussion
//!   ([`Medium`]).
//! * **CSMA MAC** — random initial backoff, carrier sense, congestion
//!   backoff ([`CsmaBank`]), modelled on the TinyOS B-MAC default.
//! * **Radio power states** — Off/Listening/Receiving/Transmitting, with
//!   active-radio-time accounting, because *active radio time* is the
//!   paper's primary energy metric ([`RadioState`]).
//! * **Transmission power levels** — TinyOS lets applications set the CC1000
//!   power level (1–255); the experiments in Figs. 5–7 vary it to change hop
//!   counts ([`PowerLevel`]).
//!
//! # Example
//!
//! ```
//! use mnp_radio::{Frame, LinkTable, Medium, NodeId, TxOutcome, PERCEPTION_LATENCY};
//! use mnp_sim::{SimRng, SimTime};
//!
//! // Two nodes, perfect symmetric link.
//! let mut links = LinkTable::new(2);
//! links.connect(NodeId(0), NodeId(1), 0.0);
//! links.connect(NodeId(1), NodeId(0), 0.0);
//! let mut medium = Medium::new(links, SimRng::new(7));
//!
//! // A frame is perceivable at the receivers one PERCEPTION_LATENCY
//! // (preamble + sync airtime) after each sender-side edge: the driver
//! // calls the four phases in timestamp order.
//! let t0 = SimTime::ZERO;
//! let tx = medium
//!     .begin_transmission(NodeId(0), Frame::new(NodeId(0), 29, "hello"), t0)
//!     .unwrap();
//! medium.rx_start(tx.id, t0 + PERCEPTION_LATENCY);
//! medium.end_transmission(tx.id);
//! let mut outcome = TxOutcome::new();
//! assert!(medium.rx_end_into(tx.id, t0 + tx.airtime + PERCEPTION_LATENCY, &mut outcome));
//! assert_eq!(outcome.delivered, vec![NodeId(1)]);
//! // The payload lives in the medium's arena until released.
//! let handle = outcome.payload.unwrap();
//! assert_eq!(*medium.payload(handle), "hello");
//! assert_eq!(medium.release_payload(handle), "hello");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod csma;
mod ids;
mod link;
pub mod loss;
mod medium;
mod packet;
mod power;

pub use arena::{PayloadArena, PayloadHandle};
pub use csma::{CsmaAction, CsmaBank, CsmaConfig};
pub use ids::NodeId;
pub use link::{FlatLinks, LinkTable};
pub use medium::{Medium, MediumStats, RadioState, TxError, TxId, TxOutcome, TxStart};
pub use packet::{
    airtime, Frame, FRAME_OVERHEAD_BYTES, MAX_PAYLOAD_BYTES, PERCEPTION_HEADER_BYTES,
    PERCEPTION_LATENCY, RADIO_BIT_RATE,
};
pub use power::PowerLevel;
