//! Protocol-engine components.
//!
//! MNP's design (§3 of the paper) is modular: sender selection, pipelined
//! segment transfer, loss recovery, and sleep scheduling are separable
//! mechanisms. This module holds the parts that are not MNP's state
//! machine itself — small, unit-tested building blocks that the
//! [`crate::Mnp`] state machine and the baseline protocols
//! (`mnp_baselines`) assemble:
//!
//! * [`TimerMux`] — epoch-scoped timer tokens, replacing each protocol's
//!   hand-rolled `token`/`decode` pair (timers are not cancellable; stale
//!   firings from torn-down states must be filtered in the handler), and
//!   [`Deadline`] — a timeout refreshed on every packet, kept on at most
//!   one kernel timer. Shared by every protocol.
//! * Segment transfer ([`missing_vector`], [`store_packet_once`] and
//!   [`store_named_packet`],
//!   [`ForwardVector`], [`ImageCursor`]) — the receiver's MissingVector
//!   scan, the write-once EEPROM discipline, and the sender's
//!   ForwardVector (union of requesters' losses) with its three drain
//!   orders. Shared by MNP and the baselines.
//! * [`AdvertiseScheduler`] — the advertise-round bookkeeping behind the
//!   paper's sender selection: randomized advertisement backoff, the
//!   distinct-requester counter (`ReqCtr`), and the lose/win comparison
//!   against a rival's [`Offer`]. Only MNP uses it.
//!
//! Every component is deterministic: randomness comes only from the
//! caller's [`mnp_sim::SimRng`], so a protocol rebuilt on these parts
//! replays byte-identical event logs.

pub mod advertise;
pub mod timer;
pub mod transfer;

pub use advertise::{AdvertiseScheduler, Offer};
pub use timer::{Deadline, TimerMux, MAX_EPOCH};
pub use transfer::{
    missing_vector, store_named_packet, store_packet_once, ForwardVector, ImageCursor,
};
