//! Reusable protocol-engine components.
//!
//! MNP's design (§3 of the paper) is modular: sender selection, pipelined
//! segment transfer, loss recovery, and sleep scheduling are separable
//! mechanisms. This module is that separation made concrete — small,
//! protocol-agnostic building blocks that the [`crate::Mnp`] state machine
//! and the baseline protocols (`mnp_baselines`) assemble differently:
//!
//! * [`TimerMux`] — epoch-scoped timer tokens, replacing each protocol's
//!   hand-rolled `token`/`decode` pair (timers are not cancellable; stale
//!   firings from torn-down states must be filtered in the handler), and
//!   [`Deadline`] — a timeout refreshed on every packet, kept on at most
//!   one kernel timer.
//! * [`AdvertiseScheduler`] — the advertise-round bookkeeping behind the
//!   paper's sender selection: randomized advertisement backoff, the
//!   distinct-requester counter (`ReqCtr`), and the lose/win comparison
//!   against a rival's [`Offer`].
//! * Segment transfer ([`missing_vector`], [`store_packet_once`],
//!   [`ForwardVector`], [`ImageCursor`]) — the receiver's MissingVector
//!   scan, the write-once EEPROM discipline, and the sender's
//!   ForwardVector (union of requesters' losses) with its three drain
//!   orders.
//! * [`SleepController`] — radio power-down with the sleep ablation path
//!   and jittered rest spans.
//!
//! Every component is deterministic: randomness comes only from the
//! caller's [`mnp_sim::SimRng`], so a protocol rebuilt on these parts
//! replays byte-identical event logs.

pub mod advertise;
pub mod sleep;
pub mod timer;
pub mod transfer;

pub use advertise::{AdvertiseScheduler, Offer};
pub use sleep::SleepController;
pub use timer::{Deadline, TimerMux, MAX_EPOCH};
pub use transfer::{missing_vector, store_packet_once, ForwardVector, ImageCursor};
