//! Baseline dissemination protocols the paper compares against.
//!
//! MNP's evaluation (§5 Related Work) positions it against three systems,
//! all reimplemented here on the same substrate so every comparison is
//! apples-to-apples:
//!
//! * [`Deluge`] — the state of the art at publication: Trickle-suppressed
//!   advertisements, page-granular transfer with NACK-style requests, and —
//!   crucially for the energy comparison — **the radio always on** ("Deluge
//!   (as well as XNP and MOAP) requires that radio is always on during
//!   reprogramming").
//! * [`Xnp`] — TinyOS's single-hop reprogramming: the base station
//!   broadcasts the image cyclically; nodes beyond one hop never receive
//!   it.
//! * [`Moap`] — hop-by-hop dissemination: a node must hold the *entire*
//!   image before forwarding (no pipelining), with a publish/subscribe
//!   sender choice and unicast NACK repair.
//! * [`Flood`] — a strawman packet flood with no suppression, exhibiting
//!   the broadcast-storm behaviour that motivates sender selection.
//!
//! The [`trickle`] module provides the Trickle timer (Levis et al.) that
//! Deluge's maintenance plane is built on.
//!
//! Beyond the paper's contemporaries, the [`coded`] module adds the
//! network-coded family — [`Rlnc`] (random-linear coding over GF(256))
//! and [`Xor`] (single-hop XOR recoding) — which replaces the
//! MissingVector/ForwardVector retransmission dance entirely.
//!
//! Deluge, RLNC and XOR are one state machine: the [`paged`] skeleton
//! ([`Paged`](paged::Paged)) runs each protocol's data
//! [`Plane`](paged::Plane), and the plane is the only difference between
//! them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coded;
pub mod deluge;
pub mod flood;
pub mod moap;
pub mod paged;
pub mod trickle;
pub mod xnp;

pub use coded::{Rlnc, RlncConfig, RlncMsg, Xor, XorConfig, XorMsg};
pub use deluge::{Deluge, DelugeConfig, DelugeMsg};
pub use flood::{Flood, FloodConfig, FloodMsg};
pub use moap::{Moap, MoapConfig, MoapMsg};
pub use trickle::{Trickle, TrickleConfig};
pub use xnp::{Xnp, XnpConfig, XnpMsg};
