//! Network-coded dissemination: the protocol family that replaces MNP's
//! MissingVector/ForwardVector retransmission dance with coding.
//!
//! Two points on the cost/power spectrum. Each is the
//! [`Paged`](crate::paged::Paged) skeleton Deluge runs on, with its own
//! data [`Plane`](crate::paged::Plane); the plane is the only difference
//! between the three:
//!
//! * [`Rlnc`] — random-linear coding over GF(256) ([`gf256`]): one
//!   generation per segment, requests carry a rank deficit instead of a
//!   packet bitmap, and senders broadcast fresh random combinations
//!   decoded by incremental Gaussian elimination ([`decoder`]).
//! * [`Xor`] — single-hop XOR recoding: a forwarder mixes up to three
//!   plain packets chosen from its neighbours' request bitmaps so each
//!   targeted neighbour is missing exactly one and decodes by XOR
//!   against its own flash.
//!
//! Sources: "Cooperative Coded Data Dissemination" and the INRIA
//! "Heuristics for Network Coding in Wireless Networks" (PAPERS.md).

pub mod decoder;
pub mod gf256;
pub mod rlnc;
pub mod xor;

pub use decoder::GenDecoder;
pub use rlnc::{Rlnc, RlncConfig, RlncMsg, RlncStats};
pub use xor::{Xor, XorConfig, XorMsg, XorStats};
