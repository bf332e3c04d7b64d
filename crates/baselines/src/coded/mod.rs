//! Network-coded dissemination: the protocol family that replaces MNP's
//! MissingVector/ForwardVector retransmission dance with coding.
//!
//! Two points on the cost/power spectrum, both built on the same
//! `core/src/engine` components (TimerMux, store_packet_once, Trickle
//! maintenance) as the Deluge baseline:
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

/// A copy of `raw` zero-padded to `width` bytes (the coding width).
pub(crate) fn padded_packet(raw: &[u8], width: usize) -> Vec<u8> {
    let mut out = vec![0u8; width];
    out[..raw.len()].copy_from_slice(raw);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padding_preserves_prefix_and_zero_fills() {
        let p = padded_packet(&[1, 2, 3], 6);
        assert_eq!(p, vec![1, 2, 3, 0, 0, 0]);
    }
}
