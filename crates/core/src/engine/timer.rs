//! Epoch-scoped timer tokens.

/// Epoch bits available above the kind byte: `64 - 8 = 56`.
const EPOCH_BITS: u32 = 56;

/// Largest representable epoch. [`TimerMux::invalidate`] saturates here so
/// a token can never alias an earlier epoch by wrapping or shifting bits
/// out the top of the word.
pub const MAX_EPOCH: u64 = (1 << EPOCH_BITS) - 1;

/// Encodes timer tokens as `(epoch << 8) | kind` and filters stale ones.
///
/// Timers set through [`mnp_net::Context::set_timer`] are not cancellable —
/// mirroring TinyOS, where fired timer events of torn-down state machines
/// are filtered in the handler. A protocol owns one `TimerMux` per timer
/// sequence; tearing down a state calls [`TimerMux::invalidate`], after
/// which every token minted before it decodes to `None`.
///
/// The kind must fit the low byte (`< 256`) — enforced in release builds,
/// not just debug. The remaining 56 bits carry the epoch, which saturates
/// at [`MAX_EPOCH`] instead of silently shifting set bits out of the
/// token: at the saturation point staleness filtering degrades (tokens
/// from the saturated epoch stay valid across further invalidations)
/// rather than corrupting the kind. Reaching it would take 2^56
/// invalidations — about 2 000 years of state changes at one per
/// microsecond — so real runs never see the degraded mode.
///
/// # Example
///
/// ```
/// use mnp::engine::TimerMux;
///
/// let mut mux = TimerMux::new();
/// let t = mux.token(3);
/// assert_eq!(mux.decode(t), Some(3));
/// mux.invalidate();
/// assert_eq!(mux.decode(t), None, "stale token from a torn-down state");
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TimerMux {
    epoch: u64,
}

impl TimerMux {
    /// A fresh sequence at epoch 0.
    pub const fn new() -> Self {
        TimerMux { epoch: 0 }
    }

    /// Mints a token for `kind` in the current epoch.
    ///
    /// # Panics
    ///
    /// Panics (in release builds too) if `kind` does not fit the low byte:
    /// a kind of 256 would silently decode as epoch+1's kind 0, turning a
    /// stale timer into a live one.
    pub fn token(&self, kind: u64) -> u64 {
        assert!(kind < 0x100, "timer kind {kind} must fit the low byte");
        (self.epoch << 8) | kind
    }

    /// Decodes a token; `None` if it was minted before the last
    /// [`invalidate`](TimerMux::invalidate).
    pub fn decode(&self, token: u64) -> Option<u64> {
        (token >> 8 == self.epoch).then_some(token & 0xff)
    }

    /// Starts a new epoch: all previously minted tokens become stale.
    ///
    /// Saturates at [`MAX_EPOCH`] (the 56 bits the token layout can carry)
    /// instead of shifting the epoch out of the token.
    pub fn invalidate(&mut self) {
        if self.epoch < MAX_EPOCH {
            self.epoch += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_round_trips_every_kind() {
        let mut mux = TimerMux::new();
        for epoch in 0..4 {
            assert_eq!(mux.epoch, epoch);
            for kind in 0..=0xff {
                assert_eq!(mux.decode(mux.token(kind)), Some(kind));
            }
            mux.invalidate();
        }
    }

    #[test]
    fn invalidate_stales_all_outstanding_tokens() {
        let mut mux = TimerMux::new();
        let minted: Vec<u64> = (0..6).map(|k| mux.token(k)).collect();
        mux.invalidate();
        for t in minted {
            assert_eq!(mux.decode(t), None);
        }
        // Fresh tokens decode again.
        assert_eq!(mux.decode(mux.token(2)), Some(2));
    }

    #[test]
    fn epoch_zero_tokens_equal_their_kind() {
        // Protocols without teardown (XNP, flood) keep epoch 0 forever, so
        // their tokens stay the raw kind values — wire-compatible with a
        // hand-rolled `match token`.
        let mux = TimerMux::new();
        assert_eq!(mux.token(1), 1);
        assert_eq!(mux.token(7), 7);
    }

    #[test]
    fn independent_sequences_do_not_interfere() {
        // Deluge holds two muxes (maintenance intervals vs transfer
        // epochs); invalidating one must not stale the other's tokens.
        let mut a = TimerMux::new();
        let b = TimerMux::new();
        let tb = b.token(5);
        a.invalidate();
        assert_eq!(b.decode(tb), Some(5));
    }

    #[test]
    #[should_panic(expected = "must fit the low byte")]
    fn oversized_kind_panics_in_release_too() {
        let mux = TimerMux::new();
        let _ = mux.token(0x100);
    }

    #[test]
    fn epoch_saturates_instead_of_overflowing_the_token() {
        let mut mux = TimerMux {
            epoch: MAX_EPOCH - 1,
        };
        mux.invalidate();
        assert_eq!(mux.epoch, MAX_EPOCH);
        // At saturation the epoch no longer advances...
        mux.invalidate();
        assert_eq!(mux.epoch, MAX_EPOCH);
        // ...and tokens still round-trip their kind exactly: nothing is
        // shifted out of the 64-bit word.
        for kind in [0, 1, 0x7f, 0xff] {
            let t = mux.token(kind);
            assert_eq!(t >> 8, MAX_EPOCH);
            assert_eq!(mux.decode(t), Some(kind));
        }
    }
}
