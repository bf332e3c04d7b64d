//! The protocol abstraction.

use std::fmt::Debug;

use mnp_obs::MsgDetail;
use mnp_radio::NodeId;
use mnp_trace::MsgClass;

use crate::context::Context;

/// On-air representation of a protocol message.
///
/// Byte sizes are the protocol's real packet budget (they drive airtime and
/// collision windows), and the class feeds the Fig.-12 message breakdown.
///
/// Messages must be `Send`: they ride through the medium's payload arena
/// inside the network kernel, which is itself `Send` so a whole simulation
/// can run on a worker thread.
pub trait WireMsg: Send {
    /// Payload length in bytes as it would be laid out in a TinyOS packet.
    /// Must not exceed [`mnp_radio::MAX_PAYLOAD_BYTES`].
    fn wire_bytes(&self) -> usize;

    /// Message class for tracing.
    fn class(&self) -> MsgClass;

    /// Concrete message-kind label for observability (e.g.
    /// `"StartDownload"`). The default derives a generic label from the
    /// class; protocols with several kinds per class should override it.
    fn kind_label(&self) -> &'static str {
        match self.class() {
            MsgClass::Advertisement => "Advertisement",
            MsgClass::Request => "Request",
            MsgClass::Data => "Data",
            MsgClass::Control => "Control",
        }
    }

    /// Structured payload fields exposed to observers (invariant monitors
    /// read the ReqCtr echo and segment/packet indices from here).
    fn detail(&self) -> MsgDetail {
        MsgDetail::Opaque
    }
}

/// EEPROM line operations a protocol has performed: the counts Table 1's
/// EEPROM rows price.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EepromOps {
    /// 16-byte line reads.
    pub line_reads: u64,
    /// 16-byte line writes.
    pub line_writes: u64,
}

/// A per-node protocol state machine.
///
/// Implementations are deterministic given the randomness drawn from the
/// [`Context`]'s RNG; all side effects go through the context.
///
/// # Timers and epochs
///
/// Timers are *not* cancellable at the network layer; a protocol that
/// abandons a pending timer (e.g. MNP going to sleep mid-advertisement)
/// should encode an epoch in the token and ignore stale firings. This
/// mirrors TinyOS, where fired timer events of torn-down state machines
/// are filtered in the handler.
///
/// Protocols may take the raw path (override [`on_timer`](Protocol::on_timer)
/// and interpret tokens themselves) or the typed path: override
/// [`decode_timer`](Protocol::decode_timer) (usually delegating to a
/// `mnp::engine::TimerMux`) and [`on_timer_kind`](Protocol::on_timer_kind);
/// the default `on_timer` then routes live firings to the kind handler and
/// drops stale ones.
///
/// # Threading
///
/// Protocols must be `Send` (and so must their messages): `Network<P>` is
/// `Send` by construction — asserted at compile time in the network module
/// — so a whole simulation can be handed to a worker thread. Protocol
/// state is plain owned data in practice, so this costs implementations
/// nothing.
pub trait Protocol: Sized + Send {
    /// The protocol's message type. It is `Copy`, so the compiler proves
    /// that a frame owns no heap memory: a data frame names its packet in
    /// the one shared image instead of carrying a copy of its bytes.
    type Msg: WireMsg + Copy + Debug;

    /// Called once at simulation start (time zero).
    fn on_start(&mut self, ctx: &mut Context<'_, Self::Msg>);

    /// Called for every intact frame this node's radio decodes — including
    /// messages "destined" to other nodes, since the medium is broadcast
    /// (MNP's sender selection depends on such overhearing). `from` is the
    /// link-layer source carried in the TinyOS AM header.
    fn on_message(&mut self, ctx: &mut Context<'_, Self::Msg>, from: NodeId, msg: &Self::Msg);

    /// Called when a timer set through the context fires. `token` is the
    /// value passed to [`Context::set_timer`].
    ///
    /// The default implementation is the typed path: it decodes the token
    /// with [`decode_timer`](Protocol::decode_timer) and dispatches live
    /// kinds to [`on_timer_kind`](Protocol::on_timer_kind) and ignores
    /// stale tokens.
    fn on_timer(&mut self, ctx: &mut Context<'_, Self::Msg>, token: u64) {
        if let Some(kind) = self.decode_timer(token) {
            self.on_timer_kind(ctx, kind);
        }
    }

    /// Extracts the timer kind from a token, or `None` if the token is
    /// stale (minted by a torn-down state). The default treats every token
    /// as a live kind.
    fn decode_timer(&self, token: u64) -> Option<u64> {
        Some(token)
    }

    /// Handles a live timer of the given kind (typed path; see
    /// [`on_timer`](Protocol::on_timer)).
    fn on_timer_kind(&mut self, ctx: &mut Context<'_, Self::Msg>, kind: u64) {
        let _ = (ctx, kind);
    }

    /// Called when a sleep requested through [`Context::sleep_for`] ends
    /// and the radio is back on.
    fn on_wake(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        let _ = ctx;
    }

    /// Called when the node reboots after a crash (fault model). The
    /// implementation must discard everything a real mote keeps in RAM —
    /// state machine, timers, neighbor caches — and may keep only what
    /// lives in persistent storage (for MNP, the EEPROM `PacketStore`).
    /// Timer events armed before the crash can still fire afterwards;
    /// protocols must filter them as stale (epoch them through
    /// `mnp::engine::TimerMux` and invalidate here).
    ///
    /// The default forgets nothing and simply runs
    /// [`on_start`](Protocol::on_start) again, which is correct for
    /// stateless test protocols only.
    fn on_restart(&mut self, ctx: &mut Context<'_, Self::Msg>) {
        self.on_start(ctx);
    }

    /// Fault-model hook: arm `failures` transient failures on the
    /// protocol's persistent storage (see
    /// `mnp_storage::PacketStore::inject_write_faults`). Protocols without
    /// writable storage ignore it.
    fn inject_storage_fault(&mut self, failures: u32) {
        let _ = failures;
    }

    /// Cumulative EEPROM line operations, for callers to read after a run.
    fn eeprom_ops(&self) -> EepromOps {
        EepromOps::default()
    }

    /// A label for the protocol's current top-level state, sampled around
    /// every callback to derive state-transition events for observers.
    /// Must be cheap (a `match` on the state enum) and must return the
    /// *same* `&'static str` while the state is unchanged.
    fn state_label(&self) -> &'static str {
        "Run"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Copy, Debug)]
    struct Nop;

    impl WireMsg for Nop {
        fn wire_bytes(&self) -> usize {
            0
        }
        fn class(&self) -> MsgClass {
            MsgClass::Control
        }
    }

    struct Minimal;

    impl Protocol for Minimal {
        type Msg = Nop;
        fn on_start(&mut self, _: &mut Context<'_, Nop>) {}
        fn on_message(&mut self, _: &mut Context<'_, Nop>, _: NodeId, _: &Nop) {}
    }

    #[test]
    fn defaults_are_usable() {
        let m = Minimal;
        assert_eq!(m.eeprom_ops(), EepromOps::default());
        // The default typed path treats every token as a live kind.
        assert_eq!(m.decode_timer(42), Some(42));
    }
}
