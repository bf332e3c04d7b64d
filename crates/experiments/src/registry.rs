//! The protocol registry: one trait the harness drives every protocol
//! through, and the one list of protocols it knows by name.
//!
//! [`Disseminator`] is what the experiment harness needs of a protocol
//! beyond the kernel's [`Protocol`]: how to size a config for an image,
//! how to build the base station and an ordinary node, and how to ask a
//! node whether it holds the whole image. Everything that runs a protocol
//! — [`GridExperiment`](crate::GridExperiment),
//! [`MobileExperiment`](crate::MobileExperiment), the fuzz and chaos
//! harnesses, the comparison sweeps, `mnp-run` — is generic over it, so a
//! new protocol plugs in with one `impl` here and one name in
//! `with_protocol!`'s list.

use mnp_net::Protocol;
use mnp_radio::NodeId;
use mnp_storage::ProgramImage;

use crate::runner::RunOutcome;

/// A dissemination protocol the harness can run by type or by name.
pub trait Disseminator: Protocol {
    /// Stable lowercase name: the `--protocol` value and the `repro.json`
    /// field.
    const NAME: &'static str;
    /// The name printed in comparison tables and `*_cmp.json` artifacts.
    const LABEL: &'static str;
    /// The protocol's tunables (what a run's `tweak` closure adjusts).
    type Config: Clone;

    /// The default config for disseminating `image`.
    fn config_for(image: &ProgramImage) -> Self::Config;
    /// The node that starts out holding `image`.
    fn base_station(cfg: Self::Config, image: &ProgramImage) -> Self;
    /// A node that starts out empty.
    fn node(cfg: Self::Config) -> Self;
    /// Whether this node holds the complete image.
    fn is_complete(&self) -> bool;

    /// Folds this node's protocol-specific counters into a finished run's
    /// outcome. Only MNP has any.
    fn fold_stats(&self, node: NodeId, out: &mut RunOutcome) {
        let _ = (node, out);
    }

    /// The first protocol counter whose value is implausibly huge (a `u64`
    /// that went below zero wraps to `> 2^63`) — the fuzz harness's
    /// counter-overflow oracle.
    fn overflowed_counter(&self) -> Option<(&'static str, u64)> {
        None
    }

    /// `(generation, rank, generation size)` of a decoding protocol's
    /// current generation — the fuzz harness's decode-rank oracle and the
    /// frontier it reports for stuck nodes.
    fn decode_frontier(&self) -> Option<(u16, usize, usize)> {
        None
    }
}

/// Implements [`Disseminator`] for a protocol whose inherent API follows
/// the workspace convention (`Config::for_image`, `base_station`, `node`,
/// `is_complete`); the optional block overrides the per-node hooks.
macro_rules! disseminator {
    ($ty:ty, $cfg:ty, $name:literal, $label:literal $(, { $($hooks:tt)* })?) => {
        impl Disseminator for $ty {
            const NAME: &'static str = $name;
            const LABEL: &'static str = $label;
            type Config = $cfg;

            fn config_for(image: &ProgramImage) -> $cfg {
                <$cfg>::for_image(image)
            }
            fn base_station(cfg: $cfg, image: &ProgramImage) -> Self {
                // Inherent associated functions shadow the trait's.
                <$ty>::base_station(cfg, image)
            }
            fn node(cfg: $cfg) -> Self {
                <$ty>::node(cfg)
            }
            fn is_complete(&self) -> bool {
                <$ty>::is_complete(self)
            }
            $($($hooks)*)?
        }
    };
}

disseminator!(mnp::Mnp, mnp::MnpConfig, "mnp", "MNP", {
    fn fold_stats(&self, node: NodeId, out: &mut RunOutcome) {
        out.protocol_fails += self.stats.fails;
        out.forward_rounds[node.index()] = self.stats.forward_rounds;
        out.sleeps += self.stats.sleeps;
        if out.completed {
            assert!(self.is_complete(), "coverage violation despite completion");
        }
    }

    fn overflowed_counter(&self) -> Option<(&'static str, u64)> {
        const LIMIT: u64 = 1 << 63;
        let s = &self.stats;
        let fields = [
            ("fails", s.fails),
            ("fails_dl_timeout", s.fails_dl_timeout),
            ("fails_update", s.fails_update),
            ("forward_rounds", s.forward_rounds),
            ("retransmissions", s.retransmissions),
            ("requests_sent", s.requests_sent),
            ("sleeps", s.sleeps),
            ("advertisements_sent", s.advertisements_sent),
            ("write_faults", s.write_faults),
        ];
        fields.into_iter().find(|&(_, v)| v >= LIMIT)
    }
});
disseminator!(
    mnp_baselines::Deluge,
    mnp_baselines::DelugeConfig,
    "deluge",
    "Deluge-like"
);
disseminator!(
    mnp_baselines::Moap,
    mnp_baselines::MoapConfig,
    "moap",
    "MOAP-like"
);
disseminator!(mnp_baselines::Xnp, mnp_baselines::XnpConfig, "xnp", "XNP");
disseminator!(
    mnp_baselines::Flood,
    mnp_baselines::FloodConfig,
    "flood",
    "flood"
);
disseminator!(
    mnp_baselines::Rlnc,
    mnp_baselines::RlncConfig,
    "rlnc",
    "RLNC",
    {
        fn decode_frontier(&self) -> Option<(u16, usize, usize)> {
            Some(self.decode_rank())
        }
    }
);
disseminator!(mnp_baselines::Xor, mnp_baselines::XorConfig, "xor", "XOR");

/// `with_protocol!(id, P => body)` evaluates `body` with `P` aliased to
/// the protocol type the [`ProtocolId`] `id` names; `with_protocol!(names)`
/// is the array of every registered [`Disseminator::NAME`]. This macro
/// holds **the** protocol list: every name → type dispatch in the harness
/// expands from it, so registering a protocol is one line here.
macro_rules! with_protocol {
    (@list $($mode:tt)+) => {
        with_protocol!(@expand [
            mnp::Mnp,
            mnp_baselines::Deluge,
            mnp_baselines::Moap,
            mnp_baselines::Xnp,
            mnp_baselines::Flood,
            mnp_baselines::Rlnc,
            mnp_baselines::Xor,
        ] $($mode)+)
    };
    (@expand [$($ty:ty,)+] names) => {
        [$(<$ty as $crate::registry::Disseminator>::NAME),+]
    };
    (@expand [$($ty:ty,)+] $id:expr, $P:ident => $body:expr) => {{
        let name = $crate::registry::ProtocolId::name($id);
        $(if name == <$ty as $crate::registry::Disseminator>::NAME {
            type $P = $ty;
            $body
        } else)+ {
            unreachable!("a ProtocolId only ever names a registered protocol")
        }
    }};
    ($($mode:tt)+) => { with_protocol!(@list $($mode)+) };
}
pub(crate) use with_protocol;

/// Every registered protocol's [`Disseminator::NAME`], in registry order.
pub const NAMES: &[&str] = &with_protocol!(names);

/// The protocols the fuzz and chaos harnesses draw from — an explicit
/// subset of the registry: the ones whose crash–restart and storage-fault
/// recovery the transient-fault oracle ("every node still completes") was
/// written against. The fuzz stream's first draw indexes this array, so
/// its length and order are part of every recorded fuzz seed.
pub const FAULT_TESTED: &[&str] = &["mnp", "rlnc", "xor"];

/// A handle naming one registered protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProtocolId(&'static str);

impl ProtocolId {
    /// The registered protocol called `name`, if any.
    pub fn lookup(name: &str) -> Option<ProtocolId> {
        NAMES.iter().find(|n| **n == name).map(|n| ProtocolId(n))
    }

    /// Resolves a user-supplied `name` within `allowed` ([`NAMES`] or a
    /// subset of it).
    ///
    /// # Errors
    ///
    /// Names the offending value and lists the allowed ones.
    pub fn parse(name: &str, allowed: &[&str]) -> Result<ProtocolId, String> {
        ProtocolId::lookup(name)
            .filter(|id| allowed.contains(&id.name()))
            .ok_or_else(|| format!("unknown protocol {name:?} ({})", allowed.join("|")))
    }

    /// The handle of the registered protocol type `P`.
    ///
    /// # Panics
    ///
    /// Panics if `P` implements [`Disseminator`] without being listed in
    /// the registry.
    pub fn of<P: Disseminator>() -> ProtocolId {
        ProtocolId::lookup(P::NAME).expect("protocol type is not in the registry")
    }

    /// The protocol's [`Disseminator::NAME`].
    pub fn name(self) -> &'static str {
        self.0
    }

    /// The protocol's [`Disseminator::LABEL`].
    pub fn label(self) -> &'static str {
        with_protocol!(self, P => P::LABEL)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{GridExperiment, Instruments};

    #[test]
    fn every_registered_protocol_runs_through_the_one_path() {
        assert_eq!(NAMES.len(), 7);
        // A 3×3 grid at 10 ft is one radio cell, so even single-hop XNP
        // covers it. The flood is the paper's strawman: it repairs no
        // loss, so its storm ends with the queue drained short of coverage.
        let scenario = GridExperiment::new(3, 3, 10.0)
            .seed(5)
            .check_invariants(true);
        for (i, name) in NAMES.iter().enumerate() {
            assert!(!NAMES[..i].contains(name), "duplicate name {name:?}");
            let id = ProtocolId::lookup(name).expect("every listed name resolves");
            assert_eq!(id.name(), *name);
            assert!(!id.label().is_empty());
            // Through the seed fan-out, so that path is exercised for a
            // protocol other than its MNP default too.
            let outs = scenario.run_seeds_with(&[5], |s| s.run_named(id, Instruments::default()));
            let out = &outs[0];
            if *name == "flood" {
                assert!(out.complete_nodes >= 1 && out.total_sent() > 0.0, "{out}");
            } else {
                assert!(out.completed, "{name} did not complete: {out}");
                assert_eq!(out.complete_nodes, 9, "{name}");
            }
        }
        assert_eq!(ProtocolId::lookup("fountain"), None);
    }

    #[test]
    fn typed_and_named_handles_agree() {
        assert_eq!(ProtocolId::of::<mnp::Mnp>().name(), "mnp");
        assert_eq!(ProtocolId::of::<mnp_baselines::Xor>().label(), "XOR");
    }

    #[test]
    fn parse_resolves_within_the_allowed_subset_only() {
        for name in FAULT_TESTED {
            assert_eq!(ProtocolId::parse(name, FAULT_TESTED).unwrap().name(), *name);
        }
        // Registered, but outside the subset.
        let err = ProtocolId::parse("deluge", FAULT_TESTED).unwrap_err();
        assert_eq!(err, "unknown protocol \"deluge\" (mnp|rlnc|xor)");
        assert!(ProtocolId::parse("deluge", NAMES).is_ok());
        let err = ProtocolId::parse("nope", NAMES).unwrap_err();
        assert!(err.contains("mnp|deluge|moap|xnp|flood|rlnc|xor"), "{err}");
    }
}
