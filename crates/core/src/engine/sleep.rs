//! Sleep scheduling.

use mnp_net::Context;
use mnp_sim::{SimDuration, SimRng};

/// Puts a node to rest, honoring the sleep ablation: with the radio
/// allowed off the node truly powers down ([`Context::sleep_for`]); with
/// sleep disabled it idles with the radio on behind an equivalent timer,
/// so the protocol schedule is unchanged while the energy story differs.
///
/// The jittered span helpers centralize the paper's rest durations: naps
/// between segments spread by a quarter of the base span, longer
/// post-forward rests by half.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SleepController {
    radio_off: bool,
}

impl SleepController {
    /// A controller that powers the radio down iff `radio_off` (wire this
    /// to `cfg.sleep_enabled`).
    pub fn new(radio_off: bool) -> Self {
        SleepController { radio_off }
    }

    /// Rests for `span`: a real sleep when the radio may go down,
    /// otherwise an awake idle ended by a timer carrying `rest_token`.
    pub fn rest<M>(&self, ctx: &mut Context<'_, M>, span: SimDuration, rest_token: u64) {
        if self.radio_off {
            ctx.sleep_for(span);
        } else {
            ctx.set_timer(span, rest_token);
        }
    }

    /// A nap span: `base` jittered by a quarter of itself.
    pub fn nap_span(&self, rng: &mut SimRng, base: SimDuration) -> SimDuration {
        rng.jittered(base, base / 4)
    }

    /// A long-rest span: `base` jittered by half of itself.
    pub fn long_span(&self, rng: &mut SimRng, base: SimDuration) -> SimDuration {
        rng.jittered(base, base / 2)
    }
}
