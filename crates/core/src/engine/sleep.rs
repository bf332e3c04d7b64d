//! Sleep scheduling and active-time billing.

use mnp_net::Context;
use mnp_sim::{SimDuration, SimRng, SimTime};

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

/// Bills wall-clock spans to per-state accumulators at event granularity.
///
/// Call [`bill`](StateClock::bill) at the top of every protocol callback
/// (messages, timers — stale ones included — and wakes): the span since
/// the previous event is charged to whatever bucket the caller passes,
/// i.e. the state the node was in while that span elapsed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StateClock {
    last_event_at: SimTime,
}

impl StateClock {
    /// A clock starting at time zero.
    pub fn new() -> Self {
        StateClock::default()
    }

    /// Charges the span since the last event to `bucket` (microseconds)
    /// and restarts the span at `now`.
    pub fn bill(&mut self, now: SimTime, bucket: &mut u64) {
        let span = now.saturating_since(self.last_event_at);
        *bucket += span.as_micros();
        self.last_event_at = now;
    }

    /// Restarts the span at `now` without charging it to any bucket.
    ///
    /// Used on crash-restart: the outage between the crash and the reboot
    /// belongs to no protocol state, so the first post-reboot event must
    /// not bill the dead span.
    pub fn resync(&mut self, now: SimTime) {
        self.last_event_at = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_clock_bills_spans_to_the_passed_bucket() {
        let mut clock = StateClock::new();
        let mut advertise = 0u64;
        let mut sleep = 0u64;
        clock.bill(SimTime::from_micros(100), &mut advertise);
        clock.bill(SimTime::from_micros(250), &mut sleep);
        clock.bill(SimTime::from_micros(300), &mut advertise);
        assert_eq!(advertise, 100 + 50);
        assert_eq!(sleep, 150);
    }

    #[test]
    fn state_clock_resync_skips_the_dead_span() {
        let mut clock = StateClock::new();
        let mut bucket = 0u64;
        clock.bill(SimTime::from_micros(100), &mut bucket);
        // Node dead from 100us to 900us: nobody is billed for the outage.
        clock.resync(SimTime::from_micros(900));
        clock.bill(SimTime::from_micros(950), &mut bucket);
        assert_eq!(bucket, 100 + 50);
    }

    #[test]
    fn state_clock_tolerates_same_instant_events() {
        let mut clock = StateClock::new();
        let mut bucket = 0u64;
        clock.bill(SimTime::from_micros(40), &mut bucket);
        clock.bill(SimTime::from_micros(40), &mut bucket);
        assert_eq!(bucket, 40);
    }
}
