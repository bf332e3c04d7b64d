//! The Fig. 4 protocol states.

use mnp_net::StateLabel;

/// The protocol states of Fig. 4. `Fail` is transient in the paper ("a node
/// in fail state ... switches to idle state immediately"), so it never
/// appears as a stored state here.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MnpState {
    /// Listening; owns no role in any transfer.
    Idle = 0,
    /// Holding data and advertising it.
    Advertise,
    /// Locked to a parent, receiving a segment.
    Download,
    /// Won the sender selection; transmitting a segment.
    Forward,
    /// Sender-side repair: polling children for losses (query/update
    /// variant only).
    Query,
    /// Receiver-side repair: requesting retransmissions one packet at a
    /// time (query/update variant only).
    Update,
    /// Radio down (or resting with the radio on when the sleep ablation is
    /// off).
    Sleep,
}

impl MnpState {
    /// Stable label for timelines, logs and metrics.
    pub fn label(self) -> &'static str {
        <Self as StateLabel>::label(self)
    }
}

impl StateLabel for MnpState {
    fn label(self) -> &'static str {
        match self {
            MnpState::Idle => "Idle",
            MnpState::Advertise => "Advertise",
            MnpState::Download => "Download",
            MnpState::Forward => "Forward",
            MnpState::Query => "Query",
            MnpState::Update => "Update",
            MnpState::Sleep => "Sleep",
        }
    }
}

impl std::fmt::Display for MnpState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}
