//! Protocol parameters: the ablation switches a caller may flip, and the
//! timings, which are constants.

use mnp_radio::airtime;
use mnp_sim::SimDuration;
use mnp_storage::{ImageLayout, ProgramImage};

/// MNP protocol parameters: the image and the four design choices.
///
/// Every knob that the paper calls a design choice is an explicit field
/// so the ablation experiments (DESIGN.md A1–A4) can flip it. The
/// protocol timings are not knobs: no caller varies them, so they are the
/// one constant `TIMINGS` of this module, checked at compile time.
///
/// # Example
///
/// ```
/// use mnp::MnpConfig;
/// use mnp_storage::{ImageLayout, ProgramId, ProgramImage};
///
/// let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(2));
/// let cfg = MnpConfig::for_image(&image);
/// assert!(cfg.query_update); // repair phase on by default
/// ```
#[derive(Clone, Debug)]
pub struct MnpConfig {
    /// The program being disseminated: one handle shared by every node,
    /// which checks each flash write against it. All nodes know the packet
    /// geometry; the program ID and segment count still travel in
    /// advertisements.
    pub image: ProgramImage,
    /// Enable the optional query/update repair phase (the paper's second
    /// state machine; ablation A4).
    pub query_update: bool,
    /// Enable the sender-selection competition (ablation A1). When off,
    /// sources ignore rivals' `ReqCtr`s and never yield.
    pub sender_selection: bool,
    /// Enable radio power-down in the sleep state (ablation A2). When off,
    /// "sleeping" nodes keep the radio on (Deluge-style) but behave
    /// identically otherwise.
    pub sleep_enabled: bool,
    /// Enable segment pipelining (ablation A3). When off, a node becomes a
    /// source only after receiving the entire program (the basic protocol
    /// of §3.1.1).
    pub pipelining: bool,
}

impl MnpConfig {
    /// The paper's configuration for a given image.
    pub fn for_image(image: &ProgramImage) -> Self {
        MnpConfig {
            image: image.clone(),
            query_update: true,
            sender_selection: true,
            sleep_enabled: true,
            pipelining: true,
        }
    }

    /// Expected time to transmit one full segment of this image.
    pub fn segment_tx_time(&self) -> SimDuration {
        TIMINGS.segment_tx_time(self.image.layout())
    }
}

/// MNP's protocol timings. They follow the paper where it gives values and
/// the companion technical report's orders of magnitude elsewhere.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Timings {
    /// Number of advertisements a source sends before deciding whether it
    /// has requesters ("after advertising K times", Fig. 2).
    pub(crate) adv_count: u8,
    /// Lower bound of the random advertisement interval.
    pub(crate) adv_interval_min: SimDuration,
    /// Upper bound of the random advertisement interval.
    pub(crate) adv_interval_max: SimDuration,
    /// Initial sleep gap between quiet advertisement rounds.
    pub(crate) quiet_gap_initial: SimDuration,
    /// Cap for the exponentially increased quiet gap of a node holding the
    /// complete image ("we exponentially increase the advertise interval
    /// if no request is received"; §6 discusses the sleep-length
    /// tradeoff).
    pub(crate) quiet_gap_cap: SimDuration,
    /// Quiet-gap cap while the node is still missing segments: it must
    /// wake often enough to catch upstream advertisements, so the cap is
    /// short.
    pub(crate) quiet_gap_cap_incomplete: SimDuration,

    /// Pacing between consecutive data packets of a segment transfer; the
    /// EEPROM write on the receiving side bounds this from below.
    pub(crate) data_packet_period: SimDuration,
    /// Random jitter added to the packet pacing.
    pub(crate) data_packet_jitter: SimDuration,
    /// How long a downloading node waits for the next packet before
    /// declaring the download failed ("it will wait for reasonably long
    /// time until it concludes that this download process fails").
    pub(crate) download_timeout: SimDuration,

    /// How long a sender sleeps after finishing a forward round ("it quits
    /// the competition temporarily by sleeping for a while, so that other
    /// sources have better chance to become senders") — long enough to sit
    /// out one advertisement round.
    pub(crate) post_forward_sleep: SimDuration,
    /// Sender-side: how long to wait in query state without repair
    /// requests before sleeping.
    pub(crate) query_idle_timeout: SimDuration,
    /// Receiver-side: how long to wait for a retransmission in update
    /// state before failing.
    pub(crate) update_timeout: SimDuration,
}

/// The timings every MNP node runs with.
pub(crate) const TIMINGS: Timings = Timings {
    adv_count: 2,
    adv_interval_min: SimDuration::from_millis(200),
    adv_interval_max: SimDuration::from_millis(600),
    quiet_gap_initial: SimDuration::from_secs(2),
    quiet_gap_cap: SimDuration::from_secs(60),
    quiet_gap_cap_incomplete: SimDuration::from_secs(8),
    data_packet_period: SimDuration::from_millis(35),
    data_packet_jitter: SimDuration::from_millis(10),
    download_timeout: SimDuration::from_secs(2),
    post_forward_sleep: SimDuration::from_millis(1_500),
    query_idle_timeout: SimDuration::from_secs(3),
    update_timeout: SimDuration::from_secs(2),
};

// The timings are consistent, checked by the compiler.
const _: () = TIMINGS.validate();

impl Timings {
    /// Expected time to transmit one full segment of `layout`: the sleep
    /// period is "approximately the expected code transmission time" of
    /// what the winning neighbour is sending.
    pub(crate) fn segment_tx_time(&self, layout: ImageLayout) -> SimDuration {
        let per_packet = self.data_packet_period
            + self.data_packet_jitter / 2
            + airtime(3 + layout.payload_bytes());
        per_packet * u64::from(layout.packets_per_segment())
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on inverted intervals or a zero advertisement count.
    const fn validate(&self) {
        assert!(self.adv_count >= 1, "need at least one advertisement");
        assert!(
            self.adv_interval_min.as_micros() <= self.adv_interval_max.as_micros(),
            "inverted advertisement interval"
        );
        assert!(
            self.quiet_gap_initial.as_micros() <= self.quiet_gap_cap.as_micros(),
            "quiet gap cap below its initial value"
        );
        assert!(
            !self.data_packet_period.is_zero(),
            "data packets need pacing"
        );
        assert!(
            self.download_timeout.as_micros() > self.data_packet_period.as_micros(),
            "download timeout must exceed the packet period"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnp_storage::{ImageLayout, ProgramId};

    fn cfg() -> MnpConfig {
        let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(1));
        MnpConfig::for_image(&image)
    }

    #[test]
    fn defaults_validate() {
        TIMINGS.validate();
    }

    #[test]
    fn segment_tx_time_is_plausible() {
        let t = cfg().segment_tx_time();
        // 128 packets at ~60 ms each (35 ms pacing + jitter + airtime).
        assert!(
            t >= SimDuration::from_secs(5) && t <= SimDuration::from_secs(12),
            "segment tx time {t}"
        );
    }

    #[test]
    fn config_carries_image_identity() {
        let image = ProgramImage::synthetic(ProgramId(9), ImageLayout::paper_default(3));
        let c = MnpConfig::for_image(&image);
        assert_eq!(c.image.id(), ProgramId(9));
        assert_eq!(c.image.layout().segment_count(), 3);
        assert_eq!(
            c.image.bytes().as_ptr(),
            image.bytes().as_ptr(),
            "shared, not copied"
        );
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn inverted_interval_rejected() {
        let mut t = TIMINGS;
        t.adv_interval_min = SimDuration::from_secs(10);
        t.validate();
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn zero_adv_count_rejected() {
        let mut t = TIMINGS;
        t.adv_count = 0;
        t.validate();
    }
}
