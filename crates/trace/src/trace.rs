//! The per-run observation record.

use mnp_radio::NodeId;
use mnp_sim::{SimDuration, SimTime};

use crate::windows::WindowedCounts;

/// Classes of protocol messages, for the Fig. 12 breakdown.
///
/// Protocols map their concrete message types onto these classes;
/// `StartDownload`/`EndDownload`/query/repair traffic is [`MsgClass::Control`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MsgClass {
    /// Advertisements of available data.
    Advertisement = 0,
    /// Download requests (MNP) or NACK-style page requests (Deluge).
    Request = 1,
    /// Code data packets.
    Data = 2,
    /// Everything else: StartDownload, EndDownload, query, repair.
    Control = 3,
}

impl MsgClass {
    /// Number of classes.
    pub const COUNT: usize = 4;

    /// All classes, in discriminant order.
    pub const ALL: [MsgClass; 4] = [
        MsgClass::Advertisement,
        MsgClass::Request,
        MsgClass::Data,
        MsgClass::Control,
    ];

    /// Short label used in the experiment harness tables.
    pub fn label(self) -> &'static str {
        match self {
            MsgClass::Advertisement => "adv",
            MsgClass::Request => "req",
            MsgClass::Data => "data",
            MsgClass::Control => "ctl",
        }
    }
}

/// Everything the harness needs to know about one node after a run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NodeSummary {
    /// When the node had the complete image ("get code time").
    pub completion: Option<SimTime>,
    /// When the node first heard an advertisement.
    pub first_heard: Option<SimTime>,
    /// The node it set as parent for its first download.
    pub parent: Option<NodeId>,
    /// 1-based position in the global become-a-sender order, if it ever
    /// forwarded code.
    pub sender_rank: Option<usize>,
    /// Messages this node transmitted (all classes).
    pub sent: u64,
    /// Messages this node received intact (all classes).
    pub received: u64,
    /// Total radio-on time.
    pub active_radio: SimDuration,
}

impl NodeSummary {
    /// Active radio time excluding initial idle listening: radio-on time
    /// after the first advertisement was heard (Fig. 9's metric). Falls
    /// back to the full active time when the node never heard one.
    pub fn active_radio_after_first_adv(&self, end: SimTime) -> SimDuration {
        match self.first_heard {
            // The radio is continuously on until the first advertisement
            // arrives, so the initial idle-listening span is exactly
            // `first_heard`.
            Some(first) => self
                .active_radio
                .saturating_sub(first.saturating_since(SimTime::ZERO)),
            None => self.active_radio.min(end.saturating_since(SimTime::ZERO)),
        }
    }
}

/// The observation record of one simulation run.
///
/// The network layer calls the `note_*` methods as events happen; the
/// experiment harness reads the accessors afterwards. All vectors are
/// indexed by [`NodeId`].
#[derive(Clone, Debug)]
pub struct RunTrace {
    nodes: Vec<NodeSummary>,
    sender_order: Vec<NodeId>,
    windows: WindowedCounts,
    incomplete: usize,
}

impl RunTrace {
    /// Creates a trace for `n` nodes with the paper's one-minute message
    /// window.
    pub fn new(n: usize) -> Self {
        RunTrace {
            nodes: vec![NodeSummary::default(); n],
            sender_order: Vec::new(),
            windows: WindowedCounts::new(SimDuration::from_secs(60)),
            incomplete: n,
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the trace covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Records a transmitted message.
    pub fn note_sent(&mut self, now: SimTime, node: NodeId, class: MsgClass) {
        self.nodes[node.index()].sent += 1;
        self.windows.record(now, class);
    }

    /// Records an intact reception.
    pub fn note_received(&mut self, _now: SimTime, node: NodeId) {
        self.nodes[node.index()].received += 1;
    }

    /// Records that `node` completed the image at `now` (idempotent; the
    /// first time wins).
    pub fn note_completion(&mut self, node: NodeId, now: SimTime) {
        let slot = &mut self.nodes[node.index()].completion;
        if slot.is_none() {
            *slot = Some(now);
            self.incomplete -= 1;
        }
    }

    /// Records that `node` heard its first advertisement at `now`
    /// (idempotent).
    pub fn note_first_heard(&mut self, node: NodeId, now: SimTime) {
        let slot = &mut self.nodes[node.index()].first_heard;
        if slot.is_none() {
            *slot = Some(now);
        }
    }

    /// Records the parent `node` downloaded from (first parent wins, which
    /// matches the mote experiments where the image is one segment).
    pub fn note_parent(&mut self, node: NodeId, parent: NodeId) {
        let slot = &mut self.nodes[node.index()].parent;
        if slot.is_none() {
            *slot = Some(parent);
        }
    }

    /// Records that `node` started forwarding code (idempotent; first time
    /// establishes its rank in the sender order).
    pub fn note_sender(&mut self, node: NodeId) {
        if self.nodes[node.index()].sender_rank.is_none() {
            self.sender_order.push(node);
            self.nodes[node.index()].sender_rank = Some(self.sender_order.len());
        }
    }

    /// Stores the final active-radio-time reading for `node`.
    pub fn set_active_radio(&mut self, node: NodeId, t: SimDuration) {
        self.nodes[node.index()].active_radio = t;
    }

    /// The summary of one node.
    pub fn node(&self, node: NodeId) -> &NodeSummary {
        &self.nodes[node.index()]
    }

    /// Iterates `(NodeId, &NodeSummary)`.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, &NodeSummary)> {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, s)| (NodeId::from_index(i), s))
    }

    /// Nodes in the order they became senders.
    pub fn sender_order(&self) -> &[NodeId] {
        &self.sender_order
    }

    /// The per-window message counters.
    pub fn windows(&self) -> &WindowedCounts {
        &self.windows
    }

    /// Closes the per-window counters at the end of the run (see
    /// [`WindowedCounts::close`]). Called by the network layer's run-end
    /// hook; idempotent.
    pub fn close_windows(&mut self, end: SimTime) {
        self.windows.close(end);
    }

    /// Whether every node completed. `O(1)`; safe to poll per event.
    pub fn all_complete(&self) -> bool {
        self.incomplete == 0
    }

    /// Number of nodes that have not completed yet.
    pub fn incomplete(&self) -> usize {
        self.incomplete
    }

    /// The time the last node completed, if all did.
    pub fn completion_time(&self) -> Option<SimTime> {
        self.nodes
            .iter()
            .map(|n| n.completion)
            .collect::<Option<Vec<_>>>()
            .map(|v| v.into_iter().max().unwrap_or(SimTime::ZERO))
    }

    /// Fraction of nodes that had completed by `t`.
    pub fn coverage_at(&self, t: SimTime) -> f64 {
        if self.nodes.is_empty() {
            return 0.0;
        }
        let done = self
            .nodes
            .iter()
            .filter(|n| n.completion.is_some_and(|c| c <= t))
            .count();
        done as f64 / self.nodes.len() as f64
    }

    /// Per-node boolean completion state at `t` (for Fig. 13 snapshots).
    pub fn completed_mask_at(&self, t: SimTime) -> Vec<bool> {
        self.nodes
            .iter()
            .map(|n| n.completion.is_some_and(|c| c <= t))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_tracking() {
        let mut t = RunTrace::new(3);
        assert!(!t.all_complete());
        t.note_completion(NodeId(0), SimTime::from_secs(10));
        t.note_completion(NodeId(1), SimTime::from_secs(30));
        t.note_completion(NodeId(2), SimTime::from_secs(20));
        // Idempotent: later call does not move the time.
        t.note_completion(NodeId(0), SimTime::from_secs(99));
        assert!(t.all_complete());
        assert_eq!(t.completion_time(), Some(SimTime::from_secs(30)));
        assert_eq!(t.node(NodeId(0)).completion, Some(SimTime::from_secs(10)));
    }

    #[test]
    fn coverage_fraction() {
        let mut t = RunTrace::new(4);
        t.note_completion(NodeId(0), SimTime::from_secs(10));
        t.note_completion(NodeId(1), SimTime::from_secs(20));
        assert_eq!(t.coverage_at(SimTime::from_secs(15)), 0.25);
        assert_eq!(t.coverage_at(SimTime::from_secs(20)), 0.5);
        assert_eq!(
            t.completed_mask_at(SimTime::from_secs(15)),
            vec![true, false, false, false]
        );
    }

    #[test]
    fn sender_order_ranks_first_occurrence() {
        let mut t = RunTrace::new(3);
        t.note_sender(NodeId(2));
        t.note_sender(NodeId(0));
        t.note_sender(NodeId(2));
        assert_eq!(t.sender_order(), &[NodeId(2), NodeId(0)]);
        assert_eq!(t.node(NodeId(2)).sender_rank, Some(1));
        assert_eq!(t.node(NodeId(0)).sender_rank, Some(2));
        assert_eq!(t.node(NodeId(1)).sender_rank, None);
    }

    #[test]
    fn art_after_first_adv_subtracts_initial_wait() {
        let mut t = RunTrace::new(1);
        t.note_first_heard(NodeId(0), SimTime::from_secs(100));
        t.set_active_radio(NodeId(0), SimDuration::from_secs(150));
        let end = SimTime::from_secs(1_000);
        assert_eq!(
            t.node(NodeId(0)).active_radio_after_first_adv(end),
            SimDuration::from_secs(50)
        );
    }

    #[test]
    fn art_without_any_adv_falls_back_to_full() {
        let mut t = RunTrace::new(1);
        t.set_active_radio(NodeId(0), SimDuration::from_secs(5));
        assert_eq!(
            t.node(NodeId(0))
                .active_radio_after_first_adv(SimTime::from_secs(9)),
            SimDuration::from_secs(5)
        );
    }

    #[test]
    fn message_counts_and_windows() {
        let mut t = RunTrace::new(2);
        t.note_sent(SimTime::from_secs(1), NodeId(0), MsgClass::Advertisement);
        t.note_sent(SimTime::from_secs(61), NodeId(0), MsgClass::Data);
        t.note_received(SimTime::from_secs(61), NodeId(1));
        assert_eq!(t.node(NodeId(0)).sent, 2);
        assert_eq!(t.node(NodeId(1)).received, 1);
        assert_eq!(t.windows().series(MsgClass::Advertisement), vec![1, 0]);
        assert_eq!(t.windows().series(MsgClass::Data), vec![0, 1]);
    }

    #[test]
    fn parent_is_first_write_wins() {
        let mut t = RunTrace::new(2);
        t.note_parent(NodeId(1), NodeId(0));
        t.note_parent(NodeId(1), NodeId(1));
        assert_eq!(t.node(NodeId(1)).parent, Some(NodeId(0)));
    }
}
