//! Online protocol-safety checking.

use crate::event::{EventKind, MsgDetail, ObsEvent};
use crate::observer::Observer;

/// An observer that checks protocol safety properties while the simulation
/// runs and fails fast (panics) with the offending event's context.
///
/// Checked invariants:
///
/// 1. **Write-once EEPROM** — no node writes the same `(segment, packet)`
///    twice ("each packet is written to EEPROM exactly once" is the
///    protocol's flash-wear guarantee).
/// 2. **In-order segments** — every node completes segment `k` only after
///    `k - 1` (MNP transfers segments strictly in order).
/// 3. **Sleep/transmit exclusion** — a node whose radio is off never
///    transmits or receives.
/// 4. **ReqCtr echo** — the request counter echoed in a download request
///    matches a value the requester actually heard advertised by that
///    destination.
///
/// Construct with [`InvariantMonitor::new`] for fail-fast behaviour, or
/// [`InvariantMonitor::lenient`] to collect violations for later assertion
/// (useful in tests probing the monitor itself).
#[derive(Debug, Default)]
pub struct InvariantMonitor {
    lenient: bool,
    checks: u64,
    violations: Vec<String>,
    /// Per-node state, indexed by node index.
    nodes: Vec<NodeState>,
}

/// What the monitor remembers about one node.
#[derive(Clone, Debug, Default)]
struct NodeState {
    /// Packets already written: one bit set per segment, bit `pkt`.
    written: Vec<Vec<u64>>,
    /// Next expected segment.
    next_seg: u16,
    /// Whether the radio is currently off.
    asleep: bool,
    /// 256-bit set of ReqCtr values this node has heard each source
    /// advertise, one entry per source.
    heard_req_ctr: Vec<(u32, [u64; 4])>,
}

impl NodeState {
    /// Marks `(seg, pkt)` written; false if it already was.
    fn write(&mut self, seg: u16, pkt: u16) -> bool {
        let seg = seg as usize;
        if seg >= self.written.len() {
            self.written.resize(seg + 1, Vec::new());
        }
        let bits = &mut self.written[seg];
        let word = pkt as usize / 64;
        if word >= bits.len() {
            bits.resize(word + 1, 0);
        }
        let mask = 1 << (pkt % 64);
        let fresh = bits[word] & mask == 0;
        bits[word] |= mask;
        fresh
    }

    fn heard_from(&self, source: u32) -> Option<&[u64; 4]> {
        self.heard_req_ctr
            .iter()
            .find(|(s, _)| *s == source)
            .map(|(_, bits)| bits)
    }

    fn heard_from_mut(&mut self, source: u32) -> &mut [u64; 4] {
        let at = match self.heard_req_ctr.iter().position(|(s, _)| *s == source) {
            Some(at) => at,
            None => {
                self.heard_req_ctr.push((source, [0; 4]));
                self.heard_req_ctr.len() - 1
            }
        };
        &mut self.heard_req_ctr[at].1
    }
}

impl InvariantMonitor {
    /// Creates a fail-fast monitor: the first violation panics.
    pub fn new() -> Self {
        InvariantMonitor::default()
    }

    /// Creates a monitor that records violations instead of panicking.
    pub fn lenient() -> Self {
        InvariantMonitor {
            lenient: true,
            ..InvariantMonitor::default()
        }
    }

    /// Number of individual invariant checks evaluated.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Violations collected so far (always empty in fail-fast mode, which
    /// panics instead).
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Whether no violation has been observed.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    fn node(&mut self, index: usize) -> &mut NodeState {
        if index >= self.nodes.len() {
            self.nodes.resize(index + 1, NodeState::default());
        }
        &mut self.nodes[index]
    }

    fn violate(&mut self, msg: String, ev: &ObsEvent) {
        let full = format!("protocol invariant violated: {msg} — offending event: {ev}");
        if self.lenient {
            self.violations.push(full);
        } else {
            panic!("{full}");
        }
    }
}

fn bit_set(bits: &mut [u64; 4], v: u8) {
    bits[(v / 64) as usize] |= 1 << (v % 64);
}

fn bit_get(bits: &[u64; 4], v: u8) -> bool {
    bits[(v / 64) as usize] & (1 << (v % 64)) != 0
}

impl Observer for InvariantMonitor {
    fn on_event(&mut self, ev: &ObsEvent) {
        let node = ev.node.0;
        let index = ev.node.index();
        match ev.kind {
            EventKind::EepromWrite { seg, pkt } => {
                self.checks += 1;
                if !self.node(index).write(seg, pkt) {
                    self.violate(
                        format!("node {node} wrote EEPROM packet ({seg},{pkt}) twice"),
                        ev,
                    );
                }
            }
            EventKind::SegmentDone { seg } => {
                self.checks += 1;
                let expect = self.node(index).next_seg;
                if seg != expect {
                    self.violate(
                        format!(
                            "node {node} completed segment {seg} but the next \
                             in-order segment is {expect}"
                        ),
                        ev,
                    );
                }
                self.node(index).next_seg = seg + 1;
            }
            EventKind::SleepStart { .. } => {
                self.node(index).asleep = true;
            }
            EventKind::Wake | EventKind::NodeFailed | EventKind::NodeRestarted => {
                self.node(index).asleep = false;
            }
            EventKind::MsgTx { detail, .. } => {
                self.checks += 1;
                if self.node(index).asleep {
                    self.violate(format!("node {node} transmitted while asleep"), ev);
                }
                if let MsgDetail::Request { dest, req_ctr, .. } = detail {
                    self.checks += 1;
                    let heard = self
                        .node(index)
                        .heard_from(dest.0)
                        .is_some_and(|bits| bit_get(bits, req_ctr));
                    if !heard {
                        self.violate(
                            format!(
                                "node {node} requested from node {} echoing ReqCtr \
                                 {req_ctr}, which it never heard advertised",
                                dest.0
                            ),
                            ev,
                        );
                    }
                }
            }
            EventKind::MsgRx { detail, .. } => {
                self.checks += 1;
                if self.node(index).asleep {
                    self.violate(format!("node {node} received while asleep"), ev);
                }
                if let MsgDetail::Advertisement {
                    source, req_ctr, ..
                } = detail
                {
                    bit_set(self.node(index).heard_from_mut(source.0), req_ctr);
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnp_radio::NodeId;
    use mnp_sim::SimTime;
    use mnp_trace::MsgClass;

    fn ev(node: u32, kind: EventKind) -> ObsEvent {
        ObsEvent {
            t: SimTime::from_micros(77),
            node: NodeId(node),
            kind,
        }
    }

    #[test]
    fn double_eeprom_write_is_flagged() {
        let mut m = InvariantMonitor::lenient();
        m.on_event(&ev(4, EventKind::EepromWrite { seg: 0, pkt: 3 }));
        assert!(m.ok());
        m.on_event(&ev(4, EventKind::EepromWrite { seg: 0, pkt: 3 }));
        assert!(!m.ok());
        assert!(m.violations()[0].contains("wrote EEPROM packet (0,3) twice"));
        // Same packet on a different node is fine.
        let mut other = InvariantMonitor::lenient();
        other.on_event(&ev(4, EventKind::EepromWrite { seg: 0, pkt: 3 }));
        other.on_event(&ev(5, EventKind::EepromWrite { seg: 0, pkt: 3 }));
        assert!(other.ok());
    }

    #[test]
    fn out_of_order_segment_is_flagged() {
        let mut m = InvariantMonitor::lenient();
        m.on_event(&ev(1, EventKind::SegmentDone { seg: 0 }));
        m.on_event(&ev(1, EventKind::SegmentDone { seg: 1 }));
        assert!(m.ok());
        m.on_event(&ev(1, EventKind::SegmentDone { seg: 3 }));
        assert!(!m.ok());
    }

    #[test]
    fn sleeping_node_transmitting_is_flagged() {
        let mut m = InvariantMonitor::lenient();
        let tx = EventKind::MsgTx {
            class: MsgClass::Advertisement,
            kind: "Advertisement",
            bytes: 9,
            detail: MsgDetail::Opaque,
        };
        m.on_event(&ev(
            2,
            EventKind::SleepStart {
                until: SimTime::from_secs(9),
            },
        ));
        m.on_event(&ev(2, tx));
        assert!(!m.ok());
        // After waking, transmitting is fine again.
        let mut m2 = InvariantMonitor::lenient();
        m2.on_event(&ev(
            2,
            EventKind::SleepStart {
                until: SimTime::from_secs(9),
            },
        ));
        m2.on_event(&ev(2, EventKind::Wake));
        m2.on_event(&ev(2, tx));
        assert!(m2.ok());
    }

    #[test]
    fn req_ctr_echo_must_match_something_heard() {
        let dest = NodeId(7);
        let req = |ctr: u8| EventKind::MsgTx {
            class: MsgClass::Request,
            kind: "DownloadRequest",
            bytes: 40,
            detail: MsgDetail::Request {
                dest,
                seg: 0,
                req_ctr: ctr,
            },
        };
        let adv = |ctr: u8| EventKind::MsgRx {
            from: dest,
            class: MsgClass::Advertisement,
            kind: "Advertisement",
            bytes: 9,
            detail: MsgDetail::Advertisement {
                source: dest,
                seg: 0,
                req_ctr: ctr,
            },
        };
        let mut m = InvariantMonitor::lenient();
        m.on_event(&ev(1, adv(5)));
        m.on_event(&ev(1, adv(6)));
        m.on_event(&ev(1, req(5)));
        m.on_event(&ev(1, req(6)));
        assert!(m.ok(), "{:?}", m.violations());
        m.on_event(&ev(1, req(9)));
        assert!(!m.ok());
        assert!(m.violations()[0].contains("never heard advertised"));
    }

    #[test]
    #[should_panic(expected = "protocol invariant violated")]
    fn strict_mode_panics() {
        let mut m = InvariantMonitor::new();
        m.on_event(&ev(0, EventKind::EepromWrite { seg: 0, pkt: 0 }));
        m.on_event(&ev(0, EventKind::EepromWrite { seg: 0, pkt: 0 }));
    }

    #[test]
    fn checks_are_counted() {
        let mut m = InvariantMonitor::lenient();
        m.on_event(&ev(0, EventKind::EepromWrite { seg: 0, pkt: 0 }));
        m.on_event(&ev(0, EventKind::SegmentDone { seg: 0 }));
        assert_eq!(m.checks(), 2);
    }
}
