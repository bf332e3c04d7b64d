//! Per-node and aggregate counters, gauges and histograms.

use crate::event::{EventKind, LossCause, ObsEvent};
use crate::json::Obj;
use crate::observer::Observer;
use mnp_radio::{MediumStats, NodeId};
use mnp_sim::SimTime;
use mnp_trace::MsgClass;
use std::io;
use std::path::Path;

/// A log2-bucketed histogram of `u64` samples.
///
/// Bucket `i` holds samples whose value needs `i` bits (bucket 0 is the
/// value zero), i.e. boundaries at powers of two — plenty of resolution
/// for "how skewed is this across nodes" questions without tuning.
#[derive(Clone, Debug)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: [u64; 65],
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: [0; 65],
        }
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[(64 - v.leading_zeros()) as usize] += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Mean of samples (zero when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    fn dump_into(&self, out: &mut String) {
        let mut o = Obj::new(out);
        o.u("count", self.count)
            .u("sum", self.sum)
            .u("min", if self.count == 0 { 0 } else { self.min })
            .u("max", self.max);
        let mut buckets = String::from("[");
        let mut first = true;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if !first {
                buckets.push(',');
            }
            first = false;
            // Upper bound of bucket i: 2^i - 1 (bucket 0 is exactly zero).
            let le = if i == 0 { 0 } else { (1u128 << i) - 1 };
            buckets.push_str(&format!("[{le},{n}]"));
        }
        buckets.push(']');
        o.raw("buckets", &buckets);
        o.end();
    }
}

/// One node's counters.
#[derive(Clone, Debug, Default)]
pub struct NodeMetrics {
    /// Transmissions by message class, indexed by `MsgClass as usize`.
    pub tx_by_class: [u64; MsgClass::COUNT],
    /// Intact receptions.
    pub rx: u64,
    /// Frames lost to collisions at this receiver.
    pub drops_collision: u64,
    /// Frames lost to channel noise at this receiver.
    pub drops_bit_error: u64,
    /// Timers armed.
    pub timers_set: u64,
    /// Timers fired.
    pub timers_fired: u64,
    /// Sleep periods entered.
    pub sleeps: u64,
    /// Total time spent with the radio off, in micros.
    pub sleep_us: u64,
    /// EEPROM packet writes.
    pub eeprom_writes: u64,
    /// EEPROM packet writes that failed (transient storage faults hit).
    pub write_faults: u64,
    /// Segments completed.
    pub segments_done: u64,
    /// Labelled protocol state transitions (initial state not counted).
    pub state_changes: u64,
    /// Whether the failure model killed this node.
    pub failed: bool,
    /// Crash-restarts survived (reboots with persistent EEPROM).
    pub restarts: u64,
    /// Outgoing link faults injected at this node.
    pub link_faults: u64,
    /// Transient EEPROM write faults armed on this node.
    pub storage_faults: u64,
    /// Physical-layer counters snapshotted from the medium at meter
    /// finalisation (all zero if the network never finalised).
    pub medium: MediumStats,
    asleep_since: Option<u64>,
}

impl NodeMetrics {
    /// Total transmissions across classes.
    pub fn tx_total(&self) -> u64 {
        self.tx_by_class.iter().sum()
    }
}

/// An observer accumulating per-node and aggregate metrics, dumpable as a
/// single JSON document.
///
/// Counters live per node; the dump adds aggregate totals, a gauge of
/// nodes asleep at run end, and cross-node histograms (transmissions and
/// sleep time per node).
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    nodes: Vec<NodeMetrics>,
    events: u64,
    run_end_us: Option<u64>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Total events observed.
    pub fn events(&self) -> u64 {
        self.events
    }

    /// Metrics for one node (by index), if the node ever produced an event.
    pub fn node(&self, index: usize) -> Option<&NodeMetrics> {
        self.nodes.get(index)
    }

    /// Aggregate transmissions across all nodes and classes.
    pub fn tx_total(&self) -> u64 {
        self.nodes.iter().map(NodeMetrics::tx_total).sum()
    }

    /// Aggregate intact receptions.
    pub fn rx_total(&self) -> u64 {
        self.nodes.iter().map(|n| n.rx).sum()
    }

    /// Aggregate drops (both causes).
    pub fn drops_total(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.drops_collision + n.drops_bit_error)
            .sum()
    }

    fn slot(&mut self, index: usize) -> &mut NodeMetrics {
        if index >= self.nodes.len() {
            self.nodes.resize(index + 1, NodeMetrics::default());
        }
        &mut self.nodes[index]
    }

    /// Renders the registry as one JSON document.
    pub fn dump_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"nodes\":[");
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('\n');
            let mut tx = String::new();
            {
                let mut t = Obj::new(&mut tx);
                for class in MsgClass::ALL {
                    t.u(class.label(), n.tx_by_class[class as usize]);
                }
                t.u("total", n.tx_total());
                t.end();
            }
            let mut o = Obj::new(&mut out);
            o.u("node", i as u64)
                .raw("tx", &tx)
                .u("rx", n.rx)
                .u("drops_collision", n.drops_collision)
                .u("drops_bit_error", n.drops_bit_error)
                .u("timers_set", n.timers_set)
                .u("timers_fired", n.timers_fired)
                .u("sleeps", n.sleeps)
                .u("sleep_us", n.sleep_us)
                .u("eeprom_writes", n.eeprom_writes)
                .u("write_faults", n.write_faults)
                .u("segments_done", n.segments_done)
                .u("state_changes", n.state_changes)
                .b("failed", n.failed)
                .u("restarts", n.restarts)
                .u("link_faults", n.link_faults)
                .u("storage_faults", n.storage_faults);
            let mut medium = String::new();
            {
                let mut m = Obj::new(&mut medium);
                for (name, value) in n.medium.fields() {
                    m.u(name, value);
                }
                m.end();
            }
            o.raw("medium", &medium);
            o.end();
        }
        out.push_str("],\n\"aggregate\":");
        let mut tx_hist = Histogram::new();
        let mut sleep_hist = Histogram::new();
        for n in &self.nodes {
            tx_hist.record(n.tx_total());
            sleep_hist.record(n.sleep_us);
        }
        let mut tx_hist_json = String::new();
        tx_hist.dump_into(&mut tx_hist_json);
        let mut sleep_hist_json = String::new();
        sleep_hist.dump_into(&mut sleep_hist_json);
        let asleep_at_end = self
            .nodes
            .iter()
            .filter(|n| n.asleep_since.is_some())
            .count();
        {
            let mut o = Obj::new(&mut out);
            o.u("events", self.events)
                .u("nodes", self.nodes.len() as u64)
                .u("tx_total", self.tx_total())
                .u("rx_total", self.rx_total())
                .u(
                    "drops_collision",
                    self.nodes.iter().map(|n| n.drops_collision).sum(),
                )
                .u(
                    "drops_bit_error",
                    self.nodes.iter().map(|n| n.drops_bit_error).sum(),
                )
                .u(
                    "eeprom_writes",
                    self.nodes.iter().map(|n| n.eeprom_writes).sum(),
                )
                .u(
                    "write_faults",
                    self.nodes.iter().map(|n| n.write_faults).sum(),
                )
                .u("nodes_asleep_at_end", asleep_at_end as u64)
                .u("run_end_us", self.run_end_us.unwrap_or(0))
                .raw("tx_per_node", &tx_hist_json)
                .raw("sleep_us_per_node", &sleep_hist_json);
            o.end();
        }
        out.push_str("}\n");
        out
    }

    /// Writes the JSON dump to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.dump_json())
    }
}

impl Observer for MetricsRegistry {
    fn on_event(&mut self, ev: &ObsEvent) {
        self.events += 1;
        let t = ev.t.as_micros();
        let n = self.slot(ev.node.index());
        match ev.kind {
            EventKind::State { from, .. } => {
                if !from.is_empty() {
                    n.state_changes += 1;
                }
            }
            EventKind::MsgTx { class, .. } => n.tx_by_class[class as usize] += 1,
            EventKind::MsgRx { .. } => n.rx += 1,
            EventKind::MsgDrop { cause, .. } => match cause {
                LossCause::Collision => n.drops_collision += 1,
                LossCause::BitError => n.drops_bit_error += 1,
            },
            EventKind::TimerSet { .. } => n.timers_set += 1,
            EventKind::TimerFire { .. } => n.timers_fired += 1,
            EventKind::SleepStart { .. } => {
                n.sleeps += 1;
                n.asleep_since = Some(t);
            }
            EventKind::Wake => {
                if let Some(s) = n.asleep_since.take() {
                    n.sleep_us += t.saturating_sub(s);
                }
            }
            EventKind::EepromWrite { .. } => n.eeprom_writes += 1,
            EventKind::EepromWriteFailed { .. } => n.write_faults += 1,
            EventKind::SegmentDone { .. } => n.segments_done += 1,
            EventKind::NodeFailed => n.failed = true,
            EventKind::NodeRestarted => {
                n.restarts += 1;
                // A reboot powers the radio back on; close any sleep
                // interval left open by the crash.
                if let Some(s) = n.asleep_since.take() {
                    n.sleep_us += t.saturating_sub(s);
                }
            }
            EventKind::LinkFault { .. } => n.link_faults += 1,
            EventKind::StorageFault { failures } => n.storage_faults += failures as u64,
            EventKind::LinkRestored { .. }
            | EventKind::LinkChanged { .. }
            | EventKind::Completed
            | EventKind::Parent { .. }
            | EventKind::BecameSender
            | EventKind::FirstHeard => {}
        }
    }

    fn on_medium_stats(&mut self, node: NodeId, stats: &MediumStats) {
        self.slot(node.index()).medium = *stats;
    }

    fn on_run_end(&mut self, at: SimTime) {
        let end = at.as_micros();
        self.run_end_us = Some(end);
        for n in &mut self.nodes {
            // Close open sleep intervals so sleep time is fully accounted,
            // but keep the marker for the "asleep at end" gauge.
            if let Some(s) = n.asleep_since {
                n.sleep_us += end.saturating_sub(s);
                n.asleep_since = Some(end);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::MsgDetail;
    use mnp_radio::NodeId;

    fn ev(node: u32, t: u64, kind: EventKind) -> ObsEvent {
        ObsEvent {
            t: SimTime::from_micros(t),
            node: NodeId(node),
            kind,
        }
    }

    #[test]
    fn counters_accumulate_per_node() {
        let mut m = MetricsRegistry::new();
        m.on_event(&ev(
            0,
            10,
            EventKind::MsgTx {
                class: MsgClass::Data,
                kind: "Data",
                bytes: 36,
                detail: MsgDetail::Opaque,
            },
        ));
        m.on_event(&ev(
            2,
            20,
            EventKind::MsgRx {
                from: NodeId(0),
                class: MsgClass::Data,
                kind: "Data",
                bytes: 36,
                detail: MsgDetail::Opaque,
            },
        ));
        m.on_event(&ev(
            2,
            30,
            EventKind::MsgDrop {
                from: NodeId(0),
                class: MsgClass::Data,
                kind: "Data",
                cause: LossCause::Collision,
            },
        ));
        assert_eq!(m.nodes.len(), 3);
        assert_eq!(m.node(0).unwrap().tx_by_class[MsgClass::Data as usize], 1);
        assert_eq!(m.node(2).unwrap().rx, 1);
        assert_eq!(m.node(2).unwrap().drops_collision, 1);
        assert_eq!(m.tx_total(), 1);
        assert_eq!(m.rx_total(), 1);
        assert_eq!(m.drops_total(), 1);
        assert_eq!(m.events(), 3);
    }

    #[test]
    fn sleep_time_accounts_open_intervals_at_run_end() {
        let mut m = MetricsRegistry::new();
        m.on_event(&ev(
            1,
            100,
            EventKind::SleepStart {
                until: SimTime::from_micros(400),
            },
        ));
        m.on_event(&ev(1, 400, EventKind::Wake));
        m.on_event(&ev(
            1,
            900,
            EventKind::SleepStart {
                until: SimTime::from_micros(2_000),
            },
        ));
        m.on_run_end(SimTime::from_micros(1_000));
        let n = m.node(1).unwrap();
        assert_eq!(n.sleeps, 2);
        assert_eq!(n.sleep_us, 300 + 100);
        let dump = m.dump_json();
        assert!(dump.contains("\"nodes_asleep_at_end\":1"), "{dump}");
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::new();
        for v in [0, 1, 1, 3, 900] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 905);
        assert_eq!(h.mean(), 181.0);
        let mut s = String::new();
        h.dump_into(&mut s);
        assert!(s.contains("[0,1]"), "zero bucket: {s}");
        assert!(s.contains("[1,2]"), "1-bit bucket: {s}");
        assert!(s.contains("[1023,1]"), "10-bit bucket: {s}");
    }

    #[test]
    fn every_medium_stats_field_appears_in_the_snapshot() {
        let mut m = MetricsRegistry::new();
        let stats = MediumStats {
            frames_sent: 1,
            frames_received: 2,
            rx_locks: 3,
            collisions: 4,
            rx_corrupted: 5,
            bit_error_losses: 6,
            rx_aborted: 7,
        };
        m.on_medium_stats(NodeId(0), &stats);
        assert_eq!(m.node(0).unwrap().medium, stats);
        let dump = m.dump_json();
        for (i, (name, value)) in stats.fields().into_iter().enumerate() {
            assert_eq!(value, i as u64 + 1, "fields() must preserve values");
            assert!(
                dump.contains(&format!("\"{name}\":{value}")),
                "MediumStats field {name} missing from snapshot: {dump}"
            );
        }
        // fields() itself must stay exhaustive: a new counter that is not
        // listed there would silently vanish from every snapshot.
        let MediumStats {
            frames_sent: _,
            frames_received: _,
            rx_locks: _,
            collisions: _,
            rx_corrupted: _,
            bit_error_losses: _,
            rx_aborted: _,
        } = stats;
        assert_eq!(stats.fields().len(), 7);
    }

    #[test]
    fn write_faults_count_per_node_and_in_aggregate() {
        let mut m = MetricsRegistry::new();
        m.on_event(&ev(3, 10, EventKind::EepromWriteFailed { seg: 0, pkt: 4 }));
        m.on_event(&ev(3, 20, EventKind::EepromWriteFailed { seg: 0, pkt: 4 }));
        assert_eq!(m.node(3).unwrap().write_faults, 2);
        let dump = m.dump_json();
        assert!(dump.contains("\"write_faults\":2"), "{dump}");
    }

    #[test]
    fn dump_is_valid_enough_json() {
        let mut m = MetricsRegistry::new();
        m.on_event(&ev(0, 1, EventKind::Completed));
        m.on_run_end(SimTime::from_micros(5));
        let dump = m.dump_json();
        assert!(dump.starts_with('{') && dump.trim_end().ends_with('}'));
        assert_eq!(
            dump.matches('{').count(),
            dump.matches('}').count(),
            "balanced braces: {dump}"
        );
        assert!(dump.contains("\"aggregate\""));
    }
}
