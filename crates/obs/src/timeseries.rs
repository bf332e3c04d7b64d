//! Time-series sampling of simulator health on a sim-time cadence.
//!
//! A [`TimeSeriesSampler`] is attached to the network twice: as an
//! [`Observer`] it accumulates per-protocol message counters from the
//! event stream, and through the network's sampling hook it snapshots
//! kernel gauges (event-queue depth, cumulative events processed) every
//! `interval` of *simulation* time. Each snapshot lands in a fixed-size
//! ring buffer — the last `capacity` samples are retained, older ones
//! overwritten — so a sampler never allocates after construction no
//! matter how long the run.
//!
//! Samples export as JSONL rows ([`TimeSeriesSampler::dump_jsonl`]) and as
//! Perfetto counter tracks merged into the state timeline
//! ([`crate::TimelineExporter::dump_json_with_counters`]).

use crate::event::{EventKind, ObsEvent};
use crate::json::Obj;
use crate::observer::Observer;
use mnp_sim::{SimDuration, SimTime};
use mnp_trace::MsgClass;
use std::fmt::Write;
use std::io;
use std::path::Path;

/// One snapshot of simulator health at an instant of simulation time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Sample {
    /// Simulation time of the snapshot, in microseconds.
    pub t_us: u64,
    /// Kernel event-queue depth at the snapshot.
    pub queue_depth: u64,
    /// Cumulative kernel events processed since the run started.
    pub events: u64,
    /// Kernel events per second of *simulation* time since the previous
    /// sample (since t = 0 for the first).
    pub events_per_sec: u64,
    /// Cumulative transmissions by message class, indexed by
    /// `MsgClass as usize`.
    pub tx_by_class: [u64; MsgClass::COUNT],
    /// Cumulative intact receptions.
    pub rx: u64,
    /// Cumulative frames dropped (collision + bit error).
    pub drops: u64,
    /// Cumulative heap allocations, when an allocation counter is wired
    /// in ([`TimeSeriesSampler::with_alloc_counters`]); zero otherwise.
    pub allocs: u64,
    /// Cumulative heap bytes allocated (same caveat).
    pub alloc_bytes: u64,
}

/// A ring-buffered sampler of kernel gauges and protocol counters.
///
/// Construct with a cadence and capacity, attach to the network (both as
/// observer and sampling hook — `NetworkBuilder::timeseries` does both),
/// and read the retained samples back after the run.
#[derive(Debug)]
pub struct TimeSeriesSampler {
    interval: SimDuration,
    capacity: usize,
    ring: Vec<Sample>,
    /// Write position once the ring is full (oldest retained sample).
    head: usize,
    /// Samples ever taken, including overwritten ones.
    taken: u64,
    tx_by_class: [u64; MsgClass::COUNT],
    rx: u64,
    drops: u64,
    alloc_fn: Option<fn() -> (u64, u64)>,
    last: Option<(u64, u64)>,
}

impl TimeSeriesSampler {
    /// Creates a sampler taking one snapshot every `interval` of sim time,
    /// retaining the most recent `capacity` snapshots.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero or `capacity` is zero.
    pub fn new(interval: SimDuration, capacity: usize) -> Self {
        assert!(
            interval > SimDuration::ZERO,
            "sampling interval must be positive"
        );
        assert!(capacity > 0, "ring capacity must be positive");
        TimeSeriesSampler {
            interval,
            capacity,
            ring: Vec::with_capacity(capacity),
            head: 0,
            taken: 0,
            tx_by_class: [0; MsgClass::COUNT],
            rx: 0,
            drops: 0,
            alloc_fn: None,
            last: None,
        }
    }

    /// Wires in a counting-allocator readout returning cumulative
    /// `(allocations, bytes)`; every subsequent sample records it.
    pub fn with_alloc_counters(mut self, f: fn() -> (u64, u64)) -> Self {
        self.alloc_fn = Some(f);
        self
    }

    /// The configured sampling cadence.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Number of samples currently retained (at most the capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// Whether no samples have been taken yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Samples ever taken, including those the ring has overwritten.
    pub fn taken(&self) -> u64 {
        self.taken
    }

    /// Takes one snapshot. Called by the network's run loop at the
    /// configured cadence with the kernel gauges of the moment.
    pub fn record(&mut self, t: SimTime, queue_depth: usize, events: u64) {
        let t_us = t.as_micros();
        let (prev_t, prev_events) = self.last.unwrap_or((0, 0));
        let dt_us = t_us.saturating_sub(prev_t);
        let de = events.saturating_sub(prev_events);
        let events_per_sec = if dt_us == 0 {
            0
        } else {
            u64::try_from(u128::from(de) * 1_000_000 / u128::from(dt_us)).unwrap_or(u64::MAX)
        };
        self.last = Some((t_us, events));
        let (allocs, alloc_bytes) = self.alloc_fn.map_or((0, 0), |f| f());
        let sample = Sample {
            t_us,
            queue_depth: queue_depth as u64,
            events,
            events_per_sec,
            tx_by_class: self.tx_by_class,
            rx: self.rx,
            drops: self.drops,
            allocs,
            alloc_bytes,
        };
        if self.ring.len() < self.capacity {
            self.ring.push(sample);
        } else {
            self.ring[self.head] = sample;
            self.head = (self.head + 1) % self.capacity;
        }
        self.taken += 1;
    }

    /// Retained samples in chronological order (oldest first).
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        let (older, newer) = self.ring.split_at(self.head);
        newer.iter().chain(older.iter())
    }

    /// Renders the retained samples as JSONL, one object per row with a
    /// stable key order. Overwritten samples are gone; [`Self::taken`]
    /// tells how many were dropped.
    pub fn dump_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.samples() {
            let mut o = Obj::new(&mut out);
            o.u("t", s.t_us)
                .u("queue", s.queue_depth)
                .u("events", s.events)
                .u("events_per_sec", s.events_per_sec);
            for class in MsgClass::ALL {
                let key = match class {
                    MsgClass::Advertisement => "tx_adv",
                    MsgClass::Request => "tx_req",
                    MsgClass::Data => "tx_data",
                    MsgClass::Control => "tx_ctl",
                };
                o.u(key, s.tx_by_class[class as usize]);
            }
            o.u("rx", s.rx)
                .u("drops", s.drops)
                .u("allocs", s.allocs)
                .u("alloc_bytes", s.alloc_bytes);
            o.end_line();
        }
        out
    }

    /// Writes the JSONL dump to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.dump_jsonl())
    }

    /// Appends the samples as Chrome-trace counter events (`"ph":"C"`,
    /// one track per gauge) to a trace-event list under construction.
    /// Used by [`crate::TimelineExporter::dump_json_with_counters`].
    pub(crate) fn append_counter_events(&self, out: &mut String, first: &mut bool) {
        let mut sep = |out: &mut String| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push('\n');
        };
        for s in self.samples() {
            let ts = s.t_us;
            sep(out);
            let _ = write!(
                out,
                "{{\"name\":\"queue_depth\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\
                 \"args\":{{\"depth\":{}}}}}",
                s.queue_depth
            );
            sep(out);
            let _ = write!(
                out,
                "{{\"name\":\"events_per_sec\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\
                 \"args\":{{\"rate\":{}}}}}",
                s.events_per_sec
            );
            sep(out);
            let _ = write!(
                out,
                "{{\"name\":\"tx_by_class\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\"args\":{{"
            );
            for (i, class) in MsgClass::ALL.into_iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(
                    out,
                    "\"{}\":{}",
                    class.label(),
                    s.tx_by_class[class as usize]
                );
            }
            out.push_str("}}");
            if self.alloc_fn.is_some() {
                sep(out);
                let _ = write!(
                    out,
                    "{{\"name\":\"allocs\",\"ph\":\"C\",\"ts\":{ts},\"pid\":0,\
                     \"args\":{{\"allocs\":{}}}}}",
                    s.allocs
                );
            }
        }
    }
}

impl Observer for TimeSeriesSampler {
    fn on_event(&mut self, ev: &ObsEvent) {
        match ev.kind {
            EventKind::MsgTx { class, .. } => self.tx_by_class[class as usize] += 1,
            EventKind::MsgRx { .. } => self.rx += 1,
            EventKind::MsgDrop { .. } => self.drops += 1,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnp_radio::NodeId;

    fn sampler(cap: usize) -> TimeSeriesSampler {
        TimeSeriesSampler::new(SimDuration::from_secs(1), cap)
    }

    #[test]
    fn rate_is_delta_events_over_delta_sim_time() {
        let mut ts = sampler(8);
        ts.record(SimTime::from_secs(1), 5, 2_000);
        ts.record(SimTime::from_secs(3), 7, 6_000);
        let rows: Vec<&Sample> = ts.samples().collect();
        assert_eq!(rows[0].events_per_sec, 2_000, "first sample rates from t=0");
        assert_eq!(rows[1].events_per_sec, 2_000, "4000 events over 2 s");
        assert_eq!(rows[1].queue_depth, 7);
    }

    #[test]
    fn ring_wraps_at_capacity_keeping_the_newest() {
        let mut ts = sampler(3);
        for i in 1..=5u64 {
            ts.record(SimTime::from_secs(i), i as usize, i * 10);
        }
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.taken(), 5);
        let t: Vec<u64> = ts.samples().map(|s| s.t_us).collect();
        assert_eq!(
            t,
            vec![3_000_000, 4_000_000, 5_000_000],
            "oldest two overwritten, order chronological"
        );
        // The ring never grows past its pre-allocated capacity.
        assert_eq!(ts.ring.capacity(), 3);
    }

    #[test]
    fn observer_counts_flow_into_samples() {
        let mut ts = sampler(4);
        let ev = |kind| ObsEvent {
            t: SimTime::ZERO,
            node: NodeId(0),
            kind,
        };
        ts.on_event(&ev(EventKind::MsgTx {
            class: MsgClass::Data,
            kind: "Data",
            bytes: 36,
            detail: crate::MsgDetail::Opaque,
        }));
        ts.on_event(&ev(EventKind::MsgRx {
            from: NodeId(1),
            class: MsgClass::Data,
            kind: "Data",
            bytes: 36,
            detail: crate::MsgDetail::Opaque,
        }));
        ts.on_event(&ev(EventKind::MsgDrop {
            from: NodeId(1),
            class: MsgClass::Data,
            kind: "Data",
            cause: crate::LossCause::Collision,
        }));
        ts.record(SimTime::from_secs(1), 0, 10);
        let s = ts.samples().next().unwrap();
        assert_eq!(s.tx_by_class[MsgClass::Data as usize], 1);
        assert_eq!(s.rx, 1);
        assert_eq!(s.drops, 1);
    }

    #[test]
    fn jsonl_rows_have_stable_schema() {
        let mut ts = sampler(2);
        ts.record(SimTime::from_secs(1), 3, 100);
        let dump = ts.dump_jsonl();
        assert_eq!(
            dump,
            "{\"t\":1000000,\"queue\":3,\"events\":100,\"events_per_sec\":100,\
             \"tx_adv\":0,\"tx_req\":0,\"tx_data\":0,\"tx_ctl\":0,\
             \"rx\":0,\"drops\":0,\"allocs\":0,\"alloc_bytes\":0}\n"
        );
    }

    #[test]
    fn alloc_counters_are_read_per_sample() {
        fn fake_counters() -> (u64, u64) {
            (42, 4096)
        }
        let mut ts = sampler(2).with_alloc_counters(fake_counters);
        ts.record(SimTime::from_secs(1), 0, 1);
        let s = ts.samples().next().unwrap();
        assert_eq!((s.allocs, s.alloc_bytes), (42, 4096));
    }

    #[test]
    fn counter_events_render_balanced_json() {
        let mut ts = sampler(2);
        ts.record(SimTime::from_secs(1), 3, 100);
        let mut out = String::from("[");
        let mut first = true;
        ts.append_counter_events(&mut out, &mut first);
        out.push(']');
        assert!(out.contains("\"ph\":\"C\""), "{out}");
        assert!(out.contains("\"queue_depth\""), "{out}");
        assert!(out.contains("\"events_per_sec\""), "{out}");
        assert_eq!(out.matches('{').count(), out.matches('}').count());
    }
}
