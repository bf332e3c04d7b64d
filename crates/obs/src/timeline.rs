//! Chrome-trace-format timeline export.

use crate::event::{EventKind, ObsEvent};
use crate::json::push_str_literal;
use crate::observer::Observer;
use mnp_sim::SimTime;
use std::fmt::Write;
use std::io;
use std::path::Path;

/// An observer that renders per-node protocol state residency as a Chrome
/// trace (the JSON format `chrome://tracing` and Perfetto load directly).
///
/// Each node becomes one "thread" (`tid` = node id); each labelled state
/// interval becomes a complete (`"ph":"X"`) duration event; completion,
/// failure and restart become instant (`"ph":"i"`) markers. A killed node
/// shows an explicit "down" span until it restarts (or until run end).
/// Timestamps are microseconds of simulation time.
#[derive(Debug, Default)]
pub struct TimelineExporter {
    /// Per-node currently-open state: (start micros, label).
    open: Vec<Option<(u64, &'static str)>>,
    /// Closed spans: (node, label, start micros, duration micros).
    spans: Vec<(u32, &'static str, u64, u64)>,
    /// Instant markers: (node, label, micros).
    markers: Vec<(u32, &'static str, u64)>,
}

impl TimelineExporter {
    /// Creates an empty exporter.
    pub fn new() -> Self {
        TimelineExporter::default()
    }

    /// Closed state spans so far, as `(node, label, start_us, dur_us)`.
    pub fn spans(&self) -> &[(u32, &'static str, u64, u64)] {
        &self.spans
    }

    fn close_open(&mut self, index: usize, node: u32, end: u64) {
        if let Some(Some((start, label))) = self.open.get(index).copied() {
            self.spans
                .push((node, label, start, end.saturating_sub(start)));
            self.open[index] = None;
        }
    }

    /// Renders the timeline as a Chrome trace JSON document.
    pub fn dump_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        self.append_trace_events(&mut out, &mut first);
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// Renders the timeline with the sampler's gauges merged in as
    /// Perfetto counter tracks (`"ph":"C"`), so queue depth and event
    /// rate plot above the per-node state spans.
    pub fn dump_json_with_counters(&self, samples: &crate::TimeSeriesSampler) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        let mut first = true;
        self.append_trace_events(&mut out, &mut first);
        samples.append_counter_events(&mut out, &mut first);
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    fn append_trace_events(&self, out: &mut String, first: &mut bool) {
        let mut tids: Vec<u32> = self
            .spans
            .iter()
            .map(|s| s.0)
            .chain(self.markers.iter().map(|m| m.0))
            .collect();
        tids.sort_unstable();
        tids.dedup();
        let sep = |out: &mut String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push('\n');
        };
        for tid in &tids {
            sep(out, first);
            let _ = write!(
                out,
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,\"tid\":{tid},\
                 \"args\":{{\"name\":\"node {tid}\"}}}}"
            );
        }
        for (tid, label, start, dur) in &self.spans {
            sep(out, first);
            out.push_str("{\"name\":");
            push_str_literal(out, label);
            let _ = write!(
                out,
                ",\"cat\":\"state\",\"ph\":\"X\",\"ts\":{start},\"dur\":{dur},\
                 \"pid\":0,\"tid\":{tid}}}"
            );
        }
        for (tid, label, ts) in &self.markers {
            sep(out, first);
            out.push_str("{\"name\":");
            push_str_literal(out, label);
            let _ = write!(
                out,
                ",\"cat\":\"milestone\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\
                 \"pid\":0,\"tid\":{tid}}}"
            );
        }
    }

    /// Writes the Chrome trace to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.dump_json())
    }
}

impl Observer for TimelineExporter {
    fn on_event(&mut self, ev: &ObsEvent) {
        let node = ev.node.0;
        let index = ev.node.index();
        let t = ev.t.as_micros();
        match ev.kind {
            EventKind::State { from, to } => {
                if index >= self.open.len() {
                    self.open.resize(index + 1, None);
                }
                match self.open[index] {
                    Some((start, label)) => {
                        self.spans
                            .push((node, label, start, t.saturating_sub(start)));
                    }
                    // First sighting mid-run: credit the reported previous
                    // state from t=0, so the timeline has no gap.
                    None => {
                        if !from.is_empty() && t > 0 {
                            self.spans.push((node, from, 0, t));
                        }
                    }
                }
                self.open[index] = Some((t, to));
            }
            EventKind::Completed => self.markers.push((node, "complete", t)),
            EventKind::NodeFailed => {
                self.markers.push((node, "failed", t));
                self.close_open(index, node, t);
                // Leave an open "down" span so a crash-restarted node's
                // outage is visible (and so its next `State` event is not
                // mistaken for a first sighting and backfilled from t=0).
                if index >= self.open.len() {
                    self.open.resize(index + 1, None);
                }
                self.open[index] = Some((t, "down"));
            }
            EventKind::NodeRestarted => {
                // The restart's own `State` transition (or run end) closes
                // the "down" span; the marker pins the reboot instant.
                self.markers.push((node, "restarted", t));
            }
            _ => {}
        }
    }

    fn on_run_end(&mut self, at: SimTime) {
        let end = at.as_micros();
        for index in 0..self.open.len() {
            let node = index as u32;
            self.close_open(index, node, end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnp_radio::NodeId;

    fn state(node: u32, t: u64, from: &'static str, to: &'static str) -> ObsEvent {
        ObsEvent {
            t: SimTime::from_micros(t),
            node: NodeId(node),
            kind: EventKind::State { from, to },
        }
    }

    #[test]
    fn transitions_become_spans_and_run_end_closes() {
        let mut tl = TimelineExporter::new();
        tl.on_event(&state(0, 0, "", "Idle"));
        tl.on_event(&state(0, 100, "Idle", "Advertise"));
        tl.on_event(&state(0, 250, "Advertise", "Download"));
        tl.on_run_end(SimTime::from_micros(400));
        assert_eq!(
            tl.spans(),
            &[
                (0, "Idle", 0, 100),
                (0, "Advertise", 100, 150),
                (0, "Download", 250, 150),
            ]
        );
    }

    #[test]
    fn late_first_sighting_backfills_from_zero() {
        let mut tl = TimelineExporter::new();
        tl.on_event(&state(2, 500, "Idle", "Download"));
        tl.on_run_end(SimTime::from_micros(800));
        assert_eq!(
            tl.spans(),
            &[(2, "Idle", 0, 500), (2, "Download", 500, 300)]
        );
    }

    #[test]
    fn failure_closes_the_open_span_with_marker() {
        let mut tl = TimelineExporter::new();
        tl.on_event(&state(1, 0, "", "Idle"));
        tl.on_event(&ObsEvent {
            t: SimTime::from_micros(60),
            node: NodeId(1),
            kind: EventKind::NodeFailed,
        });
        tl.on_run_end(SimTime::from_micros(100));
        assert_eq!(tl.spans(), &[(1, "Idle", 0, 60), (1, "down", 60, 40)]);
        assert_eq!(tl.markers, vec![(1, "failed", 60)]);
    }

    #[test]
    fn restart_closes_the_down_span_without_backfilling() {
        let mut tl = TimelineExporter::new();
        tl.on_event(&state(1, 0, "", "Download"));
        tl.on_event(&ObsEvent {
            t: SimTime::from_micros(60),
            node: NodeId(1),
            kind: EventKind::NodeFailed,
        });
        tl.on_event(&ObsEvent {
            t: SimTime::from_micros(90),
            node: NodeId(1),
            kind: EventKind::NodeRestarted,
        });
        tl.on_event(&state(1, 90, "Download", "Idle"));
        tl.on_run_end(SimTime::from_micros(100));
        assert_eq!(
            tl.spans(),
            &[
                (1, "Download", 0, 60),
                (1, "down", 60, 30),
                (1, "Idle", 90, 10),
            ]
        );
        assert_eq!(tl.markers, vec![(1, "failed", 60), (1, "restarted", 90)]);
    }

    #[test]
    fn dump_contains_metadata_spans_and_markers() {
        let mut tl = TimelineExporter::new();
        tl.on_event(&state(0, 0, "", "Idle"));
        tl.on_event(&ObsEvent {
            t: SimTime::from_micros(40),
            node: NodeId(0),
            kind: EventKind::Completed,
        });
        tl.on_run_end(SimTime::from_micros(50));
        let json = tl.dump_json();
        assert!(json.contains("\"thread_name\""), "{json}");
        assert!(json.contains("\"ph\":\"X\""), "{json}");
        assert!(json.contains("\"ph\":\"i\""), "{json}");
        assert!(json.contains("\"traceEvents\""), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
