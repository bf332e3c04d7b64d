//! The structured JSONL event log.

use crate::event::{EventKind, MsgDetail, ObsEvent};
use crate::json::Obj;
use crate::observer::Observer;
use mnp_sim::SimTime;
use mnp_trace::MsgClass;
use std::io;
use std::path::Path;

/// An observer that renders every event as one JSON object per line.
///
/// The schema is stable and the ordering deterministic: two runs with the
/// same seed produce byte-identical logs. Common keys come first on every
/// line — `t` (micros), `node`, `ev` — followed by event-specific fields
/// in fixed order. The final line is `{"t":...,"ev":"run_end"}`.
#[derive(Debug, Default)]
pub struct JsonlLogger {
    out: String,
    events: u64,
}

impl JsonlLogger {
    /// Creates an empty log.
    pub fn new() -> Self {
        JsonlLogger::default()
    }

    /// Number of events logged (excluding the `run_end` line).
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The log content so far.
    pub fn as_str(&self) -> &str {
        &self.out
    }

    /// Writes the log to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the underlying filesystem error.
    pub fn write_to(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, &self.out)
    }

    fn line(&mut self, ev: &ObsEvent, f: impl FnOnce(&mut Obj<'_>)) {
        let mut o = Obj::new(&mut self.out);
        o.u("t", ev.t.as_micros()).u("node", ev.node.0 as u64);
        f(&mut o);
        o.end();
        self.out.push('\n');
        self.events += 1;
    }
}

fn detail_fields(o: &mut Obj<'_>, detail: MsgDetail) {
    match detail {
        MsgDetail::Opaque => {}
        MsgDetail::Advertisement {
            source,
            seg,
            req_ctr,
        } => {
            o.u("source", source.0 as u64)
                .u("seg", seg as u64)
                .u("req_ctr", req_ctr as u64);
        }
        MsgDetail::Request { dest, seg, req_ctr } => {
            o.u("dest", dest.0 as u64)
                .u("seg", seg as u64)
                .u("req_ctr", req_ctr as u64);
        }
        MsgDetail::Data { seg, pkt } => {
            o.u("seg", seg as u64).u("pkt", pkt as u64);
        }
    }
}

fn msg_fields(o: &mut Obj<'_>, class: MsgClass, kind: &str, bytes: usize) {
    o.s("class", class.label())
        .s("kind", kind)
        .u("bytes", bytes as u64);
}

impl Observer for JsonlLogger {
    fn on_event(&mut self, ev: &ObsEvent) {
        match ev.kind {
            EventKind::State { from, to } => self.line(ev, |o| {
                o.s("ev", "state").s("from", from).s("to", to);
            }),
            EventKind::MsgTx {
                class,
                kind,
                bytes,
                detail,
            } => self.line(ev, |o| {
                o.s("ev", "tx");
                msg_fields(o, class, kind, bytes);
                detail_fields(o, detail);
            }),
            EventKind::MsgRx {
                from,
                class,
                kind,
                bytes,
                detail,
            } => self.line(ev, |o| {
                o.s("ev", "rx").u("from", from.0 as u64);
                msg_fields(o, class, kind, bytes);
                detail_fields(o, detail);
            }),
            EventKind::MsgDrop {
                from,
                class,
                kind,
                cause,
            } => self.line(ev, |o| {
                o.s("ev", "drop")
                    .u("from", from.0 as u64)
                    .s("class", class.label())
                    .s("kind", kind)
                    .s("cause", cause.label());
            }),
            EventKind::TimerSet { token, fire_at } => self.line(ev, |o| {
                o.s("ev", "timer_set")
                    .u("token", token)
                    .u("fire_at", fire_at.as_micros());
            }),
            EventKind::TimerFire { token } => self.line(ev, |o| {
                o.s("ev", "timer_fire").u("token", token);
            }),
            EventKind::SleepStart { until } => self.line(ev, |o| {
                o.s("ev", "sleep").u("until", until.as_micros());
            }),
            EventKind::Wake => self.line(ev, |o| {
                o.s("ev", "wake");
            }),
            EventKind::EepromWrite { seg, pkt } => self.line(ev, |o| {
                o.s("ev", "eeprom_write")
                    .u("seg", seg as u64)
                    .u("pkt", pkt as u64);
            }),
            EventKind::EepromWriteFailed { seg, pkt } => self.line(ev, |o| {
                o.s("ev", "eeprom_write_failed")
                    .u("seg", seg as u64)
                    .u("pkt", pkt as u64);
            }),
            EventKind::SegmentDone { seg } => self.line(ev, |o| {
                o.s("ev", "segment_done").u("seg", seg as u64);
            }),
            EventKind::Completed => self.line(ev, |o| {
                o.s("ev", "complete");
            }),
            EventKind::Parent { parent } => self.line(ev, |o| {
                o.s("ev", "parent").u("parent", parent.0 as u64);
            }),
            EventKind::BecameSender => self.line(ev, |o| {
                o.s("ev", "sender");
            }),
            EventKind::FirstHeard => self.line(ev, |o| {
                o.s("ev", "first_heard");
            }),
            EventKind::NodeFailed => self.line(ev, |o| {
                o.s("ev", "failed");
            }),
            EventKind::NodeRestarted => self.line(ev, |o| {
                o.s("ev", "restarted");
            }),
            EventKind::LinkFault { to, ber_ppb } => self.line(ev, |o| {
                o.s("ev", "link_fault")
                    .u("to", to.0 as u64)
                    .u("ber_ppb", ber_ppb);
            }),
            EventKind::LinkRestored { to, ber_ppb } => self.line(ev, |o| {
                o.s("ev", "link_restored")
                    .u("to", to.0 as u64)
                    .u("ber_ppb", ber_ppb);
            }),
            EventKind::LinkChanged { to, ber_ppb } => self.line(ev, |o| {
                o.s("ev", "link_change")
                    .u("to", to.0 as u64)
                    .u("ber_ppb", ber_ppb);
            }),
            EventKind::StorageFault { failures } => self.line(ev, |o| {
                o.s("ev", "storage_fault").u("failures", failures as u64);
            }),
        }
    }

    fn on_run_end(&mut self, at: SimTime) {
        let mut o = Obj::new(&mut self.out);
        o.u("t", at.as_micros()).s("ev", "run_end");
        o.end();
        self.out.push('\n');
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnp_radio::NodeId;

    fn ev(kind: EventKind) -> ObsEvent {
        ObsEvent {
            t: SimTime::from_micros(1_500),
            node: NodeId(3),
            kind,
        }
    }

    #[test]
    fn schema_is_stable() {
        let mut log = JsonlLogger::new();
        log.on_event(&ev(EventKind::State {
            from: "Idle",
            to: "Advertise",
        }));
        log.on_event(&ev(EventKind::MsgTx {
            class: MsgClass::Advertisement,
            kind: "Advertisement",
            bytes: 9,
            detail: MsgDetail::Advertisement {
                source: NodeId(3),
                seg: 0,
                req_ctr: 2,
            },
        }));
        log.on_event(&ev(EventKind::MsgDrop {
            from: NodeId(1),
            class: MsgClass::Data,
            kind: "Data",
            cause: crate::LossCause::Collision,
        }));
        log.on_run_end(SimTime::from_secs(2));
        let lines: Vec<&str> = log.as_str().lines().collect();
        assert_eq!(
            lines,
            vec![
                r#"{"t":1500,"node":3,"ev":"state","from":"Idle","to":"Advertise"}"#,
                r#"{"t":1500,"node":3,"ev":"tx","class":"adv","kind":"Advertisement","bytes":9,"source":3,"seg":0,"req_ctr":2}"#,
                r#"{"t":1500,"node":3,"ev":"drop","from":1,"class":"data","kind":"Data","cause":"collision"}"#,
                r#"{"t":2000000,"ev":"run_end"}"#,
            ]
        );
        assert_eq!(log.events(), 3);
    }

    #[test]
    fn every_event_kind_renders_valid_lines() {
        let mut log = JsonlLogger::new();
        let kinds = [
            EventKind::MsgRx {
                from: NodeId(1),
                class: MsgClass::Request,
                kind: "DownloadRequest",
                bytes: 40,
                detail: MsgDetail::Request {
                    dest: NodeId(2),
                    seg: 1,
                    req_ctr: 7,
                },
            },
            EventKind::TimerSet {
                token: 4,
                fire_at: SimTime::from_micros(9),
            },
            EventKind::TimerFire { token: 4 },
            EventKind::SleepStart {
                until: SimTime::from_secs(8),
            },
            EventKind::Wake,
            EventKind::EepromWrite { seg: 1, pkt: 17 },
            EventKind::EepromWriteFailed { seg: 1, pkt: 18 },
            EventKind::SegmentDone { seg: 1 },
            EventKind::Completed,
            EventKind::Parent { parent: NodeId(0) },
            EventKind::BecameSender,
            EventKind::FirstHeard,
            EventKind::NodeFailed,
            EventKind::NodeRestarted,
            EventKind::LinkFault {
                to: NodeId(5),
                ber_ppb: 1_000_000_000,
            },
            EventKind::LinkRestored {
                to: NodeId(5),
                ber_ppb: 1_000_000,
            },
            EventKind::LinkChanged {
                to: NodeId(5),
                ber_ppb: 500_000_000,
            },
            EventKind::StorageFault { failures: 2 },
        ];
        for k in kinds {
            log.on_event(&ev(k));
        }
        assert_eq!(log.events(), 18);
        for line in log.as_str().lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            assert!(line.contains(r#""ev":"#), "{line}");
        }
    }
}
