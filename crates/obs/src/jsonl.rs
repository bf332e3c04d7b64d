//! The structured JSONL event log.

use crate::event::{EventKind, MsgDetail, ObsEvent};
use crate::json::{needs_escape, push_u64};
use crate::observer::Observer;
use mnp_sim::SimTime;
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
}

/// Appends one log line to `out` by whole pieces: each constant run of the
/// line is one `'static` literal (built by `fields!`), each string value
/// one append, and each integer one append per digit pair.
struct Line<'a>(&'a mut String);

impl Line<'_> {
    /// Appends `s`. When the log is full it grows to the next power of two,
    /// as the amortised doubling would: `String` alone grows to `len + n`
    /// when `n` overruns even the doubled capacity, which a merged literal
    /// can on the first lines, and every later doubling would start from
    /// that odd size.
    #[inline]
    fn push(&mut self, s: &str) {
        if s.len() > self.0.capacity() - self.0.len() {
            grow(self.0, s.len());
        }
        self.0.push_str(s);
    }

    /// Appends `v` in decimal, by digit pairs: one or two bytes at a time
    /// cannot outgrow the doubled capacity.
    #[inline]
    fn u(&mut self, v: u64) {
        push_u64(self.0, v);
    }

    /// Appends a schema literal — a message class or kind, a loss cause,
    /// a state label — unscanned, as keys are: none needs escaping.
    #[inline]
    fn label(&mut self, s: &'static str) {
        debug_assert!(!needs_escape(s), "JSON label {s:?} needs escaping");
        self.push(s);
    }
}

#[cold]
fn grow(out: &mut String, n: usize) {
    let cap = (out.len() + n).next_power_of_two().max(8);
    out.reserve_exact(cap - out.len());
}

/// Appends a line's fields after its `t` and `node`: `"ev" = "drop"` is a
/// constant string field, `"from": u(x)` a number, `"kind": s(label)` a
/// schema-literal string, and `end` closes the line (a message line ends
/// in `detail_fields`). Each constant run
/// between two values — a string's closing quote, the comma, the next key
/// and a string's opening quote — is one `concat!` literal.
macro_rules! fields {
    ($w:ident, $($fields:tt)*) => { fields!(@ $w [] $($fields)*) };
    (@ $w:ident []) => {};
    (@ $w:ident [$($run:expr),*] end) => { $w.push(concat!($($run,)* "}\n")) };
    (@ $w:ident [$($run:expr),*] $key:literal = $v:literal $(, $($rest:tt)*)?) => {
        fields!(@ $w [$($run,)* ",\"", $key, "\":\"", $v, "\""] $($($rest)*)?)
    };
    (@ $w:ident [$($run:expr),*] $key:literal: u($v:expr) $(, $($rest:tt)*)?) => {{
        $w.push(concat!($($run,)* ",\"", $key, "\":"));
        $w.u($v);
        fields!(@ $w [] $($($rest)*)?);
    }};
    (@ $w:ident [$($run:expr),*] $key:literal: s($v:expr) $(, $($rest:tt)*)?) => {{
        $w.push(concat!($($run,)* ",\"", $key, "\":\""));
        $w.label($v);
        fields!(@ $w ["\""] $($($rest)*)?);
    }};
}

/// The fields after a message's `bytes`, and the line's end.
fn detail_fields(w: &mut Line<'_>, detail: MsgDetail) {
    match detail {
        MsgDetail::Opaque => w.push("}\n"),
        MsgDetail::Advertisement {
            source,
            seg,
            req_ctr,
        } => fields!(w,
            "source": u(source.0.into()), "seg": u(seg.into()), "req_ctr": u(req_ctr.into()), end),
        MsgDetail::Request { dest, seg, req_ctr } => fields!(w,
            "dest": u(dest.0.into()), "seg": u(seg.into()), "req_ctr": u(req_ctr.into()), end),
        MsgDetail::Data { seg, pkt } => fields!(w, "seg": u(seg.into()), "pkt": u(pkt.into()), end),
    }
}

impl Observer for JsonlLogger {
    fn on_event(&mut self, ev: &ObsEvent) {
        let mut w = Line(&mut self.out);
        w.push("{\"t\":");
        w.u(ev.t.as_micros());
        w.push(",\"node\":");
        w.u(ev.node.0.into());
        match ev.kind {
            EventKind::State { from, to } => {
                fields!(w, "ev" = "state", "from": s(from), "to": s(to), end)
            }
            EventKind::MsgTx {
                class,
                kind,
                bytes,
                detail,
            } => {
                fields!(w, "ev" = "tx",
                    "class": s(class.label()), "kind": s(kind), "bytes": u(bytes as u64));
                detail_fields(&mut w, detail);
            }
            EventKind::MsgRx {
                from,
                class,
                kind,
                bytes,
                detail,
            } => {
                fields!(w, "ev" = "rx", "from": u(from.0.into()),
                    "class": s(class.label()), "kind": s(kind), "bytes": u(bytes as u64));
                detail_fields(&mut w, detail);
            }
            EventKind::MsgDrop {
                from,
                class,
                kind,
                cause,
            } => fields!(w, "ev" = "drop", "from": u(from.0.into()),
                "class": s(class.label()), "kind": s(kind), "cause": s(cause.label()), end),
            EventKind::TimerSet { token, fire_at } => fields!(w, "ev" = "timer_set",
                "token": u(token), "fire_at": u(fire_at.as_micros()), end),
            EventKind::TimerFire { token } => {
                fields!(w, "ev" = "timer_fire", "token": u(token), end)
            }
            EventKind::SleepStart { until } => {
                fields!(w, "ev" = "sleep", "until": u(until.as_micros()), end)
            }
            EventKind::Wake => fields!(w, "ev" = "wake", end),
            EventKind::EepromWrite { seg, pkt } => fields!(w, "ev" = "eeprom_write",
                "seg": u(seg.into()), "pkt": u(pkt.into()), end),
            EventKind::EepromWriteFailed { seg, pkt } => fields!(w, "ev" = "eeprom_write_failed",
                "seg": u(seg.into()), "pkt": u(pkt.into()), end),
            EventKind::SegmentDone { seg } => {
                fields!(w, "ev" = "segment_done", "seg": u(seg.into()), end)
            }
            EventKind::Completed => fields!(w, "ev" = "complete", end),
            EventKind::Parent { parent } => {
                fields!(w, "ev" = "parent", "parent": u(parent.0.into()), end)
            }
            EventKind::BecameSender => fields!(w, "ev" = "sender", end),
            EventKind::FirstHeard => fields!(w, "ev" = "first_heard", end),
            EventKind::NodeFailed => fields!(w, "ev" = "failed", end),
            EventKind::NodeRestarted => fields!(w, "ev" = "restarted", end),
            EventKind::LinkFault { to, ber_ppb } => fields!(w, "ev" = "link_fault",
                "to": u(to.0.into()), "ber_ppb": u(ber_ppb), end),
            EventKind::LinkRestored { to, ber_ppb } => fields!(w, "ev" = "link_restored",
                "to": u(to.0.into()), "ber_ppb": u(ber_ppb), end),
            EventKind::LinkChanged { to, ber_ppb } => fields!(w, "ev" = "link_change",
                "to": u(to.0.into()), "ber_ppb": u(ber_ppb), end),
            EventKind::StorageFault { failures } => {
                fields!(w, "ev" = "storage_fault", "failures": u(failures.into()), end)
            }
        }
        self.events += 1;
    }

    fn on_run_end(&mut self, at: SimTime) {
        let mut w = Line(&mut self.out);
        w.push("{\"t\":");
        w.u(at.as_micros());
        fields!(w, "ev" = "run_end", end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LossCause;
    use crate::json::Obj;
    use mnp_radio::NodeId;
    use mnp_trace::MsgClass;

    /// The reference renderer: one `Obj` field at a time, each string value
    /// escaped. The line writer must produce its bytes exactly.
    fn reference_line(ev: &ObsEvent) -> String {
        let mut out = String::new();
        let mut o = Obj::new(&mut out);
        o.u("t", ev.t.as_micros()).u("node", ev.node.0 as u64);
        let msg = |o: &mut Obj<'_>, class: MsgClass, kind: &str, bytes: usize| {
            o.s("class", class.label())
                .s("kind", kind)
                .u("bytes", bytes as u64);
        };
        match ev.kind {
            EventKind::State { from, to } => {
                o.s("ev", "state").s("from", from).s("to", to);
            }
            EventKind::MsgTx {
                class,
                kind,
                bytes,
                detail,
            } => {
                o.s("ev", "tx");
                msg(&mut o, class, kind, bytes);
                reference_detail(&mut o, detail);
            }
            EventKind::MsgRx {
                from,
                class,
                kind,
                bytes,
                detail,
            } => {
                o.s("ev", "rx").u("from", from.0 as u64);
                msg(&mut o, class, kind, bytes);
                reference_detail(&mut o, detail);
            }
            EventKind::MsgDrop {
                from,
                class,
                kind,
                cause,
            } => {
                o.s("ev", "drop")
                    .u("from", from.0 as u64)
                    .s("class", class.label())
                    .s("kind", kind)
                    .s("cause", cause.label());
            }
            EventKind::TimerSet { token, fire_at } => {
                o.s("ev", "timer_set")
                    .u("token", token)
                    .u("fire_at", fire_at.as_micros());
            }
            EventKind::TimerFire { token } => {
                o.s("ev", "timer_fire").u("token", token);
            }
            EventKind::SleepStart { until } => {
                o.s("ev", "sleep").u("until", until.as_micros());
            }
            EventKind::Wake => {
                o.s("ev", "wake");
            }
            EventKind::EepromWrite { seg, pkt } => {
                o.s("ev", "eeprom_write")
                    .u("seg", seg as u64)
                    .u("pkt", pkt as u64);
            }
            EventKind::EepromWriteFailed { seg, pkt } => {
                o.s("ev", "eeprom_write_failed")
                    .u("seg", seg as u64)
                    .u("pkt", pkt as u64);
            }
            EventKind::SegmentDone { seg } => {
                o.s("ev", "segment_done").u("seg", seg as u64);
            }
            EventKind::Completed => {
                o.s("ev", "complete");
            }
            EventKind::Parent { parent } => {
                o.s("ev", "parent").u("parent", parent.0 as u64);
            }
            EventKind::BecameSender => {
                o.s("ev", "sender");
            }
            EventKind::FirstHeard => {
                o.s("ev", "first_heard");
            }
            EventKind::NodeFailed => {
                o.s("ev", "failed");
            }
            EventKind::NodeRestarted => {
                o.s("ev", "restarted");
            }
            EventKind::LinkFault { to, ber_ppb } => {
                o.s("ev", "link_fault")
                    .u("to", to.0 as u64)
                    .u("ber_ppb", ber_ppb);
            }
            EventKind::LinkRestored { to, ber_ppb } => {
                o.s("ev", "link_restored")
                    .u("to", to.0 as u64)
                    .u("ber_ppb", ber_ppb);
            }
            EventKind::LinkChanged { to, ber_ppb } => {
                o.s("ev", "link_change")
                    .u("to", to.0 as u64)
                    .u("ber_ppb", ber_ppb);
            }
            EventKind::StorageFault { failures } => {
                o.s("ev", "storage_fault").u("failures", failures as u64);
            }
        }
        o.end_line();
        out
    }

    fn reference_detail(o: &mut Obj<'_>, detail: MsgDetail) {
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

    /// Draws a field value: half the time a decimal digit boundary (cast
    /// to the field's type, `u64::MAX` becomes that type's maximum), else
    /// a random value cut to a random width.
    fn value(rng: &mut mnp_sim::SimRng) -> u64 {
        const EDGES: [u64; 9] = [0, 9, 10, 99, 100, 999, 1_000, u64::MAX - 1, u64::MAX];
        if rng.index(2) == 0 {
            EDGES[rng.index(EDGES.len())]
        } else {
            rng.next_u64() >> rng.range_u64(0, 64)
        }
    }

    /// A random event of one of the 21 kinds, labels drawn from the ones
    /// the protocols report.
    fn random_kind(rng: &mut mnp_sim::SimRng) -> EventKind {
        const KINDS: [&str; 4] = ["Advertisement", "DownloadRequest", "Data", "StartDownload"];
        const STATES: [&str; 4] = ["", "Idle", "Advertise", "Download"];
        let mut v = || value(rng);
        let (a, b, c, d, e) = (v(), v(), v(), v(), v());
        let class = MsgClass::ALL[(a % 4) as usize];
        let kind = KINDS[(b % 4) as usize];
        let detail = match c % 4 {
            0 => MsgDetail::Opaque,
            1 => MsgDetail::Advertisement {
                source: NodeId(d as u32),
                seg: e as u16,
                req_ctr: a as u8,
            },
            2 => MsgDetail::Request {
                dest: NodeId(d as u32),
                seg: e as u16,
                req_ctr: b as u8,
            },
            _ => MsgDetail::Data {
                seg: d as u16,
                pkt: e as u16,
            },
        };
        match rng.index(21) {
            0 => EventKind::State {
                from: STATES[(a % 4) as usize],
                to: STATES[(b % 4) as usize],
            },
            1 => EventKind::MsgTx {
                class,
                kind,
                bytes: d as usize,
                detail,
            },
            2 => EventKind::MsgRx {
                from: NodeId(e as u32),
                class,
                kind,
                bytes: d as usize,
                detail,
            },
            3 => EventKind::MsgDrop {
                from: NodeId(d as u32),
                class,
                kind,
                cause: [LossCause::Collision, LossCause::BitError][(e % 2) as usize],
            },
            4 => EventKind::TimerSet {
                token: d,
                fire_at: SimTime::from_micros(e),
            },
            5 => EventKind::TimerFire { token: d },
            6 => EventKind::SleepStart {
                until: SimTime::from_micros(d),
            },
            7 => EventKind::Wake,
            8 => EventKind::EepromWrite {
                seg: d as u16,
                pkt: e as u16,
            },
            9 => EventKind::EepromWriteFailed {
                seg: d as u16,
                pkt: e as u16,
            },
            10 => EventKind::SegmentDone { seg: d as u16 },
            11 => EventKind::Completed,
            12 => EventKind::Parent {
                parent: NodeId(d as u32),
            },
            13 => EventKind::BecameSender,
            14 => EventKind::FirstHeard,
            15 => EventKind::NodeFailed,
            16 => EventKind::NodeRestarted,
            17 => EventKind::LinkFault {
                to: NodeId(d as u32),
                ber_ppb: e,
            },
            18 => EventKind::LinkRestored {
                to: NodeId(d as u32),
                ber_ppb: e,
            },
            19 => EventKind::LinkChanged {
                to: NodeId(d as u32),
                ber_ppb: e,
            },
            _ => EventKind::StorageFault { failures: d as u32 },
        }
    }

    #[test]
    fn line_writer_matches_the_reference_renderer() {
        mnp_sim::check("line_writer_matches_the_reference_renderer", 512, |rng| {
            let evs: Vec<ObsEvent> = (0..1 + rng.index(8))
                .map(|_| ObsEvent {
                    t: SimTime::from_micros(value(rng)),
                    node: NodeId(value(rng) as u32),
                    kind: random_kind(rng),
                })
                .collect();
            let mut log = JsonlLogger::new();
            log.on_events(&evs);
            let at = SimTime::from_micros(value(rng));
            log.on_run_end(at);
            let mut expected: String = evs.iter().map(reference_line).collect();
            let mut o = Obj::new(&mut expected);
            o.u("t", at.as_micros()).s("ev", "run_end");
            o.end_line();
            assert_eq!(log.as_str(), expected);
            assert_eq!(log.events(), evs.len() as u64);
            // Short first lines and long merged literals still double the
            // log from a power of two.
            assert!(
                log.out.capacity().is_power_of_two(),
                "{}",
                log.out.capacity()
            );
        });
    }

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
        // The exact bytes the log has always carried: the JSON writer may
        // change how it renders, never what.
        let expected = [
            r#"{"t":1500,"node":3,"ev":"rx","from":1,"class":"req","kind":"DownloadRequest","bytes":40,"dest":2,"seg":1,"req_ctr":7}"#,
            r#"{"t":1500,"node":3,"ev":"timer_set","token":4,"fire_at":9}"#,
            r#"{"t":1500,"node":3,"ev":"timer_fire","token":4}"#,
            r#"{"t":1500,"node":3,"ev":"sleep","until":8000000}"#,
            r#"{"t":1500,"node":3,"ev":"wake"}"#,
            r#"{"t":1500,"node":3,"ev":"eeprom_write","seg":1,"pkt":17}"#,
            r#"{"t":1500,"node":3,"ev":"eeprom_write_failed","seg":1,"pkt":18}"#,
            r#"{"t":1500,"node":3,"ev":"segment_done","seg":1}"#,
            r#"{"t":1500,"node":3,"ev":"complete"}"#,
            r#"{"t":1500,"node":3,"ev":"parent","parent":0}"#,
            r#"{"t":1500,"node":3,"ev":"sender"}"#,
            r#"{"t":1500,"node":3,"ev":"first_heard"}"#,
            r#"{"t":1500,"node":3,"ev":"failed"}"#,
            r#"{"t":1500,"node":3,"ev":"restarted"}"#,
            r#"{"t":1500,"node":3,"ev":"link_fault","to":5,"ber_ppb":1000000000}"#,
            r#"{"t":1500,"node":3,"ev":"link_restored","to":5,"ber_ppb":1000000}"#,
            r#"{"t":1500,"node":3,"ev":"link_change","to":5,"ber_ppb":500000000}"#,
            r#"{"t":1500,"node":3,"ev":"storage_fault","failures":2}"#,
        ];
        assert_eq!(log.as_str().lines().collect::<Vec<_>>(), expected);
    }

    #[test]
    fn log_capacity_grows_in_powers_of_two() {
        // A doubling that started from a line's length instead would leave
        // up to half the log buffer unused: `peak_heap_bytes` is the log.
        let mut log = JsonlLogger::new();
        for token in 0..20_000 {
            log.on_event(&ev(EventKind::TimerFire { token }));
            let cap = log.as_str().len().next_power_of_two().max(8);
            assert_eq!(log.out.capacity(), cap, "after {token} lines");
        }
    }
}
