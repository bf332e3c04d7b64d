//! The benchmark's own span trace: one span per layer boundary of every rep,
//! kept in memory and written once at exit.
//!
//! Spans are recorded around the benchmark's calls into each layer, never
//! inside the program (ROADMAP 1a is the later change that adds those). The
//! traced rep of a workload additionally hangs the kernel profiler's phase
//! table under its `net.run` span.

use std::fmt::Write as _;
use std::time::Instant;

use mnp_sim::profile::{Phase, PhaseStat, PHASE_COUNT};

/// Index of a span in the trace.
pub type SpanId = usize;

/// One `mnp_sim::profile` snapshot.
pub type PhaseTable = [PhaseStat; PHASE_COUNT];

#[derive(Debug)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    workload: &'static str,
    rep: usize,
    start_ns: u64,
    end_ns: u64,
    phases: Option<PhaseTable>,
}

/// The in-memory trace.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
    workload: &'static str,
    rep: usize,
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
            workload: "",
            rep: 0,
        }
    }

    /// Sets the `(workload, rep)` id every following span carries.
    pub fn set_rep(&mut self, workload: &'static str, rep: usize) {
        self.workload = workload;
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under `parent`.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            workload: self.workload,
            rep: self.rep,
            start_ns: now,
            end_ns: now,
            phases: None,
        });
        self.spans.len() - 1
    }

    /// Closes a span and returns its duration in seconds.
    pub fn close(&mut self, id: SpanId) -> f64 {
        let now = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = now;
        (span.end_ns - span.start_ns) as f64 / 1e9
    }

    /// Attaches the profiler's phase table to a (`net.run`) span.
    pub fn attach_phases(&mut self, id: SpanId, phases: PhaseTable) {
        self.spans[id].phases = Some(phases);
    }

    /// Renders the trace as JSON; `provenance` is an already-rendered JSON
    /// object.
    pub fn to_json(&self, provenance: &str) -> String {
        let mut s = format!("{{\n  \"provenance\": {provenance},\n  \"spans\": [\n");
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "    {{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \
                 \"workload\": \"{}\", \"rep\": {}, \"start_ns\": {}, \"end_ns\": {}",
                span.name, span.workload, span.rep, span.start_ns, span.end_ns
            );
            if let Some(phases) = &span.phases {
                s.push_str(", \"phases\": [");
                let mut first = true;
                for phase in Phase::ALL {
                    let st = phases[phase as usize];
                    if st.calls == 0 {
                        continue;
                    }
                    if !first {
                        s.push_str(", ");
                    }
                    first = false;
                    let _ = write!(
                        s,
                        "{{\"phase\": \"{}\", \"calls\": {}, \"timed\": {}, \"est_self_ns\": {}}}",
                        phase.label(),
                        st.calls,
                        st.timed,
                        st.est_self_ns()
                    );
                }
                s.push(']');
            }
            s.push_str(if id + 1 == self.spans.len() {
                "}\n"
            } else {
                "},\n"
            });
        }
        s.push_str("  ]\n}\n");
        s
    }
}
