//! Self-time reporting over the kernel profiler's phase slots.
//!
//! The raw accumulation lives in `mnp_sim::profile` (thread-local slots
//! the instrumented crates write into); this module turns a snapshot of
//! those slots plus a wall-clock reading into a human-readable self-time
//! table and a schema-versioned JSON document the `mnp-run report`
//! subcommand can diff.
//!
//! Because only 1-in-stride top-level spans carry timestamps, reported
//! times are estimates: the timed subset scaled up by the call count.
//! Self time is exclusive, so the phases' estimated self times add up to
//! the instrumented share of the run. Their sum over the wall clock is the
//! report's *coverage*, the instrument's own accuracy check: time outside
//! every span lowers it, the cost of being sampled raises it.

use crate::json::Obj;
use mnp_sim::profile::{self, Phase, PhaseStat, PHASE_COUNT};
use std::fmt::Write;

/// Version of the profile JSON schema emitted by [`ProfileReport::dump_json`].
pub const PROFILE_SCHEMA_VERSION: u64 = 2;

/// One phase's derived report line.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProfileRow {
    /// The phase.
    pub phase: Phase,
    /// Spans entered.
    pub calls: u64,
    /// Spans that carried timestamps.
    pub timed: u64,
    /// Estimated full-run time inside the phase, children included (ns).
    pub est_total_ns: u64,
    /// Estimated full-run time inside the phase, children excluded (ns).
    pub est_self_ns: u64,
    /// Average self nanoseconds per call over the timed subset.
    pub self_ns_per_call: u64,
    /// Share of the run's wall clock spent in this phase alone, percent.
    pub self_pct: f64,
}

/// A captured profile: the kernel phase slots plus the run's wall clock.
#[derive(Clone, Copy, Debug)]
pub struct ProfileReport {
    /// Wall-clock nanoseconds the profiled run took.
    pub wall_ns: u64,
    /// Raw per-phase counters, indexed by `Phase as usize`.
    pub phases: [PhaseStat; PHASE_COUNT],
}

impl ProfileReport {
    /// Captures the current thread's profiler slots against a wall-clock
    /// reading of the run they cover.
    pub fn capture(wall_ns: u64) -> Self {
        ProfileReport {
            wall_ns,
            phases: profile::snapshot(),
        }
    }

    /// The estimated phase self times summed, over the wall clock.
    pub fn coverage(&self) -> f64 {
        let est: f64 = self.phases.iter().map(|st| st.est_self_ns() as f64).sum();
        est / self.wall_ns.max(1) as f64
    }

    /// Report rows for every phase with at least one call, sorted by
    /// estimated self time, hottest first.
    pub fn rows(&self) -> Vec<ProfileRow> {
        let wall = self.wall_ns.max(1) as f64;
        let mut rows: Vec<ProfileRow> = Phase::ALL
            .iter()
            .map(|&phase| {
                let st = self.phases[phase as usize];
                let est_self = st.est_self_ns();
                ProfileRow {
                    phase,
                    calls: st.calls,
                    timed: st.timed,
                    est_total_ns: st.est_total_ns(),
                    est_self_ns: est_self,
                    self_ns_per_call: st.self_ns.checked_div(st.timed).unwrap_or(0),
                    self_pct: est_self as f64 * 100.0 / wall,
                }
            })
            .filter(|r| r.calls > 0)
            .collect();
        rows.sort_by_key(|r| std::cmp::Reverse(r.est_self_ns));
        rows
    }

    /// Renders the report as an aligned self-time table, hottest phase
    /// first, with the coverage and a top-N summary line.
    pub fn render_table(&self, top_n: usize) -> String {
        let rows = self.rows();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "kernel self-profile — wall {:.3} ms, {} phases active",
            self.wall_ns as f64 / 1e6,
            rows.len()
        );
        let _ = writeln!(
            out,
            "{:<14} {:>12} {:>10} {:>12} {:>12} {:>10} {:>7}",
            "phase", "calls", "timed", "est total ms", "est self ms", "self ns/c", "self %"
        );
        for r in &rows {
            let _ = writeln!(
                out,
                "{:<14} {:>12} {:>10} {:>12.3} {:>12.3} {:>10} {:>6.2}%",
                r.phase.label(),
                r.calls,
                r.timed,
                r.est_total_ns as f64 / 1e6,
                r.est_self_ns as f64 / 1e6,
                r.self_ns_per_call,
                r.self_pct
            );
        }
        let _ = writeln!(out, "coverage {:.3} (sum of self / wall)", self.coverage());
        let hot: Vec<String> = rows
            .iter()
            .take(top_n)
            .map(|r| format!("{} ({:.1}%)", r.phase.label(), r.self_pct))
            .collect();
        if !hot.is_empty() {
            let _ = writeln!(out, "top {} hot: {}", hot.len(), hot.join(", "));
        }
        out
    }

    /// Renders the report as one JSON document with a stable schema
    /// (`schema_version` [`PROFILE_SCHEMA_VERSION`]).
    pub fn dump_json(&self) -> String {
        let mut phases = String::from("[");
        for (i, r) in self.rows().into_iter().enumerate() {
            if i > 0 {
                phases.push(',');
            }
            phases.push('\n');
            let mut o = Obj::new(&mut phases);
            o.u("phase_id", r.phase as u64)
                .s("phase", r.phase.label())
                .u("calls", r.calls)
                .u("timed", r.timed)
                .u("est_total_ns", r.est_total_ns)
                .u("est_self_ns", r.est_self_ns)
                .u("self_ns_per_call", r.self_ns_per_call)
                .raw("self_pct", &format!("{:.3}", r.self_pct));
            o.end();
        }
        phases.push(']');
        let mut out = String::new();
        let mut o = Obj::new(&mut out);
        o.u("schema_version", PROFILE_SCHEMA_VERSION)
            .u("wall_ns", self.wall_ns)
            .raw("coverage", &format!("{:.4}", self.coverage()))
            .raw("phases", &phases);
        o.end();
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> ProfileReport {
        let mut phases = [PhaseStat::default(); PHASE_COUNT];
        phases[Phase::Dispatch as usize] = PhaseStat {
            calls: 1000,
            timed: 100,
            total_ns: 500_000,
            self_ns: 100_000,
        };
        phases[Phase::Protocol as usize] = PhaseStat {
            calls: 800,
            timed: 100,
            total_ns: 400_000,
            self_ns: 300_000,
        };
        ProfileReport {
            wall_ns: 10_000_000,
            phases,
        }
    }

    #[test]
    fn rows_sort_by_self_time_and_skip_idle_phases() {
        let r = report();
        let rows = r.rows();
        assert_eq!(rows.len(), 2, "idle phases are omitted");
        assert_eq!(rows[0].phase, Phase::Protocol, "hottest first");
        assert_eq!(rows[0].est_self_ns, 300_000 * 8); // ×(calls/timed)
    }

    #[test]
    fn self_percentages_are_wall_shares_summing_to_coverage() {
        // 2.4 ms + 1.0 ms of estimated self time in a 10 ms run.
        let r = report();
        assert!((r.coverage() - 0.34).abs() < 1e-9, "{}", r.coverage());
        assert!(
            (r.rows()[0].self_pct - 24.0).abs() < 1e-9,
            "2.4 ms of 10 ms"
        );
        let total: f64 = r.rows().iter().map(|row| row.self_pct).sum();
        assert!((total - 100.0 * r.coverage()).abs() < 1e-9, "sum {total}");
        // Nothing is clamped: an estimate above the wall clock shows as
        // coverage above 1.
        let mut r = report();
        r.wall_ns = 1_700_000;
        assert!((r.coverage() - 2.0).abs() < 1e-9, "{}", r.coverage());
    }

    #[test]
    fn table_names_the_top_phase() {
        let table = report().render_table(3);
        assert!(table.contains("protocol"), "{table}");
        assert!(table.contains("top 2 hot: protocol"), "{table}");
        assert!(table.contains("coverage 0.340"), "{table}");
    }

    #[test]
    fn json_is_versioned_and_balanced() {
        let json = report().dump_json();
        assert!(json.contains("\"schema_version\":2"), "{json}");
        assert!(json.contains("\"coverage\":0.3400"), "{json}");
        assert!(json.contains("\"phase\":\"protocol\""), "{json}");
        assert!(json.contains("\"self_pct\":"), "{json}");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn capture_reads_the_thread_local_slots() {
        std::thread::scope(|s| {
            s.spawn(|| {
                profile::reset();
                profile::set_enabled(true);
                profile::set_stride(1);
                {
                    let _g = profile::span(Phase::QueuePush);
                }
                profile::set_enabled(false);
                let rep = ProfileReport::capture(1_000);
                assert_eq!(rep.phases[Phase::QueuePush as usize].calls, 1);
                assert_eq!(rep.rows()[0].phase, Phase::QueuePush);
            });
        });
    }
}
