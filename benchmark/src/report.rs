//! Named metrics and the three renderings of a result: the human table, the
//! driver's one-line JSON object, and `results.json`.

use std::fmt::Write as _;

use crate::host::escape;
use crate::stats::Summary;

/// One named number.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// The value reported (a median where `spread` is set).
    pub value: f64,
    /// Unit, as declared in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Quartiles and count of the reps behind a median.
    pub spread: Option<Summary>,
}

/// The result of one workload in one mode.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// Workload name.
    pub workload: &'static str,
    /// Whether this is the traced (per-layer) mode.
    pub traced: bool,
    /// The seed asked for; the `k`-th seed of a run is `seed + 1000·k`.
    pub seed: u64,
    /// `(asked, used)` for every seed stepped past a partitioned topology.
    pub reseeded: Vec<(u64, u64)>,
    /// Measured reps end-to-end, rounds per-layer.
    pub reps: usize,
    /// Median length of one rep, set-up to drop, in seconds.
    pub rep_s: f64,
    /// Operations attempted: receiving nodes × runs.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Every correctness miss, named.
    pub failures: Vec<String>,
    /// FNV-1a over the `sim_digest` of each seed the run covered, in order.
    pub digest: u64,
    /// The host-noise probe before and after the workload, seconds.
    pub calib_s: (f64, f64),
    /// Per-layer only, where every rep runs the same inputs: (q3 − q1) /
    /// median of the untraced reps' wall times, which is host noise alone.
    pub wall_spread: f64,
    /// The metrics, in declaration order.
    pub metrics: Vec<Metric>,
    /// Every rep's reading behind the medians, in run order, for
    /// `results.json`: a median hides a drifting host, the series shows it.
    pub series: Vec<(&'static str, Vec<f64>)>,
}

impl Outcome {
    /// Whether every output was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.failures.is_empty()
    }

    /// The two probe readings differ by more than a tenth, or reps of the
    /// same inputs do: something else had the host while this workload ran,
    /// and its times say more about that than about the program.
    pub fn noisy(&self) -> bool {
        let (a, b) = self.calib_s;
        (a - b).abs() > 0.1 * a.min(b) || self.wall_spread > 0.1
    }

    /// Appends a metric; names are unique within an outcome.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.put_metric(name, value, unit, None);
    }

    /// Appends a median with the spread of the reps behind it.
    pub fn put_summary(&mut self, name: &str, summary: Summary, unit: &'static str) {
        self.put_metric(name, summary.median, unit, Some(summary));
    }

    fn put_metric(&mut self, name: &str, value: f64, unit: &'static str, spread: Option<Summary>) {
        assert!(
            self.metrics.iter().all(|m| m.name != name),
            "metric {name} reported twice"
        );
        if !value.is_finite() {
            self.failures
                .push(format!("metric {name} is not a finite number ({value})"));
        }
        self.metrics.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
            spread,
        });
    }

    /// Prints the human-readable block and names every failure on stderr.
    pub fn print(&self) {
        println!(
            "== {} [{}] seed {}{} reps {} rep_s {:.3} sim_digest {:016x} host.calib_s {:.4}/{:.4}{}",
            self.workload,
            if self.traced { "per-layer" } else { "end-to-end" },
            self.seed,
            if self.reseeded.is_empty() {
                String::new()
            } else {
                format!(" (reseeded {:?})", self.reseeded)
            },
            self.reps,
            self.rep_s,
            self.digest,
            self.calib_s.0,
            self.calib_s.1,
            if self.noisy() { " noisy: true" } else { "" },
        );
        for m in &self.metrics {
            match m.spread {
                Some(s) => println!(
                    "{:<34} {:>18} {:<6} q1 {} q3 {} n {}",
                    m.name,
                    trim(m.value),
                    m.unit,
                    trim(s.q1),
                    trim(s.q3),
                    s.n
                ),
                None => println!("{:<34} {:>18} {}", m.name, trim(m.value), m.unit),
            }
        }
        println!(
            "{:<34} {:>18} ratio  ({} failed / {} attempted)",
            "failed_share",
            trim(self.failed as f64 / self.attempted.max(1) as f64),
            self.failed,
            self.attempted
        );
        for f in &self.failures {
            eprintln!("FAIL {} : {f}", self.workload);
        }
    }

    /// The result object of the driver's contract.
    pub fn json_line(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// Six significant digits for the table; the JSON keeps every digit.
fn trim(v: f64) -> String {
    if v == 0.0 || (v.fract() == 0.0 && v.abs() < 1e15) {
        format!("{v}")
    } else if v.abs() >= 1000.0 {
        format!("{v:.1}")
    } else {
        let digits = (5 - v.abs().log10().floor() as i32).clamp(0, 9) as usize;
        format!("{v:.digits$}")
    }
}

/// Renders every outcome of an invocation, with provenance, as JSON.
pub fn results_json(provenance: &str, outcomes: &[Outcome]) -> String {
    let mut s = format!("{{\n  \"provenance\": {provenance},\n  \"results\": [\n");
    for (i, o) in outcomes.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"workload\": \"{}\", \"mode\": \"{}\", \"seed\": {}, \"reseeded\": {:?}, \
             \"reps\": {}, \"rep_s\": {}, \"sim_digest\": \"{:016x}\", \"noisy\": {}, \
             \"host_calib_s\": [{}, {}], \"correct\": {}, \"attempted\": {}, \"failed\": {}, \
             \"failures\": [{}], \"metrics\": {{",
            o.workload,
            if o.traced { "per_layer" } else { "end_to_end" },
            o.seed,
            o.reseeded
                .iter()
                .map(|&(asked, used)| [asked, used])
                .collect::<Vec<_>>(),
            o.reps,
            o.rep_s,
            o.digest,
            o.noisy(),
            o.calib_s.0,
            o.calib_s.1,
            o.correct(),
            o.attempted,
            o.failed,
            o.failures
                .iter()
                .map(|f| format!("\"{}\"", escape(f)))
                .collect::<Vec<_>>()
                .join(", "),
        );
        for (j, m) in o.metrics.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"",
                m.name, m.value, m.unit
            );
            if let Some(sp) = m.spread {
                let _ = write!(s, ", \"q1\": {}, \"q3\": {}, \"n\": {}", sp.q1, sp.q3, sp.n);
            }
            s.push('}');
        }
        s.push_str("}, \"series\": {");
        for (j, (name, values)) in o.series.iter().enumerate() {
            if j > 0 {
                s.push_str(", ");
            }
            let values: Vec<String> = values.iter().map(f64::to_string).collect();
            let _ = write!(s, "\"{name}\": [{}]", values.join(", "));
        }
        s.push_str(if i + 1 == outcomes.len() {
            "}}\n"
        } else {
            "}},\n"
        });
    }
    s.push_str("  ]\n}\n");
    s
}
