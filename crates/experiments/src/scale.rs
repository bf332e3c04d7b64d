//! Large-grid scale benchmark (`mnp-run scale`).
//!
//! Drives seeded MNP runs on large grids — by default the paper's 20×20
//! simulation grid plus 50×50 and 80×80 stress grids, each measured
//! sequentially and on the sharded kernel ([`DEFAULT_SHARD_COUNTS`]) —
//! and records wall-clock time, simulator throughput (events per
//! second), and heap-allocation counts. The result renders as
//! `BENCH_scale.json`. Shard count never changes a run's events, only
//! its wall time, so rows differing only in `shards` report identical
//! `events` and `completion_s`.
//!
//! Allocation counting itself lives in the `mnp-run` binary: a counting
//! global allocator needs `unsafe`, which this library forbids. This
//! module only takes the counter as a closure returning cumulative
//! `(allocations, bytes)` and works off deltas, so library tests can pass
//! a stub.
//!
//! Besides the end-to-end run, [`MediumHotLoop`] isolates the radio-medium
//! hot path (start → finish of one broadcast, every receiver resolved) so
//! the benchmark can assert the pooled buffers make it allocation-free in
//! steady state: after a warm-up that fills the listener/payload pools, a
//! measured window of transmissions must report **zero** new allocations.

use std::fmt;
use std::time::Instant;

use mnp::Mnp;
use mnp_radio::{Frame, Medium, NodeId, TxOutcome, MAX_PAYLOAD_BYTES, PERCEPTION_LATENCY};
use mnp_sim::{SimRng, SimTime, TieBreak};
use mnp_topology::{GridSpec, TopologyBuilder};

use crate::report::escape_json;
use crate::runner::GridExperiment;

/// Cumulative `(allocations, bytes)` reported by the process allocator.
pub type AllocCounter<'a> = &'a dyn Fn() -> (u64, u64);

/// Version of the `BENCH_scale.json` / `BENCH_history.jsonl` row schema.
///
/// v1 was the original unversioned document; v2 adds `schema_version`,
/// `git` (the `git describe` of the measured tree) and `tie_break` (the
/// queue's same-instant policy) to every row so history lines stay
/// self-describing as the benchmark evolves. v3 adds the top-level
/// `scaling` object (base-vs-largest-grid throughput ratio; see
/// [`scaling_summary`]). v4 adds `shards` (the kernel's shard count) to
/// every row and to the `scaling` object, which now compares grids at
/// the sweep's highest shard count.
pub const SCALE_SCHEMA_VERSION: u64 = 4;

/// The measured tree's `git describe --always --dirty`, or `"unknown"`
/// when the benchmark runs outside a git checkout (or without git).
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Whether the working tree has uncommitted changes. `false` outside a
/// git checkout (nothing to misattribute a measurement to).
///
/// `mnp-run scale` refuses to append `--history` rows from a dirty tree
/// unless `--allow-dirty` is passed: a history line stamped
/// `<hash>-dirty` can never be re-measured, which defeats the point of
/// keeping history at all.
pub fn git_is_dirty() -> bool {
    std::process::Command::new("git")
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| !out.stdout.iter().all(|b| b.is_ascii_whitespace()))
        .unwrap_or(false)
}

/// Stable label for a tie-break policy, as recorded in benchmark rows.
pub fn tie_break_label(policy: TieBreak) -> String {
    match policy {
        TieBreak::Fifo => "fifo".into(),
        TieBreak::SeededPermutation(seed) => format!("permute({seed})"),
    }
}

/// The default benchmark grids: the paper's simulation grid, a 6× larger
/// stress grid, and a 16× grid that keeps the event queue and the arena
/// free-lists honest at sharded-kernel scale.
pub const DEFAULT_GRIDS: [(usize, usize); 3] = [(20, 20), (50, 50), (80, 80)];

/// The default kernel shard counts each grid is measured at: the
/// sequential baseline and an 8-way sharded run. Measuring both makes
/// the parallel speedup visible row-to-row, and the `scaling` summary
/// gates on the highest shard count, where throughput must hold as the
/// grid grows.
pub const DEFAULT_SHARD_COUNTS: [usize; 2] = [1, 8];

/// Minimum transmissions used to warm the medium pools before the
/// measured window. [`measure`] raises this to one full round-robin cycle
/// so every node has transmitted once: the pooled listener buffer only
/// reaches its high-water capacity after the maximum-in-degree node has
/// been the source.
pub const STEADY_STATE_WARMUP: u64 = 512;

/// Transmissions in the measured steady-state window.
pub const STEADY_STATE_ROUNDS: u64 = 4_096;

/// One grid's measurements: a full seeded MNP dissemination plus the
/// isolated medium hot-path allocation check.
#[derive(Clone, Debug)]
pub struct ScaleMeasurement {
    /// Row schema version ([`SCALE_SCHEMA_VERSION`]).
    pub schema_version: u64,
    /// `git describe` of the measured tree (or `"unknown"`).
    pub git: String,
    /// Same-instant tie-break policy label (see [`tie_break_label`]).
    pub tie_break: String,
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// RNG seed of the measured run.
    pub seed: u64,
    /// Image segments disseminated.
    pub segments: u16,
    /// Kernel shard count of the measured run (1 = sequential).
    pub shards: usize,
    /// Whether every node finished before the deadline.
    pub completed: bool,
    /// Simulated completion time in seconds.
    pub completion_s: f64,
    /// Wall-clock time of the run in seconds.
    pub wall_s: f64,
    /// Discrete events the simulator processed.
    pub events: u64,
    /// Simulator throughput (`events / wall_s`).
    pub events_per_sec: f64,
    /// Heap allocations during the full run.
    pub run_allocs: u64,
    /// Bytes allocated during the full run.
    pub run_alloc_bytes: u64,
    /// Allocations across the measured steady-state medium window
    /// ([`STEADY_STATE_ROUNDS`] transmissions after warm-up). The pooled
    /// hot path keeps this at zero.
    pub steady_state_allocs: u64,
    /// Transmissions in the steady-state window.
    pub steady_state_rounds: u64,
}

/// Runs the benchmark for one grid.
///
/// `alloc_counter` returns the allocator's cumulative `(allocations,
/// bytes)`; pass a `|| (0, 0)` stub when no counting allocator is
/// installed (the two `*_allocs` fields then read zero).
pub fn measure(
    rows: usize,
    cols: usize,
    segments: u16,
    seed: u64,
    shards: usize,
    alloc_counter: AllocCounter,
) -> ScaleMeasurement {
    let scenario = GridExperiment::new(rows, cols, 10.0)
        .segments(segments)
        .seed(seed)
        .shards(shards);
    let (allocs_before, bytes_before) = alloc_counter();
    let start = Instant::now();
    let out = scenario.run::<Mnp>(|_| {});
    let wall_s = start.elapsed().as_secs_f64();
    let (allocs_after, bytes_after) = alloc_counter();

    let mut hot = MediumHotLoop::new(rows, cols, seed);
    for _ in 0..STEADY_STATE_WARMUP.max((rows * cols) as u64) {
        hot.round();
    }
    let (steady_before, _) = alloc_counter();
    for _ in 0..STEADY_STATE_ROUNDS {
        hot.round();
    }
    let (steady_after, _) = alloc_counter();

    ScaleMeasurement {
        schema_version: SCALE_SCHEMA_VERSION,
        git: git_describe(),
        tie_break: tie_break_label(TieBreak::Fifo),
        rows,
        cols,
        seed,
        segments,
        shards,
        completed: out.completed,
        completion_s: out.completion_s(),
        wall_s,
        events: out.events,
        events_per_sec: if wall_s > 0.0 {
            out.events as f64 / wall_s
        } else {
            0.0
        },
        run_allocs: allocs_after - allocs_before,
        run_alloc_bytes: bytes_after - bytes_before,
        steady_state_allocs: steady_after - steady_before,
        steady_state_rounds: STEADY_STATE_ROUNDS,
    }
}

impl fmt::Display for ScaleMeasurement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}x{} seed {} ({} shard{}): wall {:.2}s, {} events ({:.0}/s), sim {:.0}s, \
             {} allocs ({} B), steady-state {} allocs / {} tx",
            self.rows,
            self.cols,
            self.seed,
            self.shards,
            if self.shards == 1 { "" } else { "s" },
            self.wall_s,
            self.events,
            self.events_per_sec,
            self.completion_s,
            self.run_allocs,
            self.run_alloc_bytes,
            self.steady_state_allocs,
            self.steady_state_rounds,
        )
    }
}

/// `--compare` fails when the largest grid's throughput drops below this
/// fraction of the base (smallest) grid's — i.e. more than a 15% fall
/// across the scale sweep. Super-linear event queues and allocation leaks
/// show up here before they show up against history.
pub const SCALING_FLOOR: f64 = 0.85;

/// Throughput scaling between the smallest and largest grid of a sweep.
#[derive(Clone, Copy, Debug)]
pub struct ScalingSummary {
    /// `(rows, cols)` of the base (smallest) grid.
    pub base: (usize, usize),
    /// `(rows, cols)` of the largest grid.
    pub top: (usize, usize),
    /// Shard count the compared rows ran at (the sweep's highest).
    pub shards: usize,
    /// `top.events_per_sec / base.events_per_sec`.
    pub events_per_sec_ratio: f64,
    /// Whether throughput held within [`SCALING_FLOOR`] (or improved) as
    /// the grid grew.
    pub flat_or_rising: bool,
}

/// Summarises how throughput scaled from the smallest to the largest grid
/// in the sweep.
///
/// When the sweep mixes shard counts (the default measures every grid
/// both sequentially and sharded), the comparison is made at the highest
/// shard count — that is the kernel configuration the scaling gate is
/// about — over the rows that ran at it. Only grids measured at *every*
/// shard count of the sweep enter the comparison: a grid pinned to a
/// single count (`--grids 500x500@8`) is a showcase row recording that
/// the run completed, not part of the controlled sweep the floor was
/// calibrated for. `None` when the eligible rows have fewer than two
/// distinct grid sizes or the base row recorded no throughput.
pub fn scaling_summary(measurements: &[ScaleMeasurement]) -> Option<ScalingSummary> {
    let shards = measurements.iter().map(|m| m.shards).max()?;
    let counts: std::collections::BTreeSet<usize> = measurements.iter().map(|m| m.shards).collect();
    let fully_swept = |rows: usize, cols: usize| {
        counts.iter().all(|&s| {
            measurements
                .iter()
                .any(|m| m.rows == rows && m.cols == cols && m.shards == s)
        })
    };
    let at_top = || {
        measurements
            .iter()
            .filter(|m| m.shards == shards && fully_swept(m.rows, m.cols))
    };
    let base = at_top().min_by_key(|m| m.rows * m.cols)?;
    let top = at_top().max_by_key(|m| m.rows * m.cols)?;
    if base.rows * base.cols == top.rows * top.cols || base.events_per_sec <= 0.0 {
        return None;
    }
    let ratio = top.events_per_sec / base.events_per_sec;
    Some(ScalingSummary {
        base: (base.rows, base.cols),
        top: (top.rows, top.cols),
        shards,
        events_per_sec_ratio: ratio,
        flat_or_rising: ratio >= SCALING_FLOOR,
    })
}

/// Renders the measurements as the `BENCH_scale.json` document.
///
/// Schema (v[`SCALE_SCHEMA_VERSION`]): `{"bench": "scale",
/// "schema_version", "grids": [{"schema_version", "git", "tie_break",
/// "rows", "cols", "seed", "segments", "shards", "completed",
/// "completion_s", "wall_s", "events", "events_per_sec", "run_allocs",
/// "run_alloc_bytes", "steady_state_allocs", "steady_state_rounds"},
/// ...], "scaling": {"base", "top", "shards", "events_per_sec_ratio",
/// "flat_or_rising"}}` — `scaling` is `null` for single-grid sweeps.
pub fn render_json(measurements: &[ScaleMeasurement]) -> String {
    let mut s = String::from("{\n  \"bench\": \"scale\",\n");
    s.push_str(&format!(
        "  \"schema_version\": {SCALE_SCHEMA_VERSION},\n  \"grids\": [\n"
    ));
    let rows: Vec<String> = measurements
        .iter()
        .map(|m| {
            let fields: Vec<String> = m
                .json_fields()
                .iter()
                .map(|(key, value)| format!("      \"{key}\": {value}"))
                .collect();
            format!("    {{\n{}\n    }}", fields.join(",\n"))
        })
        .collect();
    if !rows.is_empty() {
        s.push_str(&rows.join(",\n"));
        s.push('\n');
    }
    s.push_str("  ],\n");
    match scaling_summary(measurements) {
        Some(sc) => {
            s.push_str("  \"scaling\": {\n");
            s.push_str(&format!("    \"base\": \"{}x{}\",\n", sc.base.0, sc.base.1));
            s.push_str(&format!("    \"top\": \"{}x{}\",\n", sc.top.0, sc.top.1));
            s.push_str(&format!("    \"shards\": {},\n", sc.shards));
            s.push_str(&format!(
                "    \"events_per_sec_ratio\": {:.3},\n",
                sc.events_per_sec_ratio
            ));
            s.push_str(&format!("    \"flat_or_rising\": {}\n", sc.flat_or_rising));
            s.push_str("  }\n");
        }
        None => s.push_str("  \"scaling\": null\n"),
    }
    s.push_str("}\n");
    s
}

/// Renders one measurement as a single `BENCH_history.jsonl` line
/// (newline-terminated), the append-mode record `mnp-run scale
/// --history` accumulates across runs and `--compare` diffs against.
pub fn render_history_row(m: &ScaleMeasurement) -> String {
    let fields: Vec<String> = m
        .json_fields()
        .iter()
        .map(|(key, value)| format!("\"{key}\":{value}"))
        .collect();
    format!("{{{}}}\n", fields.join(","))
}

impl ScaleMeasurement {
    /// The row schema: every key with its rendered JSON value, in document
    /// order — shared by `BENCH_scale.json` rows and history lines.
    fn json_fields(&self) -> [(&'static str, String); 17] {
        let quoted = |s: &str| format!("\"{}\"", escape_json(s));
        [
            ("schema_version", self.schema_version.to_string()),
            ("git", quoted(&self.git)),
            ("tie_break", quoted(&self.tie_break)),
            ("rows", self.rows.to_string()),
            ("cols", self.cols.to_string()),
            ("seed", self.seed.to_string()),
            ("segments", self.segments.to_string()),
            ("shards", self.shards.to_string()),
            ("completed", self.completed.to_string()),
            ("completion_s", format!("{:.3}", self.completion_s)),
            ("wall_s", format!("{:.4}", self.wall_s)),
            ("events", self.events.to_string()),
            ("events_per_sec", format!("{:.0}", self.events_per_sec)),
            ("run_allocs", self.run_allocs.to_string()),
            ("run_alloc_bytes", self.run_alloc_bytes.to_string()),
            ("steady_state_allocs", self.steady_state_allocs.to_string()),
            ("steady_state_rounds", self.steady_state_rounds.to_string()),
        ]
    }
}

/// The isolated radio-medium hot path: repeated single-frame broadcasts on
/// a sampled grid topology, each finished immediately, with one reused
/// [`TxOutcome`] scratch.
///
/// Round-robins the transmitter over all nodes so every pool (listener
/// buffers, payload cells, per-node state) reaches its high-water mark
/// during warm-up; afterwards [`MediumHotLoop::round`] touches the heap
/// zero times per transmission.
pub struct MediumHotLoop {
    medium: Medium<[u8; MAX_PAYLOAD_BYTES]>,
    scratch: TxOutcome,
    nodes: usize,
    next: usize,
    now: SimTime,
    delivered: u64,
    transmissions: u64,
}

impl MediumHotLoop {
    /// Builds the loop over a `rows × cols` grid at the paper's 10 ft
    /// spacing, full power, all radios on.
    pub fn new(rows: usize, cols: usize, seed: u64) -> Self {
        let grid = GridSpec::new(rows, cols, 10.0);
        let mut rng = SimRng::new(seed);
        let topo = TopologyBuilder::new(grid.placement()).build(&mut rng);
        let mut medium = Medium::new(topo.links, rng.derive(0x5ca1e));
        for i in 0..grid.len() {
            medium.set_radio(NodeId::from_index(i), true, SimTime::ZERO);
        }
        // Reserve the scratch to its hard upper bound (every other node
        // hears the frame). The delivered/corrupted/missed split is
        // random per transmission, so warm-up alone cannot guarantee the
        // high-water capacity of each vector has been reached — and one
        // late doubling would break the zero-alloc steady-state gate.
        let mut scratch = TxOutcome::new();
        scratch.delivered.reserve(grid.len());
        scratch.corrupted.reserve(grid.len());
        scratch.missed.reserve(grid.len());
        MediumHotLoop {
            medium,
            scratch,
            nodes: grid.len(),
            next: 0,
            now: SimTime::ZERO,
            delivered: 0,
            transmissions: 0,
        }
    }

    /// One transmission: the next node in round-robin order broadcasts a
    /// full-size frame through all four lifecycle phases, the medium
    /// resolves every receiver, and the scratch outcome is cleared so the
    /// payload cell returns to the pool.
    pub fn round(&mut self) {
        let src = NodeId::from_index(self.next);
        self.next = (self.next + 1) % self.nodes;
        let frame = Frame::new(src, MAX_PAYLOAD_BYTES, [0u8; MAX_PAYLOAD_BYTES]);
        // Every radio idles between rounds, so the send cannot fail.
        let start = self
            .medium
            .begin_transmission(src, frame, self.now)
            .expect("round-robin transmitter is idle");
        self.medium
            .rx_start(start.id, self.now + PERCEPTION_LATENCY);
        self.medium.end_transmission(start.id);
        self.now += start.airtime + PERCEPTION_LATENCY;
        self.medium
            .rx_end_into(start.id, self.now, &mut self.scratch);
        self.delivered += self.scratch.delivered.len() as u64;
        self.transmissions += 1;
        // Release the payload so its arena slot recycles, then clear the
        // scratch for the next round.
        let payload = self
            .scratch
            .payload
            .take()
            .expect("frame carried a payload");
        self.medium.release_payload(payload);
        self.scratch.clear();
    }

    /// Frames delivered across all rounds so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Transmissions performed so far.
    pub fn transmissions(&self) -> u64 {
        self.transmissions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hot_loop_delivers_frames() {
        let mut hot = MediumHotLoop::new(4, 4, 7);
        for _ in 0..64 {
            hot.round();
        }
        assert_eq!(hot.transmissions(), 64);
        // A 4×4 full-power grid is a clique with near-perfect links; a
        // sole transmitter must reach most of its 15 neighbours.
        assert!(
            hot.delivered() > 64 * 8,
            "only {} deliveries",
            hot.delivered()
        );
    }

    #[test]
    fn hot_loop_is_deterministic_per_seed() {
        let mut a = MediumHotLoop::new(5, 5, 11);
        let mut b = MediumHotLoop::new(5, 5, 11);
        for _ in 0..128 {
            a.round();
            b.round();
        }
        assert_eq!(a.delivered(), b.delivered());
    }

    #[test]
    fn measure_small_grid_with_stub_counter() {
        let m = measure(4, 4, 1, 42, 1, &|| (0, 0));
        assert!(m.completed, "{m}");
        assert!(m.events > 0);
        assert!(m.wall_s > 0.0);
        assert_eq!(m.shards, 1);
        assert_eq!(m.steady_state_rounds, STEADY_STATE_ROUNDS);
        assert_eq!(m.run_allocs, 0, "stub counter reads zero");
    }

    #[test]
    fn sharded_measurement_replays_the_sequential_run() {
        // The benchmark's own rows must honour the determinism contract:
        // the sharded kernel changes wall time, never the simulation.
        let seq = measure(4, 4, 1, 42, 1, &|| (0, 0));
        let sharded = measure(4, 4, 1, 42, 4, &|| (0, 0));
        assert_eq!(sharded.shards, 4);
        assert_eq!(sharded.events, seq.events);
        assert_eq!(sharded.completion_s, seq.completion_s);
        assert_eq!(sharded.completed, seq.completed);
    }

    #[test]
    fn json_has_schema_fields() {
        let m = measure(3, 3, 1, 42, 1, &|| (0, 0));
        let json = render_json(&[m]);
        for key in [
            "\"bench\": \"scale\"",
            "\"schema_version\": 4",
            "\"git\"",
            "\"tie_break\": \"fifo\"",
            "\"rows\"",
            "\"cols\"",
            "\"seed\"",
            "\"segments\"",
            "\"shards\"",
            "\"completed\"",
            "\"completion_s\"",
            "\"wall_s\"",
            "\"events\"",
            "\"events_per_sec\"",
            "\"run_allocs\"",
            "\"run_alloc_bytes\"",
            "\"steady_state_allocs\"",
            "\"steady_state_rounds\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!json.contains("},\n  ]"), "no trailing comma: {json}");
        // A single-grid sweep has no base-vs-top comparison to record.
        assert!(json.contains("\"scaling\": null"), "{json}");
    }

    /// A synthetic measurement with the given size, shard count, and
    /// throughput; only the fields [`scaling_summary`] reads are
    /// meaningful.
    fn synthetic(rows: usize, cols: usize, shards: usize, events_per_sec: f64) -> ScaleMeasurement {
        let mut m = measure(3, 3, 1, 42, 1, &|| (0, 0));
        m.rows = rows;
        m.cols = cols;
        m.shards = shards;
        m.events_per_sec = events_per_sec;
        m
    }

    #[test]
    fn scaling_summary_compares_smallest_to_largest() {
        let ms = [
            synthetic(20, 20, 1, 2_000_000.0),
            synthetic(50, 50, 1, 1_800_000.0),
            synthetic(80, 80, 1, 1_700_000.0),
        ];
        let sc = scaling_summary(&ms).expect("two distinct sizes");
        assert_eq!(sc.base, (20, 20));
        assert_eq!(sc.top, (80, 80));
        assert_eq!(sc.shards, 1);
        assert!((sc.events_per_sec_ratio - 0.85).abs() < 1e-9);
        // A ratio sitting exactly on the floor passes the gate: the gate
        // is `>= SCALING_FLOOR`, not the old strict `>= 1.0` which
        // flagged any sub-unity ratio as falling.
        assert!(sc.flat_or_rising);
        assert!(sc.events_per_sec_ratio >= SCALING_FLOOR);

        let json = render_json(&ms);
        assert!(json.contains("\"base\": \"20x20\""), "{json}");
        assert!(json.contains("\"top\": \"80x80\""), "{json}");
        assert!(json.contains("\"events_per_sec_ratio\": 0.850"), "{json}");
        assert!(json.contains("\"flat_or_rising\": true"), "{json}");
    }

    #[test]
    fn scaling_summary_flags_a_fall_below_the_floor() {
        let ms = [
            synthetic(20, 20, 1, 2_000_000.0),
            synthetic(80, 80, 1, 1_600_000.0),
        ];
        let sc = scaling_summary(&ms).expect("two distinct sizes");
        assert!((sc.events_per_sec_ratio - 0.80).abs() < 1e-9);
        assert!(!sc.flat_or_rising, "0.80 is below the 0.85 floor");
    }

    #[test]
    fn scaling_summary_compares_at_the_highest_shard_count() {
        // A mixed sweep (each grid sequential and sharded) gates on the
        // sharded rows: a slow sequential 80x80 must not fail a sweep
        // whose sharded kernel holds throughput.
        let ms = [
            synthetic(20, 20, 1, 3_000_000.0),
            synthetic(80, 80, 1, 1_700_000.0),
            synthetic(20, 20, 8, 3_200_000.0),
            synthetic(80, 80, 8, 6_000_000.0),
        ];
        let sc = scaling_summary(&ms).expect("two distinct sizes at 8 shards");
        assert_eq!(sc.shards, 8);
        assert_eq!(sc.base, (20, 20));
        assert_eq!(sc.top, (80, 80));
        assert!((sc.events_per_sec_ratio - 1.875).abs() < 1e-9);
        assert!(sc.flat_or_rising);
    }

    #[test]
    fn scaling_summary_excludes_single_count_showcase_rows() {
        // A grid pinned to one shard count (`--grids 500x500@8`) records
        // that the run completed; it is not part of the controlled sweep,
        // so it must not become the comparison's top grid. On a one-core
        // host a DRAM-bound 500x500 would otherwise drag a sweep whose
        // gated 20x20→80x80 span is comfortably green below the floor.
        let ms = [
            synthetic(20, 20, 1, 2_100_000.0),
            synthetic(80, 80, 1, 1_500_000.0),
            synthetic(20, 20, 8, 250_000.0),
            synthetic(80, 80, 8, 450_000.0),
            synthetic(500, 500, 8, 160_000.0),
        ];
        let sc = scaling_summary(&ms).expect("20x20 and 80x80 are fully swept");
        assert_eq!(sc.shards, 8);
        assert_eq!(sc.base, (20, 20));
        assert_eq!(sc.top, (80, 80), "the pinned 500x500 row is excluded");
        assert!((sc.events_per_sec_ratio - 1.8).abs() < 1e-9);
        assert!(sc.flat_or_rising);
    }

    #[test]
    fn scaling_summary_needs_two_distinct_sizes() {
        assert!(scaling_summary(&[]).is_none());
        let ms = [synthetic(20, 20, 1, 1e6), synthetic(20, 20, 1, 2e6)];
        assert!(scaling_summary(&ms).is_none());
        // Only one size at the highest shard count: no comparison either,
        // even though two sizes exist overall.
        let ms = [synthetic(20, 20, 1, 1e6), synthetic(80, 80, 8, 2e6)];
        assert!(scaling_summary(&ms).is_none());
    }

    #[test]
    fn default_grids_cover_the_paper_grid_and_the_stress_grids() {
        assert_eq!(DEFAULT_GRIDS, [(20, 20), (50, 50), (80, 80)]);
    }
}
