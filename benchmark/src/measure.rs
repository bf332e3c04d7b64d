//! The two modes of a workload: `end_to_end` (profiler off, one rep per
//! seed, medians over the reps) and `per_layer` (untraced/traced rep pairs
//! of one seed, the profiler's phase table, the micro-drivers) — plus the
//! correctness gate both share.

use std::time::Instant;

use mnp_sim::profile::Phase;

use crate::host;
use crate::micro::{self, MicroConfig};
use crate::report::Outcome;
use crate::scenario::{run_rep, Proto, Rep, RepError, Workload};
use crate::spans::{PhaseTable, Trace};
use crate::stats::{median, summary, Fnv};

/// How many seeds a rep may step past looking for a connected topology.
const MAX_RESEEDS: u64 = 64;

/// Distance between the seeds of consecutive reps, wide enough that stepping
/// past a partitioned topology never lands on a neighbour's seed.
const SEED_STRIDE: u64 = 1000;

/// Fewest measured reps of an end-to-end run (ISSUE 11: "never below 5").
const MIN_REPS: usize = 5;

/// What every later rep of the first seed must reproduce.
struct Reference {
    /// The first seed in use: `--seed`, stepped past partitioned topologies.
    seed: u64,
    digest: u64,
    /// Per-node meter digests of an S=1 rep.
    meters: Option<Vec<u64>>,
}

/// Runs reps of one workload and holds them to the correctness gate: every
/// rep completes before the deadline; EEPROM writes are write-once; a strict
/// `InvariantMonitor` stays clean (a violation panics the rep, which is
/// caught and counted); and every rep of the first seed reproduces that
/// seed's first `sim_digest` — at S=1 or S=2, profiler on or off — and, from
/// one S=1 rep to the next, its per-node meter readings.
struct Session<'a> {
    w: &'a Workload,
    trace: &'a mut Trace,
    outcome: Outcome,
    reference: Option<Reference>,
    /// The `sim_digest` of each seed run so far, by seed index.
    seed_digests: Vec<u64>,
    next_rep: usize,
    /// Most nodes whose meters differed between an S=2 rep and the S=1
    /// reference. Not a failure: see `net.shard_meter_mismatches`.
    meter_mismatches: usize,
}

impl<'a> Session<'a> {
    fn new(w: &'a Workload, seed: u64, traced: bool, trace: &'a mut Trace) -> Self {
        Session {
            w,
            trace,
            outcome: Outcome {
                workload: w.name,
                traced,
                seed,
                reseeded: Vec::new(),
                reps: 0,
                rep_s: 0.0,
                attempted: 0,
                failed: 0,
                failures: Vec::new(),
                digest: 0,
                calib_s: (0.0, 0.0),
                wall_spread: 0.0,
                metrics: Vec::new(),
                series: Vec::new(),
            },
            reference: None,
            seed_digests: Vec::new(),
            next_rep: 0,
            meter_mismatches: 0,
        }
    }

    /// One run of the `k`-th seed, `--seed + 1000·k`. `None` when it produced
    /// nothing usable; its receiving nodes are then all counted as failed
    /// operations.
    fn run(&mut self, k: usize, shards: usize, traced: bool) -> Option<Rep> {
        let receivers = (self.w.nodes() - 1) as u64;
        let rep_id = self.next_rep;
        self.next_rep += 1;
        self.trace.set_rep(self.w.name, rep_id);
        let asked = self.outcome.seed.wrapping_add(SEED_STRIDE * k as u64);
        let mut seed = match &self.reference {
            Some(r) if k == 0 => r.seed,
            _ => asked,
        };
        let fixed = k == 0 && self.reference.is_some();
        let result = loop {
            match run_rep(self.w, seed, shards, traced, self.trace) {
                // A seed whose topology is partitioned is not an input the
                // workload accepts: step to the next one, unless a rep of
                // this seed has already been counted.
                Err(RepError::NotViable) if !fixed && seed.wrapping_sub(asked) < MAX_RESEEDS => {
                    seed = seed.wrapping_add(1);
                }
                other => break other,
            }
        };
        if seed != asked && !self.outcome.reseeded.contains(&(asked, seed)) {
            self.outcome.reseeded.push((asked, seed));
        }
        self.outcome.attempted += receivers;
        let miss = match result {
            Err(RepError::NotViable) => "no viable topology".to_string(),
            Err(RepError::Panicked(msg)) => format!("rep panicked: {msg}"),
            Ok(rep) if !rep.completed => {
                format!("timed out with {} nodes incomplete", rep.incomplete)
            }
            Ok(rep) if !rep.write_once_ok => "EEPROM write counts break write-once".to_string(),
            Ok(mut rep) => {
                let meters = std::mem::take(&mut rep.meters);
                match self.check_first_seed(k, seed, shards, &rep, meters) {
                    Ok(()) => {
                        if self.seed_digests.len() <= k {
                            self.seed_digests.resize(k + 1, 0);
                        }
                        self.seed_digests[k] = rep.digest;
                        return Some(rep);
                    }
                    Err(miss) => miss,
                }
            }
        };
        self.outcome.failed += receivers;
        self.outcome
            .failures
            .push(format!("rep {rep_id} (seed {seed}, S={shards}): {miss}"));
        None
    }

    /// The repeat half of the gate. Only the first seed is ever run twice:
    /// its first good rep becomes the reference and the rest must match it.
    fn check_first_seed(
        &mut self,
        k: usize,
        seed: u64,
        shards: usize,
        rep: &Rep,
        meters: Vec<u64>,
    ) -> Result<(), String> {
        if k != 0 {
            return Ok(());
        }
        let reference = self.reference.get_or_insert(Reference {
            seed,
            digest: rep.digest,
            meters: None,
        });
        if rep.digest != reference.digest {
            return Err(format!(
                "sim_digest {:016x} differs from the seed's first, {:016x}",
                rep.digest, reference.digest
            ));
        }
        match (&reference.meters, shards) {
            (None, 1) => reference.meters = Some(meters),
            (None, _) => {}
            (Some(first), _) => {
                let drift = first.iter().zip(&meters).filter(|(a, b)| a != b).count();
                if shards == 1 && drift != 0 {
                    return Err(format!(
                        "meters of {drift} nodes differ from the seed's first S=1 rep"
                    ));
                }
                self.meter_mismatches = self.meter_mismatches.max(drift);
            }
        }
        Ok(())
    }

    /// Hands the outcome over, its digest folded from the seeds' in seed
    /// order — however often the first one was repeated.
    fn finish(mut self) -> Outcome {
        let mut digest = Fnv::new();
        for &d in &self.seed_digests {
            digest.u64(d);
        }
        self.outcome.digest = digest.finish();
        self.outcome
    }
}

fn column(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> Vec<f64> {
    reps.iter().map(f).collect()
}

/// The end-to-end mode, profiler off: one discarded warm-up of the first
/// seed, then one rep of each of the run's seeds. The work is a function of
/// the arguments alone — `reps` is sized for `seconds` on the host the
/// baseline was taken on, not timed out by a clock — so two runs with the
/// same arguments simulate exactly the same thing, on any host.
pub fn end_to_end(
    w: &Workload,
    seed: u64,
    seconds: f64,
    quick: bool,
    trace: &mut Trace,
) -> Outcome {
    let calib_before = host::calibrate(quick);
    let mut s = Session::new(w, seed, false, trace);
    // The warm-up fills caches and the allocator's free lists, and gives
    // the gate its repeat: rep 0 runs the same seed and must reproduce the
    // digest. On the sharded pair it runs at S=2, so the digest crosses
    // shard counts; its wall time is a per-layer number (README, limit 3).
    s.run(0, if w.sharded_pair { 2 } else { 1 }, false);
    let count = if quick {
        2
    } else {
        ((w.reps as f64 * seconds / 10.0).round() as usize).max(MIN_REPS)
    };
    let mut reps = Vec::new();
    let mut rep_lengths = Vec::new();
    for k in 0..count {
        let t = Instant::now();
        reps.extend(s.run(k, 1, false));
        rep_lengths.push(t.elapsed().as_secs_f64());
    }
    let mut out = s.finish();
    out.calib_s = (calib_before, host::calibrate(quick));
    out.reps = count;
    out.rep_s = median(&rep_lengths);
    if reps.is_empty() {
        // Nothing to report; the failures already say why.
        reps.push(Rep::default());
    }
    for (name, unit, f) in [
        ("setup_s", "s", (|r| r.setup_s) as fn(&Rep) -> f64),
        ("wall_s", "s", |r| r.wall_s),
        ("peak_heap_bytes", "bytes", |r| r.peak_heap_bytes as f64),
        ("sim_completion_s", "sim_s", |r| r.sim_completion_s),
        ("sim_art_mean_s", "sim_s", |r| r.sim_art_mean_s),
        ("sim_msgs", "count", |r| r.sim_msgs as f64),
    ] {
        let values = column(&reps, f);
        out.put_summary(name, summary(&values), unit);
        out.series.push((name, values));
    }
    out
}

/// Fewest rounds of the per-layer mode: three, and the issue's five pairs
/// on the sharded pair, whose S=2 half swings by a factor of two with the
/// host's state (README, limit 3).
fn min_rounds(w: &Workload, quick: bool) -> usize {
    match (quick, w.sharded_pair) {
        (true, _) => 2,
        (false, true) => 5,
        (false, false) => 3,
    }
}

/// The per-layer mode, on the first seed only: rounds of an untraced and a
/// traced rep for half of `seconds` (and at least [`min_rounds`]), then the
/// micro-drivers. On the sharded pair a round is an S=1 / S=2 pair, the
/// order alternating, then a traced S=2 rep, and the layer numbers describe
/// the S=2 run.
pub fn per_layer(w: &Workload, seed: u64, seconds: f64, quick: bool, trace: &mut Trace) -> Outcome {
    let calib_before = host::calibrate(quick);
    let mut s = Session::new(w, seed, true, trace);
    let (mut seq, mut plain, mut traced): (Vec<Rep>, Vec<Rep>, Vec<Rep>) = Default::default();
    let mut rep_lengths = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while i < min_rounds(w, quick) || start.elapsed().as_secs_f64() < seconds / 2.0 {
        let t = Instant::now();
        if w.sharded_pair {
            // Sequential and sharded on the same host in the same minute,
            // the order alternating so neither always runs on a warm heap.
            let order = if i % 2 == 0 { [1, 2] } else { [2, 1] };
            let first = s.run(0, order[0], false);
            let second = s.run(0, order[1], false);
            if let (Some(first), Some(second)) = (first, second) {
                let (s1, s2) = if i % 2 == 0 {
                    (first, second)
                } else {
                    (second, first)
                };
                seq.push(s1);
                plain.push(s2);
            }
        } else if let Some(rep) = s.run(0, 1, false) {
            seq.push(rep.clone());
            plain.push(rep);
        }
        rep_lengths.push(t.elapsed().as_secs_f64());
        traced.extend(s.run(0, if w.sharded_pair { 2 } else { 1 }, true));
        i += 1;
    }
    let meter_mismatches = s.meter_mismatches;
    let mut out = s.finish();
    out.reps = i;
    out.rep_s = median(&rep_lengths);
    for reps in [&mut seq, &mut plain, &mut traced] {
        if reps.is_empty() {
            reps.push(Rep::default());
        }
    }
    layer_metrics(w, &mut out, &seq, &plain, &traced);
    let walls = summary(&column(&plain, |r| r.wall_s));
    out.wall_spread = (walls.q3 - walls.q1) / walls.median;
    out.series = vec![
        ("seq_wall_s", column(&seq, |r| r.wall_s)),
        ("wall_s", column(&plain, |r| r.wall_s)),
        ("traced_wall_s", column(&traced, |r| r.wall_s)),
    ];
    out.put(
        "net.shard_meter_mismatches",
        meter_mismatches as f64,
        "count",
    );
    micro_metrics(&mut out, &MicroConfig::new(quick), seed);
    out.calib_s = (calib_before, host::calibrate(quick));
    out.put("host.calib_s", (out.calib_s.0 + out.calib_s.1) / 2.0, "s");
    out
}

/// Metrics read from the reps themselves: the profiler's phase table of the
/// traced reps, the benchmark's spans, and the program's public counters.
fn layer_metrics(w: &Workload, out: &mut Outcome, seq: &[Rep], plain: &[Rep], traced: &[Rep]) {
    let med = |reps: &[Rep], f: fn(&Rep) -> f64| median(&column(reps, f));
    let mean =
        |reps: &[Rep], f: fn(&Rep) -> f64| column(reps, f).iter().sum::<f64>() / reps.len() as f64;
    // Counts repeat exactly from rep to rep (the digest gate saw to that),
    // so any rep stands for all.
    let rep = &plain[0];
    let nodes = w.nodes() as f64;
    let wall_s = med(plain, |r| r.wall_s);
    let traced_wall_s = med(traced, |r| r.wall_s);

    // The traced reps' phase tables, summed: more timed spans, steadier
    // estimates. Shares are of the summed phase self time — the absolute
    // seconds are inflated by nested clock reads (README, limits). Call
    // counts repeat exactly, so the first table's stand for all.
    let mut sum = PhaseTable::default();
    for table in traced.iter().filter_map(|r| r.phases.as_ref()) {
        for (acc, st) in sum.iter_mut().zip(table) {
            acc.calls += st.calls;
            acc.timed += st.timed;
            acc.total_ns += st.total_ns;
            acc.self_ns += st.self_ns;
        }
    }
    let est_self = |p: Phase| sum[p as usize].est_self_ns() as f64;
    let total_self: f64 = Phase::ALL.iter().map(|&p| est_self(p)).sum();
    let share = |phases: &[Phase]| -> f64 {
        phases.iter().map(|&p| est_self(p)).sum::<f64>() * 100.0 / total_self.max(1.0)
    };
    let first = traced[0].phases.unwrap_or_default();
    let calls = |p: Phase| first[p as usize].calls as f64;
    let ns_per_call = |p: Phase| {
        let st = sum[p as usize];
        st.self_ns as f64 / st.timed.max(1) as f64
    };
    // Zero for the protocol crate that is not running on this workload.
    let of = |proto: Proto, v: f64| if w.proto == proto { v } else { 0.0 };

    out.put("sim.queue_pop_share_pct", share(&[Phase::QueuePop]), "%");
    out.put("sim.queue_push_share_pct", share(&[Phase::QueuePush]), "%");
    out.put("sim.tie_break_share_pct", share(&[Phase::TieBreak]), "%");
    out.put("sim.queue_pop_calls", calls(Phase::QueuePop), "count");
    out.put("sim.queue_push_calls", calls(Phase::QueuePush), "count");
    out.put(
        "sim.queue_pop_ns_per_call",
        ns_per_call(Phase::QueuePop),
        "ns",
    );

    out.put("radio.medium_tx_share_pct", share(&[Phase::MediumTx]), "%");
    out.put("radio.medium_rx_share_pct", share(&[Phase::MediumRx]), "%");
    out.put("radio.csma_share_pct", share(&[Phase::Csma]), "%");
    out.put(
        "radio.arena_share_pct",
        share(&[Phase::ArenaAlloc, Phase::ArenaFree]),
        "%",
    );
    out.put("radio.frames", rep.frames as f64, "count");
    out.put("radio.collisions", rep.collisions as f64, "count");
    out.put(
        "radio.rx_ok_ratio",
        rep.frames_received as f64 / rep.rx_locks.max(1) as f64,
        "ratio",
    );

    out.put("topology.build_s", med(plain, |r| r.topology_build_s), "s");
    out.put(
        "topology.materialize_s",
        med(plain, |r| r.topology_materialize_s),
        "s",
    );
    out.put("topology.links", rep.links as f64, "count");
    out.put("topology.link_updates", rep.link_updates as f64, "count");

    out.put("storage.eeprom_writes", rep.eeprom_writes as f64, "count");

    out.put("net.build_s", med(plain, |r| r.net_build_s), "s");
    out.put("net.finalize_s", med(plain, |r| r.net_finalize_s), "s");
    out.put("net.drop_s", med(plain, |r| r.net_drop_s), "s");
    out.put("net.events", rep.events as f64, "count");
    out.put("net.events_per_s", rep.events as f64 / wall_s, "1/s");
    out.put(
        "net.ns_per_event",
        wall_s * 1e9 / rep.events.max(1) as f64,
        "ns",
    );
    out.put(
        "net.events_per_frame",
        rep.events as f64 / rep.frames.max(1) as f64,
        "ratio",
    );
    out.put("net.dispatch_share_pct", share(&[Phase::Dispatch]), "%");
    out.put("net.dispatch_calls", calls(Phase::Dispatch), "count");
    out.put(
        "net.run_allocs",
        med(plain, |r| r.run_allocs as f64),
        "count",
    );
    out.put(
        "net.run_alloc_bytes",
        med(plain, |r| r.run_alloc_bytes as f64),
        "bytes",
    );
    out.put(
        "net.bytes_per_node",
        med(plain, |r| r.peak_heap_bytes as f64) / nodes,
        "bytes",
    );
    // /proc reports CPU time in 10 ms ticks: the mean over reps converges
    // where a median of quantised readings would not.
    let (user, sys) = (mean(plain, |r| r.cpu_user_s), mean(plain, |r| r.cpu_sys_s));
    out.put("net.cpu_user_s", user, "s");
    out.put("net.cpu_sys_s", sys, "s");
    out.put(
        "net.cpu_util",
        (user + sys) / mean(plain, |r| r.wall_s),
        "ratio",
    );
    out.put("net.seq_wall_s", med(seq, |r| r.wall_s), "s");
    let ratios: Vec<f64> = seq
        .iter()
        .zip(plain)
        .map(|(s, p)| s.wall_s / p.wall_s)
        .collect();
    out.put("net.speedup_vs_seq", median(&ratios), "ratio");
    // Profiler slots are thread-local: at S=2 this lump is barrier wait +
    // merge + replay + worker time until ROADMAP 1a splits it. On S=1 the
    // inflated phase sum exceeds the wall clock and this reads zero.
    let unattributed: Vec<f64> = traced
        .iter()
        .map(|r| {
            let sum: f64 = r.phases.map_or(0.0, |t| {
                t.iter().map(|st| st.est_self_ns() as f64).sum::<f64>() / 1e9
            });
            (r.wall_s - sum).max(0.0)
        })
        .collect();
    out.put("net.unattributed_s", median(&unattributed), "s");

    out.put("obs.observe_share_pct", share(&[Phase::Observe]), "%");
    out.put("obs.observe_calls", calls(Phase::Observe), "count");
    out.put("obs.events", rep.obs_events as f64, "count");
    out.put("obs.jsonl_bytes", rep.jsonl_bytes as f64, "bytes");
    out.put("obs.invariant_checks", rep.invariant_checks as f64, "count");
    out.put("obs.dump_s", med(plain, |r| r.obs_dump_s), "s");
    // Clamped at zero: on a quiet host the traced rep can win by noise.
    out.put(
        "obs.trace_overhead_pct",
        ((traced_wall_s - wall_s) * 100.0 / wall_s).max(0.0),
        "%",
    );

    out.put(
        "core.protocol_share_pct",
        of(Proto::Mnp, share(&[Phase::Protocol])),
        "%",
    );
    out.put(
        "core.protocol_calls",
        of(Proto::Mnp, calls(Phase::Protocol)),
        "count",
    );
    out.put(
        "core.protocol_ns_per_call",
        of(Proto::Mnp, ns_per_call(Phase::Protocol)),
        "ns",
    );
    out.put("core.msgs_adv", rep.msgs[0] as f64, "count");
    out.put("core.msgs_req", rep.msgs[1] as f64, "count");
    out.put("core.msgs_data", rep.msgs[2] as f64, "count");
    out.put("core.fails", rep.fails as f64, "count");
    out.put("core.sleeps", rep.sleeps as f64, "count");

    out.put(
        "baselines.protocol_share_pct",
        of(Proto::Rlnc, share(&[Phase::Protocol])),
        "%",
    );
    out.put(
        "baselines.protocol_ns_per_call",
        of(Proto::Rlnc, ns_per_call(Phase::Protocol)),
        "ns",
    );
    let [innovative, redundant, decodes] = rep.rlnc;
    out.put(
        "baselines.rlnc_innovative_ratio",
        innovative as f64 / (innovative + redundant).max(1) as f64,
        "ratio",
    );
    out.put("baselines.rlnc_decodes", decodes as f64, "count");
}

/// Metrics from the micro-drivers. They do not depend on the workload; every
/// per-layer run repeats them so each result set is complete on its own.
fn micro_metrics(out: &mut Outcome, cfg: &MicroConfig, seed: u64) {
    out.put(
        "sim.queue_hold_ns.d1k",
        micro::queue_hold_ns(cfg, seed, 1_000, 0),
        "ns",
    );
    out.put(
        "sim.queue_hold_ns.d16k",
        micro::queue_hold_ns(cfg, seed, 16_000, 0),
        "ns",
    );
    out.put(
        "sim.queue_hold_far_ns.d1m",
        micro::queue_hold_ns(cfg, seed, 1_000, cfg.far_entries),
        "ns",
    );

    let small = micro::medium_round(cfg, seed, cfg.small_grid);
    let big = micro::medium_round(cfg, seed, cfg.big_grid);
    out.put("radio.medium_round_ns.g20", small.round_ns, "ns");
    out.put("radio.medium_round_ns.g80", big.round_ns, "ns");
    let allocs = small.allocs + big.allocs;
    out.put("radio.medium_round_allocs", allocs as f64, "count");
    if allocs != 0 {
        out.failures.push(format!(
            "medium hot path allocated {allocs} times in steady state (must be 0)"
        ));
    }
    out.put("radio.csma_cycle_ns", micro::csma_cycle_ns(cfg, seed), "ns");
    out.put("radio.set_link_ber_ns", small.set_link_ber_ns, "ns");

    let replay = micro::observer_replay(cfg, seed);
    out.put("obs.jsonl_ns_per_event", replay.jsonl_ns, "ns");
    out.put(
        "obs.jsonl_bytes_per_event",
        replay.jsonl_bytes_per_event,
        "bytes",
    );
    out.put("obs.metrics_ns_per_event", replay.metrics_ns, "ns");
    out.put("obs.invariants_ns_per_event", replay.invariants_ns, "ns");
    out.put("obs.timeline_ns_per_event", replay.timeline_ns, "ns");
    out.put("trace.runtrace_ns_per_event", replay.runtrace_ns, "ns");

    out.put(
        "baselines.decoder_absorb_ns",
        micro::decoder_absorb_ns(cfg, seed),
        "ns",
    );
    out.put(
        "baselines.gf256_mul_add_ns_per_kb",
        micro::gf256_mul_add_ns_per_kb(cfg, seed),
        "ns",
    );
    out.put(
        "baselines.derive_coeffs_ns",
        micro::derive_coeffs_ns(cfg, seed),
        "ns",
    );
}
