//! `mnp-check`: seeded scenario fuzzing with shrinking repros.
//!
//! The headline experiments replay one schedule per seed — the FIFO
//! tie-break makes a run a pure function of its seed, which is perfect for
//! reproduction and useless for finding ordering bugs: same-instant events
//! always pop in insertion order, so an entire family of interleavings is
//! never executed. This module explores that family deterministically:
//!
//! 1. **Generate** — [`generate`] draws a protocol under test (MNP or the
//!    coded family, [`FAULT_TESTED`]), a grid or mobile topology (roughly
//!    one scenario in three moves, [`MobilitySpec`]), protocol sizing,
//!    and a transient-fault plan from a fuzz seed (crash–restarts, link
//!    flaps, EEPROM write faults; never fail-stop kills, so the liveness
//!    oracle below is sound). RLNC runs add a decode-rank oracle: the
//!    decoder's rank may never exceed the generation size, and a liveness
//!    failure reports each stuck node's decoding frontier.
//! 2. **Perturb** — the scenario optionally runs under
//!    [`TieBreak::SeededPermutation`], which permutes the delivery order of
//!    same-instant events while staying byte-replayable per seed.
//! 3. **Check** — [`run_scenario`] runs the scenario against the oracle
//!    set: no panic, no [`InvariantMonitor`] violation (write-once EEPROM,
//!    in-order segments, sleep/transmit exclusion, ReqCtr echo), every node
//!    completes, reception-lock conservation in the medium, and no
//!    wrapped-around protocol counter.
//! 4. **Shrink** — [`shrink`] greedily minimises a failing scenario (drop
//!    faults, shrink the grid, drop a segment, truncate the deadline,
//!    re-seed the permutation) and [`emit_repro`] writes a `repro.json`
//!    that `mnp-run repro` replays deterministically.
//!
//! All JSON here is hand-rolled like the rest of the workspace (offline
//! build, no serde): [`emit_repro`] writes a flat integer-plus-string
//! document and [`parse_repro`] reads it back through
//! [`report::Json`](crate::report::Json).

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use mnp_net::{FaultPlan, LinkChange, NetworkBuilder};
use mnp_obs::{InvariantMonitor, Shared};
use mnp_radio::{LinkTable, NodeId};
use mnp_sim::{SimDuration, SimRng, SimTime, TieBreak};
use mnp_storage::{ImageLayout, ProgramId, ProgramImage};
use mnp_topology::GridSpec;

use crate::mobility::{FieldLayout, MobileExperiment};
use crate::registry::{with_protocol, Disseminator, ProtocolId, FAULT_TESTED};
use crate::report::{escape_json, Json};
use crate::runner::{build, finish, reaches_all, GridExperiment};

/// One planned transient fault of a fuzz scenario.
///
/// Mirrors the transient subset of [`mnp_net::PlannedFault`]; fail-stop
/// kills are deliberately absent so "every node completes" stays a sound
/// oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultSpec {
    /// Node dies at `at` and restarts `down` later (RAM lost, flash kept).
    CrashRestart {
        /// The crashing node.
        node: u32,
        /// Crash instant.
        at: SimTime,
        /// Outage length.
        down: SimDuration,
    },
    /// Directed link degraded to `ber_ppb` parts-per-billion bit error
    /// rate at `at`, restored `down` later.
    LinkFlap {
        /// Transmitting end of the flapped edge.
        from: u32,
        /// Receiving end of the flapped edge.
        to: u32,
        /// Flap instant.
        at: SimTime,
        /// Outage length.
        down: SimDuration,
        /// Degraded bit error rate in parts per billion (`1_000_000_000`
        /// = total loss).
        ber_ppb: u64,
    },
    /// The node's next `failures` EEPROM writes fail transiently from `at`.
    StorageFaults {
        /// The faulting node.
        node: u32,
        /// Injection instant.
        at: SimTime,
        /// Number of consecutive write failures.
        failures: u32,
    },
}

/// Initial placement family of a mobile fuzz scenario.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FuzzLayout {
    /// Uniform over a square field.
    Uniform,
    /// Blue-noise spacing.
    Poisson,
    /// Clustered patches.
    Clustered,
    /// A long thin strip (multihop stress).
    Corridor,
}

impl FuzzLayout {
    /// Every layout, in the order [`generate_with`] draws them.
    pub const ALL: [FuzzLayout; 4] = [
        FuzzLayout::Uniform,
        FuzzLayout::Poisson,
        FuzzLayout::Clustered,
        FuzzLayout::Corridor,
    ];

    /// Stable lowercase name used in `repro.json`.
    pub fn name(self) -> &'static str {
        match self {
            FuzzLayout::Uniform => "uniform",
            FuzzLayout::Poisson => "poisson",
            FuzzLayout::Clustered => "clustered",
            FuzzLayout::Corridor => "corridor",
        }
    }

    /// Parses a [`FuzzLayout::name`] back.
    pub fn from_name(s: &str) -> Option<FuzzLayout> {
        Self::ALL.into_iter().find(|l| l.name() == s)
    }
}

/// Motion of a mobile fuzz scenario: the node count comes from
/// `rows × cols` and the topology from [`MobileExperiment`] instead of a
/// grid. Speed is integer tenths of a ft/s so scenarios stay `Eq` and the
/// repro JSON stays a flat integer format.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MobilitySpec {
    /// Initial placement family.
    pub layout: FuzzLayout,
    /// Random-waypoint speed, tenths of a foot per second.
    pub speed_tenths: u32,
}

/// The mobile experiment a scenario's topology and link schedule come
/// from — shared by generation (viability probing) and replay.
fn mobile_experiment(
    nodes: usize,
    m: MobilitySpec,
    seed: u64,
    deadline: SimTime,
) -> MobileExperiment {
    let exp = MobileExperiment::new(nodes)
        .seed(seed)
        .deadline(deadline)
        .speed(f64::from(m.speed_tenths) / 10.0);
    match m.layout {
        FuzzLayout::Uniform => exp,
        FuzzLayout::Poisson => exp.layout(FieldLayout::Poisson { min_dist_ft: 6.0 }),
        FuzzLayout::Clustered => exp.layout(FieldLayout::Clustered {
            clusters: 3,
            spread_ft: 12.0,
        }),
        FuzzLayout::Corridor => exp
            .field(nodes as f64 * 8.0, 20.0)
            .layout(FieldLayout::Corridor { width_ft: 20.0 }),
    }
}

/// A complete, self-describing fuzz scenario: everything needed to replay
/// one run byte-for-byte.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzScenario {
    /// The protocol under test, one of [`FAULT_TESTED`]. The coded
    /// protocols bring their own oracle surface: a decoder's rank
    /// discipline is checked after every run
    /// ([`Disseminator::decode_frontier`]), and a liveness failure reports
    /// each stuck node's decoding frontier so the repro points at *where*
    /// in the generation the rank stalled.
    pub protocol: ProtocolId,
    /// Grid rows.
    pub rows: usize,
    /// Grid columns.
    pub cols: usize,
    /// Image size in full segments.
    pub segments: u16,
    /// Experiment seed (topology sampling + protocol randomness).
    pub seed: u64,
    /// `Some(seed)` runs under [`TieBreak::SeededPermutation`]; `None` is
    /// the FIFO baseline.
    pub tie_seed: Option<u64>,
    /// Simulation deadline.
    pub deadline: SimTime,
    /// Shard count of the simulation kernel. The schedule is identical at
    /// any value — fuzzing it exercises the sharded lockstep merge under
    /// schedules (permuted tie-breaks, faults) the unit tests never draw.
    pub shards: usize,
    /// `Some` makes this a mobile scenario: `rows × cols` nodes in an
    /// irregular moving field instead of a static grid; link flaps then
    /// draw from the potential-edge set (pairs that ever come within
    /// range), so a flap may name an edge that is disconnected at `t = 0`.
    pub mobility: Option<MobilitySpec>,
    /// Transient faults injected into the run.
    pub faults: Vec<FaultSpec>,
}

/// Grid spacing every fuzz scenario uses (feet). Fixed: spacing only
/// rescales link quality, which the seed already varies.
pub const FUZZ_SPACING_FT: f64 = 10.0;

impl FuzzScenario {
    /// The scenario's tie-break policy.
    pub fn tie_break(&self) -> TieBreak {
        match self.tie_seed {
            Some(s) => TieBreak::SeededPermutation(s),
            None => TieBreak::Fifo,
        }
    }

    /// The links (and, for mobile scenarios, the motion-induced link
    /// schedule) this scenario runs over. `Err` means the sampled
    /// topology cannot reach every node at `t = 0` — the scenario is
    /// invalid, not failing.
    fn topology(&self) -> Result<(LinkTable, Vec<LinkChange>), String> {
        let (links, schedule) = match self.mobility {
            Some(m) => mobile_experiment(self.rows * self.cols, m, self.seed, self.deadline)
                .links_and_schedule(),
            None => {
                let grid = GridExperiment::new(self.rows, self.cols, FUZZ_SPACING_FT);
                (grid.seed(self.seed).sample_links(), Vec::new())
            }
        };
        if !reaches_all(&links) {
            return Err("sampled topology does not reach every node".into());
        }
        Ok((links, schedule))
    }

    /// The scenario's fault plan.
    pub fn fault_plan(&self) -> FaultPlan {
        let mut plan = FaultPlan::seeded(self.seed);
        for f in &self.faults {
            plan = match *f {
                FaultSpec::CrashRestart { node, at, down } => {
                    plan.crash_restart(NodeId(node), at, down)
                }
                FaultSpec::LinkFlap {
                    from,
                    to,
                    at,
                    down,
                    ber_ppb,
                } => plan.link_flap(NodeId(from), NodeId(to), at, down, ber_ppb as f64 / 1e9),
                FaultSpec::StorageFaults { node, at, failures } => {
                    plan.storage_faults(NodeId(node), at, failures)
                }
            };
        }
        plan
    }
}

/// Stable label for a tie-break policy, as printed in scenario lines.
fn tie_break_label(policy: TieBreak) -> String {
    match policy {
        TieBreak::Fifo => "fifo".into(),
        TieBreak::SeededPermutation(seed) => format!("permute({seed})"),
    }
}

impl fmt::Display for FuzzScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {}x{} grid, {} seg, seed {}, {}, {} shard(s), {} fault(s), deadline {:.0}s",
            self.protocol.name(),
            self.rows,
            self.cols,
            self.segments,
            self.seed,
            tie_break_label(self.tie_break()),
            self.shards,
            self.faults.len(),
            self.deadline.as_secs_f64(),
        )?;
        if let Some(m) = self.mobility {
            write!(
                f,
                ", mobile({}, {:.1} ft/s)",
                m.layout.name(),
                f64::from(m.speed_tenths) / 10.0
            )?;
        }
        Ok(())
    }
}

/// What kind of oracle a failing run violated.
///
/// The shrinker accepts a smaller scenario only if it fails with the
/// *same kind* — messages carry node ids and counts that legitimately
/// shift while shrinking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The run panicked (assertion, overflow, index error).
    Panic,
    /// An [`InvariantMonitor`] safety property was violated.
    Invariant,
    /// Some node never completed before the deadline.
    Liveness,
    /// A reception lock was acquired but never resolved (or resolved more
    /// than once) in the medium accounting.
    Conservation,
    /// A protocol counter wrapped below zero (reads as a huge value).
    StatOverflow,
}

impl FailureKind {
    /// Every kind, most specific oracle first.
    pub const ALL: [FailureKind; 5] = [
        FailureKind::Panic,
        FailureKind::Invariant,
        FailureKind::Liveness,
        FailureKind::Conservation,
        FailureKind::StatOverflow,
    ];

    /// Stable lowercase name used in `repro.json`.
    pub fn name(self) -> &'static str {
        match self {
            FailureKind::Panic => "panic",
            FailureKind::Invariant => "invariant",
            FailureKind::Liveness => "liveness",
            FailureKind::Conservation => "conservation",
            FailureKind::StatOverflow => "stat_overflow",
        }
    }

    /// Parses a [`FailureKind::name`] back.
    pub fn from_name(s: &str) -> Option<FailureKind> {
        Self::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// One oracle violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzFailure {
    /// Which oracle fired.
    pub kind: FailureKind,
    /// Human-readable context (panic payload, violation text, node id).
    pub message: String,
}

impl fmt::Display for FuzzFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}", self.kind.name(), self.message)
    }
}

/// The outcome of running one scenario against the oracle set.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Every oracle passed.
    Pass,
    /// An oracle fired.
    Fail(FuzzFailure),
    /// The scenario cannot run (unreachable topology, fault naming a
    /// node or edge the shrunken graph no longer has). Not a failure:
    /// shrink candidates that become invalid are simply rejected.
    Invalid(String),
}

impl Verdict {
    /// The failure, if this verdict is one.
    pub fn failure(&self) -> Option<&FuzzFailure> {
        match self {
            Verdict::Fail(f) => Some(f),
            _ => None,
        }
    }
}

/// Runs one scenario and applies the oracle set.
///
/// Deterministic: the same scenario always returns the same verdict. The
/// entire build-and-run executes under [`catch_unwind`], so a
/// `debug_assert!` deep in the protocol surfaces as
/// [`FailureKind::Panic`] instead of tearing the fuzz loop down — which
/// also means panics are only observable oracles in builds with debug
/// assertions on (the default `cargo` profile; CI runs the fuzz smoke
/// unoptimised for exactly this reason).
pub fn run_scenario(sc: &FuzzScenario) -> Verdict {
    let result = catch_unwind(AssertUnwindSafe(
        || with_protocol!(sc.protocol, P => check::<P>(sc)),
    ));
    match result {
        Err(payload) => Verdict::Fail(FuzzFailure {
            kind: FailureKind::Panic,
            message: panic_message(payload.as_ref()),
        }),
        Ok(Err(invalid)) => Verdict::Invalid(invalid),
        Ok(Ok(Some(failure))) => Verdict::Fail(failure),
        Ok(Ok(None)) => Verdict::Pass,
    }
}

/// Runs the scenario under protocol `P` and returns the first oracle it
/// violates, if any; `Err` means the scenario is structurally invalid
/// (cannot even be built).
fn check<P: Disseminator>(sc: &FuzzScenario) -> Result<Option<FuzzFailure>, String> {
    let monitor = Shared::new(InvariantMonitor::lenient());
    let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(sc.segments));
    let (links, schedule) = sc.topology()?;
    let builder = NetworkBuilder::new(links, sc.seed)
        .tie_break(sc.tie_break())
        .faults(sc.fault_plan())
        .shards(sc.shards)
        .link_schedule(schedule)
        .observer(monitor.clone());
    let mut net = build::<P>(builder, &image, P::config_for(&image)).map_err(|e| e.to_string())?;
    let grid = GridSpec::new(sc.rows, sc.cols, FUZZ_SPACING_FT);
    let completed = finish(&mut net, grid, sc.deadline).completed;

    // Oracle order: most specific first, so a run that trips several
    // reports the most actionable one.
    let fail = |kind, message| Ok(Some(FuzzFailure { kind, message }));
    let nodes = || (0..net.len()).map(NodeId::from_index);
    if let Some(v) = monitor.borrow().violations().first() {
        return fail(FailureKind::Invariant, v.clone());
    }
    for id in nodes() {
        // A decoder's rank may never exceed its generation size.
        if let Some((gen, rank, size)) = net.protocol(id).decode_frontier() {
            if rank > size {
                let i = id.0;
                return fail(
                    FailureKind::Invariant,
                    format!(
                        "node {i}: decoder rank {rank} exceeds generation size {size} (gen {gen})"
                    ),
                );
            }
        }
    }
    for (i, m) in nodes().map(|id| net.medium_stats(id)).enumerate() {
        let resolved = m.frames_received + m.rx_corrupted + m.bit_error_losses + m.rx_aborted;
        // A node holds at most one reception lock, so at quiescence the
        // books balance exactly or are one in-flight frame short.
        let slack = m.rx_locks.checked_sub(resolved);
        if !matches!(slack, Some(0) | Some(1)) {
            return fail(
                FailureKind::Conservation,
                format!(
                    "node {i}: {} reception locks vs {} resolutions \
                     ({} received, {} corrupted, {} bit-error, {} aborted)",
                    m.rx_locks,
                    resolved,
                    m.frames_received,
                    m.rx_corrupted,
                    m.bit_error_losses,
                    m.rx_aborted
                ),
            );
        }
    }
    for id in nodes() {
        if let Some((name, value)) = net.protocol(id).overflowed_counter() {
            let i = id.0;
            return fail(
                FailureKind::StatOverflow,
                format!("node {i}: counter {name} = {value} (wrapped below zero?)"),
            );
        }
    }
    if !completed {
        let stuck = || nodes().filter(|&id| !net.protocol(id).is_complete());
        let mut message = format!(
            "nodes {:?} never completed before the {:.0}s deadline \
             (all faults are transient, so they must)",
            stuck().map(|id| id.0).collect::<Vec<_>>(),
            sc.deadline.as_secs_f64()
        );
        // A stuck decoder's frontier names the generation and rank where
        // progress died.
        let ranks: Vec<String> = stuck()
            .filter_map(|id| {
                let (gen, rank, size) = net.protocol(id).decode_frontier()?;
                Some(format!("node {}: gen {gen} rank {rank}/{size}", id.0))
            })
            .collect();
        if !ranks.is_empty() {
            message.push_str(&format!("; decode frontier: {}", ranks.join(", ")));
        }
        return fail(FailureKind::Liveness, message);
    }
    Ok(None)
}

/// Extracts a printable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

/// Draws scenario `index` of the stream identified by `fuzz_seed`.
///
/// Pure function of `(fuzz_seed, index, permute)`: grids 3×3 to 5×5, one
/// or two segments, up to four transient faults drawn against the actual
/// sampled topology (so link flaps always name real edges and generated
/// scenarios are valid by construction). The base station is exempt from
/// crash and storage faults — restarting the only holder of the image is
/// a liveness question of its own, probed separately.
pub fn generate(fuzz_seed: u64, index: u64, permute: bool) -> FuzzScenario {
    generate_with(fuzz_seed, index, permute, false)
}

/// [`generate`], with mobile scenarios either forced (`force_mobile`) or
/// drawn roughly every third index. Mobile draws pick a placement family
/// and a waypoint speed in 0.5–2.0 ft/s; their link flaps come from the
/// potential-edge set, so a flap may target an edge that only exists
/// mid-run.
pub fn generate_with(
    fuzz_seed: u64,
    index: u64,
    permute: bool,
    force_mobile: bool,
) -> FuzzScenario {
    let mut rng = SimRng::new(fuzz_seed).derive(index);
    let protocol = ProtocolId::lookup(FAULT_TESTED[rng.index(FAULT_TESTED.len())])
        .expect("FAULT_TESTED is a subset of the registry");
    let rows = 3 + rng.index(3);
    let cols = 3 + rng.index(3);
    let segments = 1 + rng.index(2) as u16;
    // 1 = the sequential kernel; >1 exercises the sharded lockstep merge,
    // which must replay the sequential schedule byte for byte.
    let shards = 1 + rng.index(4);
    let deadline = SimTime::from_secs(4 * 3_600);
    let mobility = (force_mobile || rng.chance(1.0 / 3.0)).then(|| MobilitySpec {
        layout: FuzzLayout::ALL[rng.index(FuzzLayout::ALL.len())],
        speed_tenths: 5 + rng.index(16) as u32,
    });
    // Redraw the experiment seed until the sampled topology is viable
    // (full power almost always is; the bound is a formality). For mobile
    // scenarios viability means reachable at t = 0 over the potential-edge
    // set, and the kept links table *is* that potential set — so the fault
    // edges drawn below may name pairs disconnected until nodes move.
    let mut sc = FuzzScenario {
        protocol,
        rows,
        cols,
        segments,
        seed: rng.next_u64(),
        tie_seed: None,
        deadline,
        shards,
        mobility,
        faults: Vec::new(),
    };
    let mut draws = 1;
    let links = loop {
        if let Ok((links, _)) = sc.topology() {
            break links;
        }
        assert!(draws < 32, "no viable topology in 32 draws (full power)");
        draws += 1;
        sc.seed = rng.next_u64();
    };

    let n = rows * cols;
    let edges: Vec<(u32, u32)> = (0..n)
        .map(NodeId::from_index)
        .flat_map(|from| links.neighbors(from).map(move |(to, _)| (from.0, to.0)))
        .collect();
    let window = (SimTime::from_secs(60), SimTime::from_secs(1200));
    for _ in 0..rng.index(5) {
        let at = SimTime::from_micros(rng.range_u64(window.0.as_micros(), window.1.as_micros()));
        let fault = match rng.index(3) {
            0 => FaultSpec::CrashRestart {
                node: 1 + rng.index(n - 1) as u32,
                at,
                down: SimDuration::from_secs(rng.range_u64(5, 180)),
            },
            1 => {
                let (from, to) = edges[rng.index(edges.len())];
                FaultSpec::LinkFlap {
                    from,
                    to,
                    at,
                    down: SimDuration::from_secs(rng.range_u64(5, 60)),
                    ber_ppb: 1_000_000_000,
                }
            }
            _ => FaultSpec::StorageFaults {
                node: 1 + rng.index(n - 1) as u32,
                at,
                failures: 1 + rng.index(3) as u32,
            },
        };
        sc.faults.push(fault);
    }
    if permute {
        sc.tie_seed = Some(rng.next_u64());
    }
    sc
}

/// Greedily minimises a failing scenario.
///
/// Tries, in order: replacing a mobile field with the static grid,
/// dropping each fault, shrinking rows and columns,
/// dropping a segment, halving the deadline (skipped for
/// [`FailureKind::Liveness`], which any short deadline fails vacuously),
/// and replacing the permutation seed with small values. A candidate is
/// accepted if `check` fails it with the *same kind*; [`Verdict::Invalid`]
/// candidates (shrinking orphaned a fault) are rejected. Runs to a fixed
/// point or until `budget` check calls are spent; returns the smallest
/// scenario found and the number of check calls used.
pub fn shrink(
    original: &FuzzScenario,
    kind: FailureKind,
    budget: u32,
    mut check: impl FnMut(&FuzzScenario) -> Verdict,
) -> (FuzzScenario, u32) {
    let mut best = original.clone();
    let mut spent = 0u32;
    // Applies `simplify` to a copy of the best scenario so far and keeps
    // the copy if it still fails the same way.
    type Simplify<'a> = &'a dyn Fn(&mut FuzzScenario);
    let mut try_accept = |best: &mut FuzzScenario, spent: &mut u32, simplify: Simplify| {
        if *spent >= budget {
            return false;
        }
        *spent += 1;
        let mut cand = best.clone();
        simplify(&mut cand);
        if matches!(check(&cand), Verdict::Fail(f) if f.kind == kind) {
            *best = cand;
            true
        } else {
            false
        }
    };
    loop {
        let mut improved = false;
        // A static-grid repro is simpler than a mobile one. The candidate
        // may come back Invalid (a fault named a potential-only edge the
        // grid lacks) — that is rejected like any other.
        if best.mobility.is_some() {
            improved |= try_accept(&mut best, &mut spent, &|c| c.mobility = None);
        }
        // Drop faults, largest index first so removal indices stay valid.
        for i in (0..best.faults.len()).rev() {
            improved |= try_accept(&mut best, &mut spent, &|c| {
                c.faults.remove(i);
            });
        }
        if best.rows > 2 {
            improved |= try_accept(&mut best, &mut spent, &|c| c.rows -= 1);
        }
        if best.cols > 2 {
            improved |= try_accept(&mut best, &mut spent, &|c| c.cols -= 1);
        }
        if best.segments > 1 {
            improved |= try_accept(&mut best, &mut spent, &|c| c.segments -= 1);
        }
        // A repro that still fails on the sequential kernel is strictly
        // easier to debug than a sharded one.
        if best.shards > 1 {
            improved |= try_accept(&mut best, &mut spent, &|c| c.shards = 1);
        }
        if kind != FailureKind::Liveness && best.deadline > SimTime::from_secs(600) {
            let half = SimTime::from_micros(best.deadline.as_micros() / 2);
            improved |= try_accept(&mut best, &mut spent, &|c| c.deadline = half);
        }
        if let Some(tie) = best.tie_seed {
            if tie > 7 {
                for small in 0..4u64 {
                    if try_accept(&mut best, &mut spent, &|c| c.tie_seed = Some(small)) {
                        improved = true;
                        break;
                    }
                }
            }
        }
        if !improved || spent >= budget {
            return (best, spent);
        }
    }
}

// ---------------------------------------------------------------------------
// repro.json
// ---------------------------------------------------------------------------

/// Renders a failing scenario as `repro.json`.
///
/// The format is self-contained: `mnp-run repro <file>` rebuilds the
/// scenario with [`parse_repro`] and replays it deterministically. Times
/// are integer microseconds; the recorded failure is advisory (the replay
/// re-derives its own verdict).
pub fn emit_repro(sc: &FuzzScenario, failure: &FuzzFailure) -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"version\": 1,\n");
    out.push_str(&format!("  \"protocol\": \"{}\",\n", sc.protocol.name()));
    out.push_str(&format!("  \"rows\": {},\n", sc.rows));
    out.push_str(&format!("  \"cols\": {},\n", sc.cols));
    out.push_str(&format!("  \"segments\": {},\n", sc.segments));
    out.push_str(&format!("  \"seed\": {},\n", sc.seed));
    if let Some(tie) = sc.tie_seed {
        out.push_str(&format!("  \"tie_seed\": {tie},\n"));
    }
    out.push_str(&format!(
        "  \"deadline_us\": {},\n",
        sc.deadline.as_micros()
    ));
    out.push_str(&format!("  \"shards\": {},\n", sc.shards));
    if let Some(m) = sc.mobility {
        out.push_str(&format!(
            "  \"mobility\": {{\"layout\": \"{}\", \"speed_tenths\": {}}},\n",
            m.layout.name(),
            m.speed_tenths
        ));
    }
    out.push_str("  \"faults\": [");
    for (i, f) in sc.faults.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    ");
        match *f {
            FaultSpec::CrashRestart { node, at, down } => out.push_str(&format!(
                "{{\"kind\": \"crash_restart\", \"node\": {node}, \"at_us\": {}, \"down_us\": {}}}",
                at.as_micros(),
                down.as_micros()
            )),
            FaultSpec::LinkFlap {
                from,
                to,
                at,
                down,
                ber_ppb,
            } => out.push_str(&format!(
                "{{\"kind\": \"link_flap\", \"from\": {from}, \"to\": {to}, \
                 \"at_us\": {}, \"down_us\": {}, \"ber_ppb\": {ber_ppb}}}",
                at.as_micros(),
                down.as_micros()
            )),
            FaultSpec::StorageFaults { node, at, failures } => out.push_str(&format!(
                "{{\"kind\": \"storage_faults\", \"node\": {node}, \
                 \"at_us\": {}, \"failures\": {failures}}}",
                at.as_micros()
            )),
        }
    }
    out.push_str(if sc.faults.is_empty() {
        "],\n"
    } else {
        "\n  ],\n"
    });
    out.push_str(&format!(
        "  \"failure\": {{\"kind\": \"{}\", \"message\": \"{}\"}}\n",
        failure.kind.name(),
        escape_json(&failure.message)
    ));
    out.push_str("}\n");
    out
}

/// Parses a `repro.json` back into the scenario it records (plus the
/// advisory recorded failure kind, if present and well-formed).
///
/// Field policy: *absent* optional fields take their legacy defaults
/// (`tie_seed` → FIFO, `shards` → 1 for pre-sharding repros, `protocol` →
/// `"mnp"` for pre-coding repros, `mobility` → static grid for
/// pre-mobility repros), but a field that is *present with the
/// wrong type* is a hard error — a repro whose `"shards": "four"` silently
/// replayed sequentially would "reproduce" a different schedule than the
/// one that failed.
pub fn parse_repro(text: &str) -> Result<(FuzzScenario, Option<FailureKind>), String> {
    let root = Json::parse(text)?;
    /// `obj.name` as an integer that fits `T`; `None` when absent.
    fn int<T: TryFrom<u64>>(obj: &Json, name: &str) -> Result<Option<T>, String> {
        let Some(v) = obj.get(name) else {
            return Ok(None);
        };
        let n = v
            .as_u64()
            .ok_or_else(|| format!("field {name:?} is present but not an integer"))?;
        T::try_from(n)
            .map(Some)
            .map_err(|_| format!("field {name:?} is out of range: {n}"))
    }
    /// Required integer: absent and mistyped are distinct errors.
    fn get<T: TryFrom<u64>>(obj: &Json, name: &str) -> Result<T, String> {
        int(obj, name)?.ok_or_else(|| format!("missing integer field {name:?}"))
    }
    let version: u64 = get(&root, "version")?;
    if version != 1 {
        return Err(format!("unsupported repro version {version}"));
    }
    let mut faults = Vec::new();
    if let Some(items) = root.get("faults").and_then(Json::as_arr) {
        for item in items {
            let kind = item
                .get("kind")
                .and_then(Json::as_str)
                .ok_or("fault missing kind")?;
            let fget = |name| get::<u64>(item, name).map_err(|e| format!("fault: {e}"));
            let node = |name| get::<u32>(item, name).map_err(|e| format!("fault: {e}"));
            faults.push(match kind {
                "crash_restart" => FaultSpec::CrashRestart {
                    node: node("node")?,
                    at: SimTime::from_micros(fget("at_us")?),
                    down: SimDuration::from_micros(fget("down_us")?),
                },
                "link_flap" => FaultSpec::LinkFlap {
                    from: node("from")?,
                    to: node("to")?,
                    at: SimTime::from_micros(fget("at_us")?),
                    down: SimDuration::from_micros(fget("down_us")?),
                    ber_ppb: fget("ber_ppb")?,
                },
                "storage_faults" => FaultSpec::StorageFaults {
                    node: node("node")?,
                    at: SimTime::from_micros(fget("at_us")?),
                    failures: node("failures")?,
                },
                other => return Err(format!("unknown fault kind {other:?}")),
            });
        }
    }
    let recorded = root
        .get("failure")
        .and_then(|f| f.get("kind"))
        .and_then(Json::as_str)
        .and_then(FailureKind::from_name);
    let protocol = match root.get("protocol") {
        // Absent in pre-coding repros: those all ran MNP.
        None => ProtocolId::of::<mnp::Mnp>(),
        Some(v) => {
            let name = v
                .as_str()
                .ok_or("field \"protocol\" is present but not a string")?;
            ProtocolId::parse(name, FAULT_TESTED)?
        }
    };
    let mobility = match root.get("mobility") {
        // Absent in pre-mobility repros: those all ran static grids.
        None => None,
        Some(m) => {
            let layout_name = m
                .get("layout")
                .ok_or("mobility object missing \"layout\"")?
                .as_str()
                .ok_or("mobility field \"layout\" is present but not a string")?;
            let layout = FuzzLayout::from_name(layout_name).ok_or_else(|| {
                format!(
                    "unknown mobility layout {layout_name:?} (uniform|poisson|clustered|corridor)"
                )
            })?;
            Some(MobilitySpec {
                layout,
                speed_tenths: get(m, "speed_tenths").map_err(|e| format!("mobility: {e}"))?,
            })
        }
    };
    Ok((
        FuzzScenario {
            protocol,
            rows: get(&root, "rows")?,
            cols: get(&root, "cols")?,
            segments: get(&root, "segments")?,
            seed: get(&root, "seed")?,
            // Absent in FIFO repros.
            tie_seed: int(&root, "tie_seed")?,
            deadline: SimTime::from_micros(get(&root, "deadline_us")?),
            // Absent in pre-sharding repros: those ran sequentially.
            shards: int(&root, "shards")?.unwrap_or(1),
            mobility,
            faults,
        },
        recorded,
    ))
}

// ---------------------------------------------------------------------------
// The fuzz loop
// ---------------------------------------------------------------------------

/// Configuration of one fuzz campaign.
#[derive(Clone, Debug)]
pub struct FuzzConfig {
    /// Scenarios to run (stopping early at the first failure).
    pub runs: u64,
    /// Stream seed: scenario `i` is `generate(fuzz_seed, i, ...)`.
    pub fuzz_seed: u64,
    /// Run under the seeded-permutation tie-break (otherwise FIFO).
    pub permute: bool,
    /// Force every scenario mobile (otherwise roughly one in three is).
    pub mobile: bool,
    /// Check-call budget of the shrinking pass.
    pub shrink_budget: u32,
}

impl Default for FuzzConfig {
    fn default() -> Self {
        FuzzConfig {
            runs: 20,
            fuzz_seed: 1,
            permute: false,
            mobile: false,
            shrink_budget: 64,
        }
    }
}

/// The first failure a campaign found, already shrunk.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// Index of the failing scenario in the stream.
    pub index: u64,
    /// The scenario as generated.
    pub original: FuzzScenario,
    /// The minimised scenario (still failing with the same kind).
    pub shrunk: FuzzScenario,
    /// The failure the *shrunk* scenario reproduces.
    pub failure: FuzzFailure,
    /// Shrink check-calls spent.
    pub shrink_spent: u32,
}

/// Runs a fuzz campaign: generate → run → on failure, shrink.
///
/// Returns `Ok(runs_executed)` if every scenario passed, or the shrunk
/// first failure. `progress` is called once per scenario with its index
/// and verdict (for CLI reporting).
pub fn fuzz(
    cfg: &FuzzConfig,
    mut progress: impl FnMut(u64, &FuzzScenario, &Verdict),
) -> Result<u64, Box<FuzzReport>> {
    for i in 0..cfg.runs {
        let sc = generate_with(cfg.fuzz_seed, i, cfg.permute, cfg.mobile);
        let verdict = run_scenario(&sc);
        progress(i, &sc, &verdict);
        if let Verdict::Fail(failure) = verdict {
            let (shrunk, spent) = shrink(&sc, failure.kind, cfg.shrink_budget, run_scenario);
            // Re-run the winner for its (possibly reworded) message.
            let final_failure = match run_scenario(&shrunk) {
                Verdict::Fail(f) => f,
                _ => failure,
            };
            return Err(Box::new(FuzzReport {
                index: i,
                original: sc,
                shrunk,
                failure: final_failure,
                shrink_spent: spent,
            }));
        }
    }
    Ok(cfg.runs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnp::Mnp;

    fn sample_scenario() -> FuzzScenario {
        FuzzScenario {
            protocol: ProtocolId::of::<Mnp>(),
            rows: 3,
            cols: 4,
            segments: 2,
            seed: 77,
            tie_seed: Some(9),
            deadline: SimTime::from_secs(1234),
            shards: 3,
            mobility: None,
            faults: vec![
                FaultSpec::CrashRestart {
                    node: 3,
                    at: SimTime::from_secs(100),
                    down: SimDuration::from_secs(30),
                },
                FaultSpec::LinkFlap {
                    from: 0,
                    to: 1,
                    at: SimTime::from_secs(200),
                    down: SimDuration::from_secs(10),
                    ber_ppb: 1_000_000_000,
                },
                FaultSpec::StorageFaults {
                    node: 5,
                    at: SimTime::from_secs(300),
                    failures: 2,
                },
            ],
        }
    }

    /// A small clean static scenario every oracle passes.
    fn small_scenario() -> FuzzScenario {
        FuzzScenario {
            rows: 3,
            cols: 3,
            segments: 1,
            seed: 5,
            tie_seed: None,
            deadline: SimTime::from_secs(4 * 3_600),
            shards: 1,
            faults: Vec::new(),
            ..sample_scenario()
        }
    }

    #[test]
    fn repro_json_roundtrips() {
        let mobile = Some(MobilitySpec {
            layout: FuzzLayout::Clustered,
            speed_tenths: 12,
        });
        let mut scenarios = vec![
            sample_scenario(),
            // Optional fields absent from the document.
            FuzzScenario {
                tie_seed: None,
                faults: Vec::new(),
                ..sample_scenario()
            },
            FuzzScenario {
                mobility: mobile,
                ..sample_scenario()
            },
        ];
        scenarios.extend(FAULT_TESTED.iter().map(|name| FuzzScenario {
            protocol: ProtocolId::lookup(name).unwrap(),
            ..sample_scenario()
        }));
        for sc in scenarios {
            let failure = FuzzFailure {
                kind: FailureKind::Invariant,
                message: "node 3 wrote EEPROM packet (0,3) twice — \"quoted\"\nline 2".into(),
            };
            let json = emit_repro(&sc, &failure);
            let (parsed, recorded) = parse_repro(&json).expect("parse back");
            assert_eq!(parsed, sc, "{json}");
            assert_eq!(recorded, Some(FailureKind::Invariant));
            assert_eq!(parsed.tie_break() == TieBreak::Fifo, sc.tie_seed.is_none());
            assert_eq!(
                json.contains("\"layout\": \"clustered\""),
                sc.mobility.is_some()
            );
        }
        // Hostile nesting is an error here too, not a stack overflow.
        assert!(parse_repro(&"[".repeat(100_000)).is_err());
    }

    #[test]
    fn repro_json_roundtrips_full_range_seeds_exactly() {
        // Fuzz seeds are full-range u64 draws, far beyond f64's 2^53 exact
        // integers: a reader that went through a float would replay a
        // *different* schedule than the one that failed.
        let sc = FuzzScenario {
            seed: 11142325072803023859,
            tie_seed: Some(u64::MAX),
            ..sample_scenario()
        };
        let failure = FuzzFailure {
            kind: FailureKind::Liveness,
            message: "x".into(),
        };
        let (parsed, _) = parse_repro(&emit_repro(&sc, &failure)).unwrap();
        assert_eq!(parsed.seed, 11142325072803023859);
        assert_eq!(parsed.tie_seed, Some(u64::MAX));
        assert_eq!(parsed, sc);
    }

    #[test]
    fn absent_optional_fields_take_legacy_defaults() {
        // A pre-sharding, pre-coding repro: no shards, tie_seed, or
        // protocol field. It must replay as the FIFO sequential MNP run
        // it originally was.
        let json = r#"{"version": 1, "rows": 3, "cols": 3, "segments": 1,
                       "seed": 5, "deadline_us": 600000000, "faults": []}"#;
        let (sc, recorded) = parse_repro(json).expect("legacy repro parses");
        assert_eq!(sc.protocol, ProtocolId::of::<Mnp>());
        assert_eq!(sc.shards, 1);
        assert_eq!(sc.tie_seed, None);
        assert_eq!(recorded, None);
    }

    #[test]
    fn malformed_present_fields_are_hard_errors() {
        // Present-but-mistyped must never fall back to a default: a repro
        // that silently replays a different schedule is worse than one
        // that refuses to load.
        let base = |field: &str| {
            format!(
                r#"{{"version": 1, "rows": 3, "cols": 3, "segments": 1,
                     "seed": 5, "deadline_us": 600000000, "faults": [], {field}}}"#
            )
        };
        for (field, needle) in [
            (r#""shards": "four""#, "shards"),
            (r#""shards": 1.5"#, "shards"),
            (r#""tie_seed": "low""#, "tie_seed"),
            (r#""tie_seed": -3"#, "tie_seed"),
            // One past u64::MAX only exists as a float.
            (r#""tie_seed": 18446744073709551616"#, "tie_seed"),
            (r#""protocol": 7"#, "protocol"),
            (r#""protocol": "fountain""#, "fountain"),
            (
                r#""mobility": {"layout": "warp", "speed_tenths": 5}"#,
                "warp",
            ),
            (
                r#""mobility": {"layout": "uniform", "speed_tenths": "fast"}"#,
                "speed_tenths",
            ),
            // Fits u64, not the field's u32.
            (
                r#""mobility": {"layout": "uniform", "speed_tenths": 4294967296}"#,
                "out of range",
            ),
            (r#""mobility": {"speed_tenths": 5}"#, "layout"),
            (r#""mobility": {"layout": 3, "speed_tenths": 5}"#, "layout"),
        ] {
            let err = parse_repro(&base(field)).expect_err(field);
            assert!(err.contains(needle), "{field}: {err}");
        }
        // Mistyped fault fields are hard errors too.
        let json = r#"{"version": 1, "rows": 3, "cols": 3, "segments": 1,
                       "seed": 5, "deadline_us": 600000000, "faults":
                       [{"kind": "storage_faults", "node": 2,
                         "at_us": 1000, "failures": "two"}]}"#;
        let err = parse_repro(json).expect_err("mistyped fault field");
        assert!(err.contains("failures"), "{err}");
    }

    #[test]
    fn generation_is_deterministic_and_valid() {
        let a = generate(42, 3, true);
        let b = generate(42, 3, true);
        assert_eq!(a, b, "same (seed, index) draws the same scenario");
        assert!(a.tie_seed.is_some());
        let c = generate(42, 4, true);
        assert_ne!(a, c, "the stream varies by index");
        // Generated scenarios are valid by construction: every fault
        // names a live node / real (or potential) edge of the scenario's
        // own topology.
        let (links, _) = a.topology().expect("generated topology is viable");
        assert!(
            a.fault_plan().validate(&links).is_ok(),
            "generated faults validate against the sampled topology"
        );
    }

    #[test]
    fn clean_scenarios_pass_all_oracles() {
        let storage_fault = vec![FaultSpec::StorageFaults {
            node: 4,
            at: SimTime::from_secs(10),
            failures: 2,
        }];
        let mut scenarios = vec![
            small_scenario(),
            // The permuted schedule of the same scenario.
            FuzzScenario {
                tie_seed: Some(11),
                ..small_scenario()
            },
            // Mirrors `mobility::tests`: 9 nodes at 2 ft/s complete well
            // inside the 4 h deadline, here through the full oracle set
            // and the motion-driven link schedule.
            FuzzScenario {
                seed: 2,
                mobility: Some(MobilitySpec {
                    layout: FuzzLayout::Uniform,
                    speed_tenths: 20,
                }),
                ..small_scenario()
            },
        ];
        // Every fault-tested protocol through the full oracle set,
        // including the decoder rank-discipline check and a storage fault
        // (the coded commit paths must retry/re-request, not stall
        // liveness).
        scenarios.extend(FAULT_TESTED.iter().map(|name| FuzzScenario {
            protocol: ProtocolId::lookup(name).unwrap(),
            tie_seed: Some(11),
            faults: storage_fault.clone(),
            ..small_scenario()
        }));
        for sc in scenarios {
            assert_eq!(run_scenario(&sc), Verdict::Pass, "{sc}");
        }
    }

    #[test]
    fn generation_draws_every_protocol() {
        let mut seen = [false; 3];
        for i in 0..64 {
            let name = generate(9, i, false).protocol.name();
            let drawn = FAULT_TESTED.iter().position(|n| *n == name);
            seen[drawn.expect("draws stay inside FAULT_TESTED")] = true;
            if seen.iter().all(|&s| s) {
                return;
            }
        }
        panic!("64 draws never covered all of {FAULT_TESTED:?}: {seen:?}");
    }

    #[test]
    fn orphaned_fault_is_invalid_not_failing() {
        let sc = FuzzScenario {
            faults: vec![FaultSpec::CrashRestart {
                node: 99, // a 3x3 grid has nodes 0..9
                at: SimTime::from_secs(100),
                down: SimDuration::from_secs(10),
            }],
            ..small_scenario()
        };
        assert!(matches!(run_scenario(&sc), Verdict::Invalid(_)));
    }

    #[test]
    fn shrinker_minimises_against_a_synthetic_oracle() {
        // Synthetic bug: the scenario "fails" iff it still contains a
        // storage fault. The shrinker should strip the other faults,
        // shrink the grid to the 2x2 floor, drop to one segment, and
        // truncate the deadline — without ever accepting a candidate that
        // lost the storage fault.
        let original = sample_scenario();
        let check = |sc: &FuzzScenario| {
            if sc
                .faults
                .iter()
                .any(|f| matches!(f, FaultSpec::StorageFaults { .. }))
            {
                Verdict::Fail(FuzzFailure {
                    kind: FailureKind::Invariant,
                    message: "synthetic".into(),
                })
            } else {
                Verdict::Pass
            }
        };
        let (shrunk, spent) = shrink(&original, FailureKind::Invariant, 256, check);
        assert_eq!(shrunk.faults.len(), 1, "only the culprit fault remains");
        assert!(matches!(shrunk.faults[0], FaultSpec::StorageFaults { .. }));
        assert_eq!((shrunk.rows, shrunk.cols), (2, 2));
        assert_eq!(shrunk.segments, 1);
        assert_eq!(
            shrunk.shards, 1,
            "repros shrink back to the sequential kernel"
        );
        assert!(shrunk.deadline <= SimTime::from_secs(700));
        assert!(shrunk.tie_seed.unwrap() < 4, "permutation re-seeded small");
        assert!(spent <= 256);
    }

    #[test]
    fn shrinker_rejects_wrong_kind_and_invalid_candidates() {
        let original = sample_scenario();
        // Every candidate "fails" with a different kind: nothing shrinks.
        let (same, _) = shrink(&original, FailureKind::Panic, 64, |_| {
            Verdict::Fail(FuzzFailure {
                kind: FailureKind::Liveness,
                message: "other".into(),
            })
        });
        assert_eq!(same, original);
        // Every candidate is invalid: nothing shrinks either.
        let (same, _) = shrink(&original, FailureKind::Panic, 64, |_| {
            Verdict::Invalid("nope".into())
        });
        assert_eq!(same, original);
    }

    #[test]
    fn shrinker_respects_its_budget() {
        let original = sample_scenario();
        let mut calls = 0u32;
        let (_, spent) = shrink(&original, FailureKind::Invariant, 2, |_| {
            calls += 1;
            Verdict::Fail(FuzzFailure {
                kind: FailureKind::Invariant,
                message: "always".into(),
            })
        });
        assert_eq!(calls, 2);
        assert_eq!(spent, 2);
    }

    #[test]
    fn generation_draws_both_static_and_mobile_scenarios() {
        let (mut still, mut moving) = (false, false);
        for i in 0..64 {
            match generate(13, i, false).mobility {
                None => still = true,
                Some(m) => {
                    moving = true;
                    assert!((5..=20).contains(&m.speed_tenths), "{m:?}");
                }
            }
            if still && moving {
                break;
            }
        }
        assert!(still && moving, "64 draws never mixed static and mobile");
        // Forcing mobile pins every draw.
        for i in 0..8 {
            assert!(generate_with(13, i, false, true).mobility.is_some());
        }
    }

    #[test]
    fn failure_kind_names_roundtrip() {
        for kind in FailureKind::ALL {
            assert_eq!(FailureKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(FailureKind::from_name("nonsense"), None);
    }
}
