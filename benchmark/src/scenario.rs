//! The six workloads, rebuilt from the stable lower surface of the program
//! (`TopologyBuilder`, `mobility::materialize`, `NetworkBuilder`,
//! `Protocol::{base_station,node}`, `run_until_all_complete`), and one *rep*:
//! build topology → build network → run to completion → collect → drop.
//!
//! Nothing here depends on `mnp-experiments`: ROADMAP item 2 rewrites that
//! harness and later changes may not edit the benchmark. The construction
//! mirrors `GridExperiment` / `MobileExperiment` step for step (same RNG
//! stream ids, same builder order), so a seed reproduces their runs event
//! for event.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use mnp::{Mnp, MnpConfig};
use mnp_baselines::{Rlnc, RlncConfig};
use mnp_net::{FaultPlan, LinkChange, NetworkBuilder, Protocol};
use mnp_obs::{InvariantMonitor, JsonlLogger, MetricsRegistry, Shared, TimeSeriesSampler};
use mnp_radio::{loss, LinkTable, NodeId, PowerLevel};
use mnp_sim::profile;
use mnp_sim::{SimDuration, SimRng, SimTime};
use mnp_storage::{ImageLayout, PacketStore, ProgramId, ProgramImage};
use mnp_topology::mobility::{materialize, Field, MobilityModel};
use mnp_topology::{GridSpec, Placement, TopologyBuilder};
use mnp_trace::MsgClass;

use crate::alloc;
use crate::host;
use crate::spans::{PhaseTable, SpanId, Trace};
use crate::stats::Fnv;

/// Every run's simulated deadline.
const DEADLINE: SimTime = SimTime::from_secs(4 * 3_600);

/// How far ahead mobile motion is resolved into scheduled link changes: at a
/// 10 s tick, about 330 000 `SetLink` events parked in the queue's far
/// buffer, rescanned every 64 ms of simulated time. (`MobileExperiment`
/// resolves the whole deadline: four times the events and a 4.5 s rep. A
/// 36-node network's statistics need sixteen seeds a run to hold still —
/// README, "Seeds" — and sixteen such reps would be 72 s.) Runs finish in
/// about a simulated minute.
const MOTION_HORIZON: SimDuration = SimDuration::from_secs(3_600);

/// Where the nodes are and whether they move.
#[derive(Clone, Copy, Debug)]
pub enum Topo {
    /// A `side × side` grid at the paper's 10 ft spacing, base at the corner.
    Grid {
        /// Nodes per row and column.
        side: usize,
    },
    /// `nodes` motes uniform in a `12·√nodes` ft square, random waypoint at
    /// 2 ft/s with 30 s pauses re-linked every 10 s over [`MOTION_HORIZON`],
    /// three churn crash–restarts drawn over the whole deadline.
    Mobile {
        /// Node count.
        nodes: usize,
    },
}

/// Which protocol disseminates the image.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Proto {
    /// `crates/core`.
    Mnp,
    /// `crates/baselines::coded`.
    Rlnc,
}

/// One named workload.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Node layout.
    pub topo: Topo,
    /// Protocol.
    pub proto: Proto,
    /// Image size in 128-packet segments.
    pub segments: u16,
    /// Also run the same inputs on the sharded kernel at S=2: as the
    /// warm-up of an end-to-end run, for the digest gate, and as measured
    /// S=1 / S=2 pairs per-layer.
    pub sharded_pair: bool,
    /// Attach JSONL logger, metrics registry, strict invariant monitor and
    /// a 500 ms time-series sampler.
    pub observed: bool,
    /// Measured reps of an end-to-end run at the default `--seconds 10`,
    /// each on a seed of its own (rep `k` runs `--seed + 1000·k`): about ten
    /// seconds' worth where a 36-node or 400-node network needs that many
    /// seeds for steady medians, the floor of five where a rep takes seconds.
    pub reps: usize,
}

impl Workload {
    /// Node count.
    pub fn nodes(&self) -> usize {
        match self.topo {
            Topo::Grid { side } => side * side,
            Topo::Mobile { nodes } => nodes,
        }
    }
}

/// The workload table. `quick` shrinks every workload to toy size for the
/// name-set test; those numbers mean nothing.
pub fn workloads(quick: bool) -> Vec<Workload> {
    let grid = |full: usize| Topo::Grid {
        side: if quick { 6 } else { full },
    };
    let base = Workload {
        name: "",
        topo: grid(20),
        proto: Proto::Mnp,
        segments: 1,
        sharded_pair: false,
        observed: false,
        reps: 5,
    };
    vec![
        Workload {
            name: "grid20",
            reps: 60,
            ..base
        },
        Workload {
            name: "grid80",
            topo: grid(80),
            ..base
        },
        Workload {
            name: "grid40-s2",
            topo: grid(40),
            sharded_pair: true,
            reps: 12,
            ..base
        },
        Workload {
            name: "rlnc24",
            topo: grid(24),
            proto: Proto::Rlnc,
            // GF(256) elimination is what an unoptimised test build is
            // slowest at; one segment keeps the toy run short.
            segments: if quick { 1 } else { 2 },
            ..base
        },
        Workload {
            name: "observed20",
            observed: true,
            reps: 15,
            ..base
        },
        Workload {
            name: "mobile36",
            topo: Topo::Mobile {
                nodes: if quick { 9 } else { 36 },
            },
            reps: 16,
            ..base
        },
    ]
}

/// Everything one rep measured.
#[derive(Clone, Debug, Default)]
pub struct Rep {
    /// Topology sampling + viability check + `NetworkBuilder::build`.
    pub setup_s: f64,
    /// The `topology.build` span (materialize included on mobile).
    pub topology_build_s: f64,
    /// The `topology.materialize` span (zero on grids).
    pub topology_materialize_s: f64,
    /// The `net.build` span.
    pub net_build_s: f64,
    /// The `net.run` span: `run_until_all_complete` only.
    pub wall_s: f64,
    /// The `net.finalize` span.
    pub net_finalize_s: f64,
    /// The `obs.dump` span.
    pub obs_dump_s: f64,
    /// The `net.drop` span.
    pub net_drop_s: f64,
    /// Max live heap over set-up + run, above what was live when the rep
    /// began (the benchmark's own records of earlier reps).
    pub peak_heap_bytes: u64,
    /// Allocation events during the run.
    pub run_allocs: u64,
    /// Bytes requested during the run.
    pub run_alloc_bytes: u64,
    /// Process user CPU seconds over the run.
    pub cpu_user_s: f64,
    /// Process system CPU seconds over the run.
    pub cpu_sys_s: f64,
    /// Whether every node completed before the deadline.
    pub completed: bool,
    /// Nodes that did not complete.
    pub incomplete: usize,
    /// Simulated completion time of the last node.
    pub sim_completion_s: f64,
    /// Mean per-node active radio time, simulated seconds.
    pub sim_art_mean_s: f64,
    /// Frames transmitted network-wide (the run trace's count).
    pub sim_msgs: u64,
    /// Kernel events processed.
    pub events: u64,
    /// Frames the medium put on the air.
    pub frames: u64,
    /// Frames delivered intact.
    pub frames_received: u64,
    /// Reception locks acquired.
    pub rx_locks: u64,
    /// Collision events.
    pub collisions: u64,
    /// Directed links in the (potential-edge) link table.
    pub links: u64,
    /// Scheduled link changes handed to the kernel.
    pub link_updates: u64,
    /// Code packets written to EEPROM, all nodes.
    pub eeprom_writes: u64,
    /// Whether the EEPROM counts satisfy write-once.
    pub write_once_ok: bool,
    /// Frames per message class: adv, req, data.
    pub msgs: [u64; 3],
    /// MNP download failures.
    pub fails: u64,
    /// MNP sleeps.
    pub sleeps: u64,
    /// RLNC innovative / redundant receptions and decodes.
    pub rlnc: [u64; 3],
    /// ObsEvents the JSONL logger saw (observed workloads).
    pub obs_events: u64,
    /// JSONL log size.
    pub jsonl_bytes: u64,
    /// Invariant checks evaluated.
    pub invariant_checks: u64,
    /// FNV-1a digest of the simulated outcome: per-node completion instant,
    /// frames sent and received, and the event count — or the JSONL bytes on
    /// an observed workload. Equal at every shard count.
    pub digest: u64,
    /// Per-node FNV-1a digest of the physical-layer readings (active radio
    /// time and the medium counters). Equal from rep to rep at one shard
    /// count; compared across shard counts only as a per-layer metric.
    pub meters: Vec<u64>,
    /// The profiler's phase table (traced reps).
    pub phases: Option<PhaseTable>,
}

/// Why a rep produced no result.
#[derive(Debug)]
pub enum RepError {
    /// The sampled topology has no usable path from the base to every node;
    /// the caller steps to the next seed.
    NotViable,
    /// The rep panicked (a strict invariant violation, a kernel assert).
    Panicked(String),
}

/// What the benchmark reads from a finished protocol instance.
trait BenchProtocol: Protocol {
    fn create(image: &ProgramImage, base: bool) -> Self;
    fn store(&self) -> &PacketStore;
    fn fold(&self, rep: &mut Rep);
}

impl BenchProtocol for Mnp {
    fn create(image: &ProgramImage, base: bool) -> Self {
        let cfg = MnpConfig::for_image(image);
        if base {
            Mnp::base_station(cfg, image)
        } else {
            Mnp::node(cfg)
        }
    }

    fn store(&self) -> &PacketStore {
        Mnp::store(self)
    }

    fn fold(&self, rep: &mut Rep) {
        rep.fails += self.stats.fails;
        rep.sleeps += self.stats.sleeps;
    }
}

impl BenchProtocol for Rlnc {
    fn create(image: &ProgramImage, base: bool) -> Self {
        let cfg = RlncConfig::for_image(image);
        if base {
            Rlnc::base_station(cfg, image)
        } else {
            Rlnc::node(cfg)
        }
    }

    fn store(&self) -> &PacketStore {
        Rlnc::store(self)
    }

    fn fold(&self, rep: &mut Rep) {
        rep.rlnc[0] += self.stats.innovative;
        rep.rlnc[1] += self.stats.redundant;
        rep.rlnc[2] += self.stats.decodes;
    }
}

/// Runs one rep of `w` at `seed` and `shards`, with the kernel profiler on
/// when `traced`. Spans go to `trace` under the id it currently carries.
pub fn run_rep(
    w: &Workload,
    seed: u64,
    shards: usize,
    traced: bool,
    trace: &mut Trace,
) -> Result<Rep, RepError> {
    let result = catch_unwind(AssertUnwindSafe(|| match w.proto {
        Proto::Mnp => rep::<Mnp>(w, seed, shards, traced, trace),
        Proto::Rlnc => rep::<Rlnc>(w, seed, shards, traced, trace),
    }));
    profile::set_enabled(false);
    result.unwrap_or_else(|payload| {
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("non-string panic payload");
        Err(RepError::Panicked(msg.to_string()))
    })
}

/// The sampled topology of one rep.
struct Sampled {
    links: LinkTable,
    schedule: Vec<LinkChange>,
    faults: Option<FaultPlan>,
    materialize_s: f64,
}

fn sample_topology(w: &Workload, seed: u64, trace: &mut Trace, parent: SpanId) -> Sampled {
    // The stream id every experiment in the repository derives its
    // topology RNG with.
    let mut topo_rng = SimRng::new(seed).derive(0xdead_beef);
    match w.topo {
        Topo::Grid { side } => {
            let grid = GridSpec::new(side, side, 10.0);
            let topo = TopologyBuilder::new(grid.placement())
                .power(PowerLevel::FULL)
                .build(&mut topo_rng);
            Sampled {
                links: topo.links,
                schedule: Vec::new(),
                faults: None,
                materialize_s: 0.0,
            }
        }
        Topo::Mobile { nodes } => {
            let side = (nodes as f64).sqrt() * 12.0;
            let initial = Placement::random(nodes, side, side, &mut topo_rng);
            let model = MobilityModel::RandomWaypoint {
                speed_ft_s: 2.0,
                pause_s: 30.0,
            };
            let plan = model.plan(
                &initial,
                Field::new(side, side),
                MOTION_HORIZON,
                SimDuration::from_secs(10),
                &topo_rng.derive(1),
            );
            let span = trace.open("topology.materialize", Some(parent));
            let mobile = materialize(&initial, &plan, PowerLevel::FULL, &mut topo_rng.derive(2));
            let materialize_s = trace.close(span);
            let schedule = mobile
                .updates
                .iter()
                .map(|u| LinkChange {
                    at: u.at,
                    from: u.from,
                    to: u.to,
                    ber: u.ber,
                })
                .collect();
            let candidates: Vec<NodeId> = (1..nodes).map(NodeId::from_index).collect();
            let faults = FaultPlan::seeded(seed).random_crash_restarts(
                3,
                &candidates,
                (SimTime::from_secs(30), DEADLINE),
                (SimDuration::from_secs(60), SimDuration::from_secs(600)),
            );
            Sampled {
                links: mobile.topology.links,
                schedule,
                faults: Some(faults),
                materialize_s,
            }
        }
    }
}

/// The observers of an observed workload, kept for post-run readback.
struct Observers {
    jsonl: Shared<JsonlLogger>,
    metrics: Shared<MetricsRegistry>,
    invariants: Shared<InvariantMonitor>,
    sampler: Shared<TimeSeriesSampler>,
}

fn rep<P: BenchProtocol>(
    w: &Workload,
    seed: u64,
    shards: usize,
    traced: bool,
    trace: &mut Trace,
) -> Result<Rep, RepError> {
    let mut out = Rep::default();
    let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(w.segments));
    let heap_baseline = alloc::reset_peak();
    let rep_span = trace.open("rep", None);

    let setup = Instant::now();
    let span = trace.open("topology.build", Some(rep_span));
    let sampled = sample_topology(w, seed, trace, span);
    let viable = sampled
        .links
        .reaches_all_usable(NodeId(0), loss::usable_ber_threshold());
    out.topology_build_s = trace.close(span);
    out.topology_materialize_s = sampled.materialize_s;
    if !viable {
        trace.close(rep_span);
        return Err(RepError::NotViable);
    }
    out.links = sampled.links.edge_count() as u64;
    out.link_updates = sampled.schedule.len() as u64;

    let span = trace.open("net.build", Some(rep_span));
    let mut builder = NetworkBuilder::new(sampled.links, seed)
        .shards(shards)
        .link_schedule(sampled.schedule);
    if let Some(plan) = sampled.faults {
        builder = builder.faults(plan);
    }
    let observers = w.observed.then(|| Observers {
        jsonl: Shared::new(JsonlLogger::new()),
        metrics: Shared::new(MetricsRegistry::new()),
        invariants: Shared::new(InvariantMonitor::new()),
        sampler: Shared::new(TimeSeriesSampler::new(SimDuration::from_millis(500), 4096)),
    });
    if let Some(o) = &observers {
        builder = builder
            .observer(o.jsonl.clone())
            .observer(o.metrics.clone())
            .observer(o.invariants.clone())
            .timeseries(o.sampler.clone());
    }
    let mut net = builder.build(|id, _| P::create(&image, id == NodeId(0)));
    out.net_build_s = trace.close(span);
    out.setup_s = setup.elapsed().as_secs_f64();

    let span = trace.open("net.run", Some(rep_span));
    let heap_before = alloc::heap();
    let cpu_before = host::cpu_times();
    if traced {
        profile::reset();
        profile::set_enabled(true);
    }
    let start = Instant::now();
    out.completed = net.run_until_all_complete(DEADLINE);
    out.wall_s = start.elapsed().as_secs_f64();
    if traced {
        profile::set_enabled(false);
        let phases = profile::snapshot();
        trace.attach_phases(span, phases);
        out.phases = Some(phases);
    }
    let cpu_after = host::cpu_times();
    let heap_after = alloc::heap();
    trace.close(span);
    out.peak_heap_bytes = heap_after.peak - heap_baseline;
    out.run_allocs = heap_after.count - heap_before.count;
    out.run_alloc_bytes = heap_after.bytes - heap_before.bytes;
    out.cpu_user_s = cpu_after.0 - cpu_before.0;
    out.cpu_sys_s = cpu_after.1 - cpu_before.1;

    let span = trace.open("net.finalize", Some(rep_span));
    let completion = net.trace().completion_time().unwrap_or_else(|| net.now());
    net.finalize_meters(completion);
    let n = net.len();
    let mut digest = Fnv::new();
    let mut art_us = 0u64;
    let mut packets_written = 0u64;
    let mut line_writes = 0u64;
    for i in 0..n {
        let node = NodeId::from_index(i);
        let summary = *net.trace().node(node);
        digest.u64(summary.completion.map_or(u64::MAX, |t| t.as_micros()));
        digest.u64(summary.sent);
        digest.u64(summary.received);
        art_us += summary.active_radio.as_micros();
        out.sim_msgs += summary.sent;
        let stats = net.medium_stats(node);
        let mut meter = Fnv::new();
        meter.u64(summary.active_radio.as_micros());
        for (_, counter) in stats.fields() {
            meter.u64(counter);
        }
        out.meters.push(meter.finish());
        out.frames += stats.frames_sent;
        out.frames_received += stats.frames_received;
        out.rx_locks += stats.rx_locks;
        out.collisions += stats.collisions;
        let p = net.protocol(node);
        p.fold(&mut out);
        if i != 0 {
            packets_written += u64::from(p.store().packets_received());
        }
        line_writes += p.eeprom_ops().line_writes;
    }
    digest.u64(net.events_processed());
    out.digest = digest.finish();
    out.incomplete = net.trace().incomplete();
    out.sim_completion_s = completion.as_secs_f64();
    out.sim_art_mean_s = art_us as f64 / 1e6 / n as f64;
    out.events = net.events_processed();
    out.eeprom_writes = packets_written;
    // Write-once: a completed receiver holds every packet exactly once, and
    // the line writes billed to the energy meters are exactly those packets'
    // lines — a second write of any packet would show in the second sum.
    let layout = image.layout();
    let lines_per_image: u64 = (0..layout.segment_count())
        .flat_map(|s| (0..layout.packets_in_segment(s)).map(move |p| (s, p)))
        .map(|(s, p)| {
            image
                .packet_payload(s, p)
                .len()
                .div_ceil(mnp_storage::EEPROM_LINE_BYTES) as u64
        })
        .sum();
    let receivers = (n - 1) as u64;
    out.write_once_ok = !out.completed
        || (packets_written == u64::from(layout.total_packets()) * receivers
            && line_writes == lines_per_image * receivers);
    let classes = [MsgClass::Advertisement, MsgClass::Request, MsgClass::Data];
    out.msgs = classes.map(|c| net.trace().windows().total(c));
    out.net_finalize_s = trace.close(span);

    let span = trace.open("obs.dump", Some(rep_span));
    if let Some(o) = &observers {
        let jsonl = o.jsonl.borrow();
        let mut digest = Fnv::new();
        digest.bytes(jsonl.as_str().as_bytes());
        out.digest = digest.finish();
        out.obs_events = jsonl.events();
        out.jsonl_bytes = jsonl.as_str().len() as u64;
        out.invariant_checks = o.invariants.borrow().checks();
        std::hint::black_box(o.metrics.borrow().dump_json());
        std::hint::black_box(o.sampler.borrow().dump_jsonl());
    }
    out.obs_dump_s = trace.close(span);

    let span = trace.open("net.drop", Some(rep_span));
    drop(net);
    drop(observers);
    out.net_drop_s = trace.close(span);
    trace.close(rep_span);
    Ok(out)
}
