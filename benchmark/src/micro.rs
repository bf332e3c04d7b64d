//! Micro-drivers: loops that call one layer's public functions and nothing
//! else, so a layer's own cost can be read apart from the run it sits in.
//!
//! Each driver repeats a fixed batch until its time budget is spent and
//! reports the median batch, per operation. Inputs derive from the seed.

use std::hint::black_box;
use std::time::{Duration, Instant};

use mnp::{Mnp, MnpConfig};
use mnp_baselines::coded::decoder::{derive_coeffs, encode};
use mnp_baselines::coded::{gf256, GenDecoder};
use mnp_net::NetworkBuilder;
use mnp_obs::{
    InvariantMonitor, JsonlLogger, MetricsRegistry, ObsEvent, Observer, TimelineExporter,
};
use mnp_radio::{
    loss, CsmaAction, CsmaBank, CsmaConfig, Frame, Medium, NodeId, TxOutcome, MAX_PAYLOAD_BYTES,
    PERCEPTION_LATENCY,
};
use mnp_sim::{EventQueue, SimDuration, SimRng, SimTime};
use mnp_storage::{ImageLayout, ProgramId, ProgramImage};
use mnp_topology::{GridSpec, TopologyBuilder};
use mnp_trace::RunTrace;

use crate::alloc;
use crate::stats::median;

/// Sizes and budgets; `quick` is the toy setting of the name-set test.
#[derive(Clone, Copy, Debug)]
pub struct MicroConfig {
    /// Time budget of each driver.
    pub budget: Duration,
    /// Entries parked beyond the horizon in the far-queue driver.
    pub far_entries: usize,
    /// Side of the large medium grid (the small one is 20, or 6 when quick).
    pub big_grid: usize,
    /// Side of the small medium grid.
    pub small_grid: usize,
    /// Side of the grid whose event stream the observer drivers replay.
    pub replay_grid: usize,
}

impl MicroConfig {
    /// The measuring configuration, or the toy one.
    pub fn new(quick: bool) -> Self {
        if quick {
            MicroConfig {
                budget: Duration::from_millis(5),
                far_entries: 10_000,
                big_grid: 8,
                small_grid: 6,
                replay_grid: 5,
            }
        } else {
            MicroConfig {
                budget: Duration::from_millis(150),
                far_entries: 1_000_000,
                big_grid: 80,
                small_grid: 20,
                replay_grid: 10,
            }
        }
    }
}

/// Runs `batch` (which performs `ops` operations) until `budget` is spent,
/// at least three times, and returns the median batch's nanoseconds per
/// operation.
fn ns_per_op(budget: Duration, ops: u64, mut batch: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 3 || start.elapsed() < budget {
        let t = Instant::now();
        batch();
        samples.push(t.elapsed().as_nanos() as f64 / ops as f64);
    }
    median(&samples)
}

/// `sim`: the classic hold model on `EventQueue` — pop the earliest event,
/// push one back a uniform [0, 2 s) later — at a steady `depth`, with
/// `far` more entries parked over an hour ahead (the shape a mobile run's
/// pre-scheduled link changes give the queue).
pub fn queue_hold_ns(cfg: &MicroConfig, seed: u64, depth: usize, far: usize) -> f64 {
    const SPREAD_US: u64 = 2_000_000;
    let mut rng = SimRng::new(seed).derive(0x9e0e);
    let mut q: EventQueue<[u64; 3]> = EventQueue::new();
    for i in 0..depth {
        let at = SimTime::from_micros(rng.range_u64(0, SPREAD_US));
        q.push_owned(at, (i % 4096) as u32, (i / 4096) as u32, [i as u64; 3]);
    }
    for i in 0..far {
        let at = SimTime::from_secs(3_600)
            + SimDuration::from_micros(rng.range_u64(0, 4 * 3_600_000_000));
        q.push_owned(
            at,
            4096 + (i % 4096) as u32,
            (i / 4096) as u32,
            [i as u64; 3],
        );
    }
    let mut seq = 1u32 << 20;
    // Far-buffer rescans make an operation hundreds of times dearer; keep
    // the batch short enough to fit several in the budget.
    let ops = if far > 0 { 256 } else { 16_384 };
    ns_per_op(cfg.budget, ops, || {
        for _ in 0..ops {
            let (t, ev) = q.pop().expect("steady depth");
            let at = t + SimDuration::from_micros(rng.range_u64(0, SPREAD_US));
            q.push_owned(at, (ev[0] % 4096) as u32, seq, ev);
            seq = seq.wrapping_add(1);
        }
    })
}

/// What the medium driver measured.
#[derive(Clone, Copy, Debug)]
pub struct MediumRound {
    /// One full transmission lifecycle, every receiver resolved.
    pub round_ns: f64,
    /// One `Medium::set_link_ber`, issued between rounds.
    pub set_link_ber_ns: f64,
    /// Heap allocations across 4096 rounds after warm-up.
    pub allocs: u64,
}

/// `radio`: round-robin broadcasts on a sampled `side × side` grid through
/// the whole lifecycle (begin → rx_start → end → rx_end_into → release),
/// with a burst of `set_link_ber` calls every 8 rounds so link-table writes
/// land beside the reads, as they do under mobility.
pub fn medium_round(cfg: &MicroConfig, seed: u64, side: usize) -> MediumRound {
    let grid = GridSpec::new(side, side, 10.0);
    let n = grid.len();
    let mut rng = SimRng::new(seed).derive(0x3ed1);
    let topo = TopologyBuilder::new(grid.placement()).build(&mut rng);
    // Up to 64 edges out of each of the first nodes, toggled between their
    // sampled rate and a nearby one.
    let edges: Vec<(NodeId, NodeId, f64)> = (0..n.min(64))
        .filter_map(|i| {
            let from = NodeId::from_index(i);
            topo.links
                .neighbors(from)
                .next()
                .map(|(to, ber)| (from, to, ber))
        })
        .collect();
    let mut medium: Medium<[u8; MAX_PAYLOAD_BYTES]> = Medium::new(topo.links, rng.derive(1));
    for i in 0..n {
        medium.set_radio(NodeId::from_index(i), true, SimTime::ZERO);
    }
    // Reserved to the hard upper bound so a late doubling cannot read as a
    // hot-path allocation.
    let mut scratch = TxOutcome::new();
    scratch.delivered.reserve(n);
    scratch.corrupted.reserve(n);
    scratch.missed.reserve(n);
    let mut now = SimTime::ZERO;
    let mut next = 0usize;
    let mut round = |medium: &mut Medium<[u8; MAX_PAYLOAD_BYTES]>| {
        let src = NodeId::from_index(next);
        next = (next + 1) % n;
        let frame = Frame::new(src, MAX_PAYLOAD_BYTES, [0u8; MAX_PAYLOAD_BYTES]);
        let start = medium
            .begin_transmission(src, frame, now)
            .expect("round-robin transmitter is idle");
        medium.rx_start(start.id, now + PERCEPTION_LATENCY);
        medium.end_transmission(start.id);
        now += start.airtime + PERCEPTION_LATENCY;
        medium.rx_end_into(start.id, now, &mut scratch);
        let payload = scratch.payload.take().expect("frame carried a payload");
        black_box(medium.release_payload(payload));
        scratch.clear();
    };
    // One full cycle fills every pool to its high-water mark.
    for _ in 0..n.max(512) {
        round(&mut medium);
    }
    let allocs_before = alloc::heap().count;
    for _ in 0..4096 {
        round(&mut medium);
    }
    let allocs = alloc::heap().count - allocs_before;
    const ROUNDS: u64 = 8;
    let round_ns = ns_per_op(cfg.budget, ROUNDS * 64, || {
        for _ in 0..ROUNDS * 64 {
            round(&mut medium);
        }
    });
    let mut flip = false;
    let mut set_samples = Vec::new();
    let start = Instant::now();
    while set_samples.len() < 3 || start.elapsed() < cfg.budget {
        for _ in 0..ROUNDS {
            round(&mut medium);
        }
        flip = !flip;
        let t = Instant::now();
        for &(from, to, ber) in &edges {
            let ber = if flip { (ber * 1.5).min(1.0) } else { ber };
            medium.set_link_ber(from, to, ber);
        }
        set_samples.push(t.elapsed().as_nanos() as f64 / edges.len() as f64);
    }
    MediumRound {
        round_ns,
        set_link_ber_ns: median(&set_samples),
        allocs,
    }
}

/// `radio`: one CSMA cycle (enqueue → attempt on a clear channel → tx_done)
/// per node, round-robin over a 400-node bank.
pub fn csma_cycle_ns(cfg: &MicroConfig, seed: u64) -> f64 {
    const NODES: usize = 400;
    let mut bank: CsmaBank<[u8; MAX_PAYLOAD_BYTES]> = CsmaBank::new(CsmaConfig::default(), NODES);
    let mut rng = SimRng::new(seed).derive(0xc53a);
    ns_per_op(cfg.budget, 16 * NODES as u64, || {
        for _ in 0..16 {
            for node in 0..NODES {
                let frame = Frame::new(
                    NodeId::from_index(node),
                    MAX_PAYLOAD_BYTES,
                    [0u8; MAX_PAYLOAD_BYTES],
                );
                let queued = bank.enqueue(node, frame, &mut rng);
                debug_assert!(matches!(queued, CsmaAction::Backoff(_)));
                black_box(bank.attempt(node, false, &mut rng));
                black_box(bank.tx_done(node, &mut rng));
            }
        }
    })
}

/// A benchmark-side observer that keeps the event stream.
#[derive(Debug, Default)]
struct Recorder(Vec<ObsEvent>);

impl Observer for Recorder {
    fn on_event(&mut self, ev: &ObsEvent) {
        self.0.push(*ev);
    }
}

/// Per-event cost of each observer fed alone.
#[derive(Clone, Copy, Debug)]
pub struct ObserverReplay {
    /// `JsonlLogger`.
    pub jsonl_ns: f64,
    /// Log bytes the logger wrote per event.
    pub jsonl_bytes_per_event: f64,
    /// `MetricsRegistry`.
    pub metrics_ns: f64,
    /// Strict `InvariantMonitor`.
    pub invariants_ns: f64,
    /// `TimelineExporter`.
    pub timeline_ns: f64,
    /// `RunTrace` (`crates/trace`), the observer every run carries.
    pub runtrace_ns: f64,
}

/// `obs` / `trace`: records the ObsEvent stream of a small MNP run with a
/// benchmark-side observer, then replays it into each observer alone.
pub fn observer_replay(cfg: &MicroConfig, seed: u64) -> ObserverReplay {
    let side = cfg.replay_grid;
    let grid = GridSpec::new(side, side, 10.0);
    let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(1));
    // Walk to a viable seed, as the workloads do.
    let links = (seed..)
        .find_map(|s| {
            let mut rng = SimRng::new(s).derive(0xdead_beef);
            let links = TopologyBuilder::new(grid.placement()).build(&mut rng).links;
            links
                .reaches_all_usable(NodeId(0), loss::usable_ber_threshold())
                .then_some(links)
        })
        .expect("some seed samples a connected small grid");
    let recorder = mnp_obs::Shared::new(Recorder::default());
    let mut net = NetworkBuilder::new(links, seed)
        .observer(recorder.clone())
        .build(|id, _| {
            let cfg = MnpConfig::for_image(&image);
            if id == NodeId(0) {
                Mnp::base_station(cfg, &image)
            } else {
                Mnp::node(cfg)
            }
        });
    net.run_until_all_complete(SimTime::from_secs(4 * 3_600));
    drop(net);
    let events = std::mem::take(&mut recorder.borrow_mut().0);
    assert!(!events.is_empty(), "the recorded run emitted events");
    let count = events.len() as u64;
    let n = grid.len();

    let mut jsonl_bytes = 0usize;
    let jsonl_ns = ns_per_op(cfg.budget, count, || {
        let mut obs = JsonlLogger::new();
        for ev in &events {
            obs.on_event(ev);
        }
        jsonl_bytes = obs.as_str().len();
    });
    fn replay<O: Observer>(
        budget: Duration,
        events: &[ObsEvent],
        mut fresh: impl FnMut() -> O,
    ) -> f64 {
        ns_per_op(budget, events.len() as u64, || {
            let mut obs = fresh();
            for ev in events {
                obs.on_event(ev);
            }
            black_box(&obs);
        })
    }
    ObserverReplay {
        jsonl_ns,
        jsonl_bytes_per_event: jsonl_bytes as f64 / count as f64,
        metrics_ns: replay(cfg.budget, &events, MetricsRegistry::new),
        invariants_ns: replay(cfg.budget, &events, InvariantMonitor::new),
        timeline_ns: replay(cfg.budget, &events, TimelineExporter::new),
        runtrace_ns: replay(cfg.budget, &events, || RunTrace::new(n)),
    }
}

/// `baselines`: absorbs coded packets of a 128-packet generation at the
/// paper's payload width into a fresh `GenDecoder` until full rank; per
/// absorb.
pub fn decoder_absorb_ns(cfg: &MicroConfig, seed: u64) -> f64 {
    const GEN: usize = 128;
    let layout = ImageLayout::paper_default(1);
    let width = layout.payload_bytes();
    let mut rng = SimRng::new(seed).derive(0xdec0);
    let sources: Vec<Vec<u8>> = (0..GEN)
        .map(|_| (0..width).map(|_| rng.next_u64() as u8).collect())
        .collect();
    // More than a generation's worth, so the rare dependent draw cannot
    // starve the decoder.
    let coded: Vec<(Vec<u8>, Vec<u8>)> = (0..GEN as u32 + 32)
        .map(|i| {
            let coeffs = derive_coeffs(0, rng.next_u32() ^ i, GEN);
            let payload = encode(&coeffs, &sources, width);
            (coeffs, payload)
        })
        .collect();
    let start = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || start.elapsed() < cfg.budget {
        let mut decoder = GenDecoder::new(GEN, width);
        let t = Instant::now();
        let mut used = 0u64;
        for (coeffs, payload) in &coded {
            if decoder.is_full() {
                break;
            }
            black_box(decoder.absorb(coeffs, payload));
            used += 1;
        }
        let ns = t.elapsed().as_nanos() as f64;
        assert!(
            decoder.is_full(),
            "160 random combinations span 128 packets"
        );
        samples.push(ns / used as f64);
    }
    median(&samples)
}

/// `baselines`: `gf256::mul_add_assign` over 1 KiB rows, per KiB.
pub fn gf256_mul_add_ns_per_kb(cfg: &MicroConfig, seed: u64) -> f64 {
    let mut rng = SimRng::new(seed).derive(0x6f25);
    let src: Vec<u8> = (0..1024).map(|_| rng.next_u64() as u8).collect();
    let mut dst = vec![0u8; 1024];
    ns_per_op(cfg.budget, 254, || {
        // Every multiplier that takes the table path (0 and 1 shortcut).
        for c in 2..=255u8 {
            gf256::mul_add_assign(&mut dst, black_box(&src), c);
        }
        black_box(&mut dst);
    })
}

/// `baselines`: expanding one seed-compressed header into 128 coefficients.
pub fn derive_coeffs_ns(cfg: &MicroConfig, seed: u64) -> f64 {
    let base = SimRng::new(seed).derive(0xc0ef).next_u32();
    ns_per_op(cfg.budget, 1024, || {
        for i in 0..1024u32 {
            black_box(derive_coeffs(1, base.wrapping_add(i), 128));
        }
    })
}
