//! Turning geometry into a lossy link graph.

use std::collections::VecDeque;
use std::thread::ScopedJoinHandle;

use mnp_radio::{loss, LinkTable, NodeId, PowerLevel};
use mnp_sim::SimRng;

use crate::placement::{Placement, Position};

/// A fully generated topology: positions plus the sampled link graph.
#[derive(Clone, Debug)]
pub struct Topology {
    /// Node positions.
    pub placement: Placement,
    /// Sampled directed lossy links.
    pub links: LinkTable,
    /// Per-node transmission power used during sampling.
    pub power: Vec<PowerLevel>,
}

/// Builds a [`Topology`] from a [`Placement`] and power settings.
///
/// Every directed edge is sampled independently from the distance-based
/// loss model (see [`mnp_radio::loss`]), so links are asymmetric and two
/// same-distance links differ — the properties MNP's evaluation environment
/// (TOSSIM) provides.
///
/// The per-node power override exists for the paper's §6 extension, where a
/// node with a low battery "advertises with lower power level" to shrink
/// its follower set.
///
/// # Example
///
/// ```
/// use mnp_radio::PowerLevel;
/// use mnp_sim::SimRng;
/// use mnp_topology::{GridSpec, TopologyBuilder};
///
/// let topo = TopologyBuilder::new(GridSpec::new(3, 3, 10.0).placement())
///     .power(PowerLevel::FULL)
///     .build(&mut SimRng::new(5));
/// assert!(topo.links.edge_count() > 0);
/// ```
#[derive(Clone, Debug)]
pub struct TopologyBuilder {
    placement: Placement,
    default_power: PowerLevel,
    overrides: Vec<(NodeId, PowerLevel)>,
}

impl TopologyBuilder {
    /// Starts a builder over `placement` at full power.
    pub fn new(placement: Placement) -> Self {
        TopologyBuilder {
            placement,
            default_power: PowerLevel::FULL,
            overrides: Vec::new(),
        }
    }

    /// Sets the transmission power used by every node.
    pub fn power(mut self, power: PowerLevel) -> Self {
        self.default_power = power;
        self
    }

    /// Overrides the transmission power of one node (battery-aware
    /// extension, §6).
    pub fn node_power(mut self, node: NodeId, power: PowerLevel) -> Self {
        self.overrides.push((node, power));
        self
    }

    /// Samples the link graph.
    ///
    /// The result is a pure function of placement, power, and the RNG
    /// state: exactly what [`loss::sample_edge_ber`] called on every
    /// ordered pair in `(from, to)` ID order returns, with the stream left
    /// where those calls leave it. Every row takes
    /// `EDGE_DRAWS · (n − 1)` draws ([`loss::EDGE_DRAWS`]), so row `from`
    /// starts at draw `EDGE_DRAWS · (n − 1) · from` whatever came before
    /// it: blocks of 64 rows are sampled apart, each from a copy of `rng`
    /// jumped to its first row, on every core the host offers once there
    /// are 1 024 nodes.
    pub fn build(self, rng: &mut SimRng) -> Topology {
        let workers = if self.placement.len() < PARALLEL_MIN_NODES {
            1
        } else {
            std::thread::available_parallelism().map_or(1, usize::from)
        };
        self.build_on(rng, workers)
    }

    /// [`build`](Self::build) on `workers` threads, the caller included
    /// (at least one, at most one per chunk).
    pub(crate) fn build_on(self, rng: &mut SimRng, workers: usize) -> Topology {
        let n = self.placement.len();
        let mut power = vec![self.default_power; n];
        for (node, p) in &self.overrides {
            power[node.index()] = *p;
        }
        let positions = self.placement.positions();
        let boxes: Vec<Bounds> = positions.chunks(BLOCK).map(Bounds::of).collect();
        let rows = Rows {
            positions,
            boxes: &boxes,
            power: &power,
            start: rng,
        };
        let chunks = n.div_ceil(CHUNK_ROWS);
        let workers = workers.clamp(1, chunks.max(1));
        let links = std::thread::scope(|scope| {
            let rows = &rows;
            // Rounds of `workers` chunks: the caller samples the first
            // chunk of a round after spawning one helper thread for each
            // of the others, then joins those in row order. At most one
            // round is in flight, whatever `n` is. A join waits for the
            // thread's exit, so nothing a helper allocated outlives its
            // chunk (a channel's first blocking receive would leave a
            // context allocated on the caller's thread for good), and a
            // helper's panic reaches the caller as it was.
            let mut round: VecDeque<ScopedJoinHandle<Chunk>> = VecDeque::new();
            let mut chunk = Chunk::default();
            LinkTable::from_rows(n, |from, row| {
                let (c, r) = (from.index() / CHUNK_ROWS, from.index() % CHUNK_ROWS);
                if r == 0 {
                    chunk = match round.pop_front() {
                        Some(helper) => helper
                            .join()
                            .unwrap_or_else(|panic| std::panic::resume_unwind(panic)),
                        None => {
                            let helpers = c + 1..(c + workers).min(chunks);
                            round.extend(helpers.map(|h| scope.spawn(move || rows.chunk(h))));
                            rows.chunk(c)
                        }
                    };
                }
                row.extend_from_slice(chunk.row(r));
            })
        });
        let pairs = n as u64 * n.saturating_sub(1) as u64;
        rng.skip(loss::EDGE_DRAWS * pairs);
        Topology {
            placement: self.placement,
            links,
            power,
        }
    }
}

/// Consecutive rows sampled as one unit, from one stream position, on one
/// thread.
const CHUNK_ROWS: usize = 64;

/// The least node count sampled on more than one thread. Below it a build
/// takes a few milliseconds and a helper thread costs more than it saves:
/// the paper's 400-node grid samples on the caller alone.
const PARALLEL_MIN_NODES: usize = 1024;

/// What every chunk of a build reads.
struct Rows<'a> {
    positions: &'a [Position],
    boxes: &'a [Bounds],
    power: &'a [PowerLevel],
    /// The caller's stream, at draw 0 of row 0.
    start: &'a SimRng,
}

/// The edges of [`CHUNK_ROWS`] consecutive rows, back to back.
#[derive(Default)]
struct Chunk {
    edges: Vec<(NodeId, f64)>,
    /// The end of each row in `edges`.
    ends: Vec<usize>,
}

impl Chunk {
    /// The edges of the chunk's row `r`.
    fn row(&self, r: usize) -> &[(NodeId, f64)] {
        let start = r.checked_sub(1).map_or(0, |p| self.ends[p]);
        &self.edges[start..self.ends[r]]
    }
}

impl Rows<'_> {
    /// Samples chunk `c` from a copy of the stream jumped to its first row.
    fn chunk(&self, c: usize) -> Chunk {
        let n = self.positions.len();
        let first = c * CHUNK_ROWS;
        let mut rng = self.start.clone();
        rng.skip(loss::EDGE_DRAWS * (n as u64 - 1) * first as u64);
        let mut owed = 0;
        let mut chunk = Chunk::default();
        for from in first..(first + CHUNK_ROWS).min(n) {
            let range = self.power[from].range_ft();
            sample_row(
                self.positions,
                self.boxes,
                from,
                range,
                &mut rng,
                &mut owed,
                &mut chunk.edges,
            );
            chunk.ends.push(chunk.edges.len());
        }
        chunk
    }
}

/// Relative slack on [`loss::reach_ft`] when a pair is decided from its
/// squared distance: far above the rounding of the root the sampler
/// would have taken, so a pair skipped here is one it rejects too.
const REACH_SLACK: f64 = 1e-6;

/// The squared distance beyond which [`sample_row`] skips a pair.
fn skip_beyond_sq(range_ft: f64) -> f64 {
    let reach = loss::reach_ft(range_ft) * (1.0 + REACH_SLACK);
    reach * reach
}

/// Consecutive node IDs per [`Bounds`] box.
const BLOCK: usize = 32;

/// The bounding box of a block of [`BLOCK`] consecutive nodes: a row whose
/// reach falls short of the box skips the whole block without looking at
/// its nodes.
#[derive(Clone, Copy, Debug)]
struct Bounds {
    /// Least `[x, y]` in feet.
    lo: [f64; 2],
    /// Greatest `[x, y]` in feet.
    hi: [f64; 2],
}

impl Bounds {
    /// The box around `block`; unbounded if a coordinate is not finite,
    /// so such a block is never skipped whole.
    fn of(block: &[Position]) -> Bounds {
        let mut b = Bounds {
            lo: [f64::INFINITY; 2],
            hi: [f64::NEG_INFINITY; 2],
        };
        for p in block {
            let xy = [p.x_ft, p.y_ft];
            if !xy.iter().all(|v| v.is_finite()) {
                return Bounds {
                    lo: [f64::NEG_INFINITY; 2],
                    hi: [f64::INFINITY; 2],
                };
            }
            for ((lo, hi), v) in b.lo.iter_mut().zip(&mut b.hi).zip(xy) {
                *lo = lo.min(v);
                *hi = hi.max(v);
            }
        }
        b
    }

    /// At most `at.distance_sq_ft(p)` for every `p` in the box: the same
    /// float operations on the box's nearest coordinates, and rounding is
    /// monotone.
    fn distance_sq_below(&self, at: Position) -> f64 {
        let gap = |i: usize, a: f64| {
            if a < self.lo[i] {
                self.lo[i] - a
            } else if a > self.hi[i] {
                a - self.hi[i]
            } else {
                0.0
            }
        };
        let (dx, dy) = (gap(0, at.x_ft), gap(1, at.y_ft));
        dx * dx + dy * dy
    }
}

/// Samples every edge out of `from`, whose transmitter has nominal range
/// `range_ft`, onto `row` in `to` order; `boxes` bound the [`BLOCK`]s of
/// `positions`.
///
/// A pair beyond the sampler's reach is inaudible whatever its draws, so
/// it only adds its [`loss::EDGE_DRAWS`] to `owed`. The debt is paid with
/// one [`SimRng::skip`] before the next pair that samples (a debt left
/// after a chunk's last row is never paid: the chunk's stream is dropped),
/// which puts every draw where the pair-by-pair loop put it.
fn sample_row(
    positions: &[Position],
    boxes: &[Bounds],
    from: usize,
    range_ft: f64,
    rng: &mut SimRng,
    owed: &mut u64,
    row: &mut Vec<(NodeId, f64)>,
) {
    // The sampler's own check, made once per row: a skipped pair never
    // reaches it.
    assert!(range_ft > 0.0, "bad geometry");
    let reach_sq = skip_beyond_sq(range_ft);
    let at = positions[from];
    for (k, (block, bounds)) in positions.chunks(BLOCK).zip(boxes).enumerate() {
        // `from`'s own block is never skipped: its box is at distance 0.
        if bounds.distance_sq_below(at) > reach_sq {
            *owed += loss::EDGE_DRAWS * block.len() as u64;
            continue;
        }
        for (to, &other) in (k * BLOCK..).zip(block) {
            if to == from {
                continue;
            }
            let d_sq = at.distance_sq_ft(other);
            if d_sq > reach_sq {
                *owed += loss::EDGE_DRAWS;
                continue;
            }
            rng.skip(std::mem::take(owed));
            if let Some(ber) = loss::sample_edge_ber(d_sq.sqrt(), range_ft, rng) {
                row.push((NodeId::from_index(to), ber));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::GridSpec;
    use mnp_radio::loss::frame_success_probability;

    #[test]
    fn full_power_small_grid_is_a_clique() {
        // 3×3 at 10 ft, full power (150 ft range): everyone hears everyone.
        let topo =
            TopologyBuilder::new(GridSpec::new(3, 3, 10.0).placement()).build(&mut SimRng::new(1));
        assert_eq!(topo.links.edge_count(), 9 * 8);
    }

    #[test]
    fn low_power_forces_multihop() {
        // 5×5 at 3 ft, power 3 (~5.4 ft range): corner cannot hear the
        // opposite corner, but the graph stays connected.
        let grid = GridSpec::new(5, 5, 3.0);
        let topo = TopologyBuilder::new(grid.placement())
            .power(PowerLevel::new(3))
            .build(&mut SimRng::new(2));
        assert!(topo
            .links
            .ber(grid.node_at(0, 0), grid.node_at(4, 4))
            .is_none());
        assert!(topo.links.reaches_all(grid.corner()));
    }

    #[test]
    fn twenty_by_twenty_is_multihop_and_connected() {
        let grid = GridSpec::new(20, 20, 10.0);
        let topo = TopologyBuilder::new(grid.placement()).build(&mut SimRng::new(3));
        assert!(topo.links.reaches_all(grid.corner()));
        // The far corner (269 ft away) must be out of direct range.
        assert!(topo
            .links
            .ber(grid.node_at(0, 0), grid.node_at(19, 19))
            .is_none());
        // Centre nodes hear more transmitters than corner nodes (the paper's
        // reception-distribution observation).
        let audible_at = |to: NodeId| {
            grid.nodes()
                .filter(|&a| topo.links.ber(a, to).is_some())
                .count()
        };
        assert!(audible_at(grid.node_at(10, 10)) > audible_at(grid.node_at(0, 0)));
    }

    #[test]
    fn nearby_links_are_reliable() {
        let grid = GridSpec::new(2, 2, 10.0);
        let topo = TopologyBuilder::new(grid.placement()).build(&mut SimRng::new(4));
        let ber = topo
            .links
            .ber(grid.node_at(0, 0), grid.node_at(0, 1))
            .unwrap();
        assert!(frame_success_probability(ber, 376) > 0.9);
    }

    #[test]
    fn per_node_power_override_shrinks_neighborhood() {
        let grid = GridSpec::new(5, 5, 10.0);
        let weak = grid.node_at(2, 2);
        // Build many sampled topologies and compare average out-degree.
        let (mut weak_deg, mut full_deg) = (0usize, 0usize);
        for seed in 0..20 {
            let t1 = TopologyBuilder::new(grid.placement())
                .node_power(weak, PowerLevel::new(2))
                .build(&mut SimRng::new(seed));
            let t2 = TopologyBuilder::new(grid.placement()).build(&mut SimRng::new(seed));
            weak_deg += t1.links.neighbors(weak).count();
            full_deg += t2.links.neighbors(weak).count();
        }
        assert!(
            weak_deg < full_deg / 2,
            "low power should shrink reach: {weak_deg} vs {full_deg}"
        );
    }

    #[test]
    fn link_table_digest_is_frozen() {
        // FNV-1a 64 over `(from, to, ber.to_bits())` of every edge of a
        // 30×30 grid at seed 42. The value was recorded before the
        // audibility prefilter went into `loss::sample_edge_ber`: any
        // change to the sampler that moves one link or one BER bit fails
        // here.
        let grid = GridSpec::new(30, 30, 10.0);
        let topo = TopologyBuilder::new(grid.placement()).build(&mut SimRng::new(42));
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for (from, _) in topo.placement.iter() {
            for (to, ber) in topo.links.neighbors(from) {
                let record = [u64::from(from.0), u64::from(to.0), ber.to_bits()];
                for byte in record.iter().flat_map(|w| w.to_le_bytes()) {
                    h = (h ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
                }
            }
        }
        assert_eq!(topo.links.edge_count(), 60_337);
        assert_eq!(h, 0xf1ac_20f3_1cee_3568);
    }

    #[test]
    #[should_panic(expected = "bad geometry")]
    fn zero_range_row_still_rejected() {
        // Both pairs lie beyond a zero reach, so neither would reach the
        // sampler's own check.
        let positions = [Position::new(0.0, 0.0), Position::new(500.0, 0.0)];
        let boxes = [Bounds::of(&positions)];
        let mut owed = 0;
        let rng = &mut SimRng::new(1);
        sample_row(&positions, &boxes, 0, 0.0, rng, &mut owed, &mut Vec::new());
    }

    #[test]
    fn skipped_pairs_are_beyond_the_samplers_reach() {
        // Walk the squared distance up from the skip bound ulp by ulp: the
        // distance the sampler would see must already be past its reach.
        for level in 1..=255 {
            let range = PowerLevel::new(level).range_ft();
            let bound = skip_beyond_sq(range);
            for k in 1..=64 {
                let d_sq = f64::from_bits(bound.to_bits() + k);
                assert!(d_sq.sqrt() > loss::reach_ft(range), "power {level}");
            }
        }
    }

    #[test]
    fn a_box_is_never_farther_than_its_nearest_node() {
        let mut rng = SimRng::new(5);
        for _ in 0..200 {
            let block = Placement::random(1 + rng.index(BLOCK), 300.0, 200.0, &mut rng);
            let bounds = Bounds::of(block.positions());
            for _ in 0..50 {
                // Points inside, on and around the box.
                let at = Position::new(rng.range_f64(-50.0, 350.0), rng.range_f64(-50.0, 250.0));
                let ([x0, y0], [x1, y1]) = (bounds.lo, bounds.hi);
                let corners = [(x0, y0), (x1, y1), (x0, y1)].map(|(x, y)| Position::new(x, y));
                for at in std::iter::once(at).chain(corners) {
                    let nearest = block
                        .positions()
                        .iter()
                        .map(|&p| at.distance_sq_ft(p))
                        .fold(f64::INFINITY, f64::min);
                    assert!(bounds.distance_sq_below(at) <= nearest);
                }
            }
        }
        // A non-finite coordinate unbounds the box.
        let mut odd = [Position::new(1.0, 1.0); 2];
        odd[1].x_ft = f64::INFINITY;
        let far = Position::new(1e9, -1e9);
        assert_eq!(Bounds::of(&odd).distance_sq_below(far), 0.0);
    }

    #[test]
    fn every_worker_count_matches_the_pair_by_pair_loop() {
        // 150 nodes: two full chunks and a short one, with the reach
        // changing from row to row.
        let mut scenario = SimRng::new(8);
        let placement = Placement::random(150, 200.0, 140.0, &mut scenario);
        let power: Vec<PowerLevel> = (0..150)
            .map(|i| PowerLevel::new(1 + (i * 37 % 255) as u8))
            .collect();
        let mut want_rng = SimRng::new(21);
        let mut want = Vec::new();
        for (from, p) in power.iter().enumerate() {
            let from = NodeId::from_index(from);
            for to in placement.iter().map(|(to, _)| to).filter(|&to| to != from) {
                let d = placement.distance_ft(from, to);
                if let Some(ber) = loss::sample_edge_ber(d, p.range_ft(), &mut want_rng) {
                    want.push((from, to, ber.to_bits()));
                }
            }
        }
        let next = want_rng.next_u64();
        for workers in 1..=4 {
            let mut builder = TopologyBuilder::new(placement.clone());
            for (i, &p) in power.iter().enumerate() {
                builder = builder.node_power(NodeId::from_index(i), p);
            }
            let mut rng = SimRng::new(21);
            let links = builder.build_on(&mut rng, workers).links;
            let got: Vec<_> = placement
                .iter()
                .flat_map(|(from, _)| {
                    let row = links.neighbors(from);
                    row.map(move |(to, ber)| (from, to, ber.to_bits()))
                })
                .collect();
            assert!(got == want, "{workers} workers: rows differ");
            assert_eq!(rng.next_u64(), next, "{workers} workers: stream position");
        }
    }

    #[test]
    #[should_panic(expected = "bad geometry")]
    fn a_helpers_panic_reaches_the_caller() {
        // Two nodes at the same infinite point are a NaN apart: only their
        // rows, 100 and 101, reach the sampler's check, and with two
        // workers chunk 1 is the helper's.
        let mut positions = GridSpec::new(10, 13, 10.0).placement().positions().to_vec();
        positions[100].x_ft = f64::INFINITY;
        positions[101] = positions[100];
        TopologyBuilder::new(Placement::from_positions(positions)).build_on(&mut SimRng::new(1), 2);
    }

    #[test]
    fn build_is_deterministic_per_seed() {
        let grid = GridSpec::new(4, 4, 10.0);
        let a = TopologyBuilder::new(grid.placement()).build(&mut SimRng::new(9));
        let b = TopologyBuilder::new(grid.placement()).build(&mut SimRng::new(9));
        assert_eq!(a.links.edge_count(), b.links.edge_count());
        for (id, _) in a.placement.iter() {
            let na: Vec<_> = a.links.neighbors(id).collect();
            let nb: Vec<_> = b.links.neighbors(id).collect();
            assert_eq!(na, nb);
        }
    }
}
