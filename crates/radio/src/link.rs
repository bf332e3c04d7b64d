//! The directed link graph, and the scheduled changes of its rates.

use std::ops::Range;

use mnp_sim::SimTime;

use crate::ids::NodeId;

/// Directed connectivity graph with per-edge bit error rates.
///
/// This is TOSSIM's network model: "the network is modelled as a directed
/// graph \[where\] each edge has a bit error probability". An edge `a → b`
/// means `b` can hear `a` at all (audibility); its `ber` decides how often
/// frames survive. Absence of an edge means `b` never hears `a` — not even
/// as interference — which is how hidden terminals arise.
///
/// The graph is stored in compressed-sparse-row form: row offsets, targets
/// and rates, 12 B per edge, so a neighbour walk reads two contiguous
/// slices. Each row is sorted by target, and every walk visits edges in
/// that order — load-bearing for byte-identical replays. The edge at
/// position `k` of [`LinkTable::neighbors`] has the CSR index
/// [`LinkTable::row_start`]` + k`. Only [`LinkTable::connect`] adds edges
/// (and shifts later indices); a run holds its graph's edge set fixed and
/// changes rates in place ([`LinkTable::set_ber`]).
///
/// # Example
///
/// ```
/// use mnp_radio::{LinkTable, NodeId};
///
/// let mut links = LinkTable::new(3);
/// links.connect(NodeId(0), NodeId(1), 1e-4);
/// links.connect(NodeId(1), NodeId(0), 2e-4); // asymmetric reverse edge
/// assert_eq!(links.ber(NodeId(0), NodeId(1)), Some(1e-4));
/// assert_eq!(links.ber(NodeId(0), NodeId(2)), None);
/// assert_eq!(links.neighbors(NodeId(0)).count(), 1);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LinkTable {
    /// `dst[off[a]..off[a + 1]]` lists every `b` with `a → b`, ascending.
    off: Vec<u32>,
    dst: Vec<NodeId>,
    /// `ber[i]` is the bit error rate of the edge to `dst[i]`.
    ber: Vec<f64>,
}

impl LinkTable {
    /// Creates a graph over `n` nodes with no edges.
    pub fn new(n: usize) -> Self {
        LinkTable {
            off: vec![0; n + 1],
            dst: Vec::new(),
            ber: Vec::new(),
        }
    }

    /// Builds a graph over `n` nodes one row at a time, in node order:
    /// `fill(from, row)` pushes `(to, ber)` for every edge `from → to` onto
    /// the empty `row`, in ascending `to` order. The arrays end sized to
    /// the edges exactly, so a sampled graph holds no spare capacity.
    ///
    /// # Panics
    ///
    /// Panics if a row is out of order or repeats a target, or on any edge
    /// [`LinkTable::connect`] rejects.
    pub fn from_rows(n: usize, mut fill: impl FnMut(NodeId, &mut Vec<(NodeId, f64)>)) -> Self {
        let mut links = LinkTable {
            off: Vec::with_capacity(n + 1),
            ..LinkTable::default()
        };
        links.off.push(0);
        let mut row = Vec::new();
        for from in (0..n).map(NodeId::from_index) {
            row.clear();
            fill(from, &mut row);
            let mut last = None;
            for &(to, ber) in &row {
                check_edge(n, from, to, ber);
                assert!(last < Some(to), "edge {from} -> {to} out of order");
                last = Some(to);
            }
            links.dst.extend(row.iter().map(|&(to, _)| to));
            links.ber.extend(row.iter().map(|&(_, ber)| ber));
            let end = u32::try_from(links.dst.len()).expect("at most u32::MAX edges");
            links.off.push(end);
        }
        links.dst.shrink_to_fit();
        links.ber.shrink_to_fit();
        links
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.off.len().saturating_sub(1)
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds (or replaces) the directed edge `from → to` with bit error rate
    /// `ber`.
    ///
    /// This is an ordered insert into the packed arrays, for graphs built
    /// by hand: a new edge costs O(n + E) and shifts the CSR index of
    /// every later edge. Samplers use [`LinkTable::from_rows`].
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range, if the edge is a self
    /// loop, or if `ber` is not in `[0, 1]`.
    pub fn connect(&mut self, from: NodeId, to: NodeId, ber: f64) {
        check_edge(self.len(), from, to, ber);
        let row = self.row(from);
        match self.dst[row.clone()].binary_search(&to) {
            Ok(i) => self.ber[row.start + i] = ber,
            Err(i) => {
                // Exact growth: a hand-built graph holds no spare capacity
                // either.
                self.dst.reserve_exact(1);
                self.ber.reserve_exact(1);
                self.dst.insert(row.start + i, to);
                self.ber.insert(row.start + i, ber);
                for end in &mut self.off[from.index() + 1..] {
                    *end += 1;
                }
            }
        }
    }

    /// The bit error rate of `from → to`, or `None` if `to` cannot hear
    /// `from`. Binary search within the sorted row.
    pub fn ber(&self, from: NodeId, to: NodeId) -> Option<f64> {
        self.edge(from, to).map(|e| self.edge_ber(e))
    }

    /// Updates the BER of the existing edge `from → to` in place (the
    /// fault and mobility path; it never adds an edge). Returns whether the
    /// edge was found.
    pub fn set_ber(&mut self, from: NodeId, to: NodeId, ber: f64) -> bool {
        self.edge(from, to)
            .map(|e| self.ber[e as usize] = ber)
            .is_some()
    }

    /// Iterates over `(neighbor, ber)` for every node that can hear `from`,
    /// in ascending neighbour order.
    pub fn neighbors(&self, from: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        let row = self.row(from);
        let dst = self.dst[row.clone()].iter().copied();
        dst.zip(self.ber[row].iter().copied())
    }

    /// The CSR index of the first edge in `from`'s row: the edge at
    /// position `k` of [`LinkTable::neighbors`] has index
    /// `row_start(from) + k`.
    #[inline]
    pub fn row_start(&self, from: NodeId) -> u32 {
        self.off[from.index()]
    }

    /// The CSR index of the edge `from → to`, if there is one (`None`
    /// for an unknown node too). Binary search within the sorted row.
    pub fn edge(&self, from: NodeId, to: NodeId) -> Option<u32> {
        let row = self.row(from);
        let k = self.dst[row.clone()].binary_search(&to).ok()?;
        Some((row.start + k) as u32)
    }

    /// The receiving end of the edge with CSR index `edge`.
    #[inline]
    pub fn edge_dst(&self, edge: u32) -> NodeId {
        self.dst[edge as usize]
    }

    /// The current bit error rate of the edge with CSR index `edge` —
    /// what [`LinkTable::ber`] returns for it, without the search.
    #[inline]
    pub fn edge_ber(&self, edge: u32) -> f64 {
        self.ber[edge as usize]
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.dst.len()
    }

    /// Whether every node can reach every other node along directed edges
    /// starting from `root`.
    pub fn reaches_all(&self, root: NodeId) -> bool {
        self.reaches_all_usable(root, 1.0)
    }

    /// Whether every node is reachable from `root` over *usable
    /// bidirectional* links: both directions must exist with bit error
    /// rate at most `max_ber`.
    ///
    /// Request/response dissemination needs two-way links — a node that
    /// can hear a source but cannot be heard by it will request forever
    /// into the void. This is the connectivity predicate behind the
    /// paper's coverage requirement ("as long as the network is
    /// connected").
    pub fn reaches_all_usable(&self, root: NodeId, max_ber: f64) -> bool {
        if self.is_empty() {
            return false;
        }
        let mut seen = vec![false; self.len()];
        let mut stack = vec![root];
        seen[root.index()] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for (w, ber_fwd) in self.neighbors(v) {
                if seen[w.index()] || ber_fwd > max_ber {
                    continue;
                }
                match self.ber(w, v) {
                    Some(ber_rev) if ber_rev <= max_ber => {
                        seen[w.index()] = true;
                        count += 1;
                        stack.push(w);
                    }
                    _ => {}
                }
            }
        }
        count == self.len()
    }

    /// The CSR index range of `from`'s row; empty for an unknown node.
    fn row(&self, from: NodeId) -> Range<usize> {
        let i = from.index();
        match self.off.get(i..i + 2) {
            Some(&[lo, hi]) => lo as usize..hi as usize,
            _ => 0..0,
        }
    }
}

/// The input checks of [`LinkTable::connect`] on a graph of `n` nodes.
fn check_edge(n: usize, from: NodeId, to: NodeId, ber: f64) {
    assert!(from.index() < n, "unknown node {from}");
    assert!(to.index() < n, "unknown node {to}");
    assert_ne!(from, to, "self loop on {from}");
    assert!((0.0..=1.0).contains(&ber), "ber {ber} out of [0,1]");
}

/// One scheduled base-quality change of a directed link: at `at`, the
/// edge `from -> to` takes bit-error rate `ber`.
///
/// A link schedule is how mobility reaches the kernel: `mnp-topology`
/// resolves motion into these before the run starts, over a
/// *potential-edge set* (every pair that ever comes within audible range,
/// at BER 1.0 while disconnected), so every change lands on an edge the
/// run's [`LinkTable`] already has.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkChange {
    /// When the change applies.
    pub at: SimTime,
    /// Transmitting end of the changed edge.
    pub from: NodeId,
    /// Receiving end of the changed edge.
    pub to: NodeId,
    /// The new base bit-error rate (1.0 = out of range).
    pub ber: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> LinkTable {
        let mut t = LinkTable::new(n);
        for i in 0..n - 1 {
            t.connect(NodeId::from_index(i), NodeId::from_index(i + 1), 0.0);
            t.connect(NodeId::from_index(i + 1), NodeId::from_index(i), 0.0);
        }
        t
    }

    #[test]
    fn connect_and_query() {
        let mut t = LinkTable::new(4);
        t.connect(NodeId(0), NodeId(2), 0.5);
        assert_eq!(t.ber(NodeId(0), NodeId(2)), Some(0.5));
        assert_eq!(t.ber(NodeId(2), NodeId(0)), None, "edges are directed");
        assert_eq!(t.edge_count(), 1);
    }

    #[test]
    fn connect_replaces_existing_edge() {
        let mut t = LinkTable::new(2);
        t.connect(NodeId(0), NodeId(1), 0.1);
        t.connect(NodeId(0), NodeId(1), 0.2);
        assert_eq!(t.ber(NodeId(0), NodeId(1)), Some(0.2));
        assert_eq!(t.edge_count(), 1);
    }

    #[test]
    fn shrink_to_fit_keeps_every_edge_and_drops_spare_rows() {
        // The graph a run holds has no spare capacity, built row by row or
        // edge by edge: `Vec` doubling would leave up to half of it unused.
        let by_connect = chain(9);
        let by_rows = LinkTable::from_rows(9, |from, row| row.extend(by_connect.neighbors(from)));
        assert_eq!(by_rows, by_connect);
        let clique = LinkTable::from_rows(300, |from, row| {
            let others = (0..300).filter(|&j| j != from.index());
            row.extend(others.map(|j| (NodeId::from_index(j), 0.0)));
        });
        assert_eq!(clique.edge_count(), 300 * 299);
        for t in [by_connect, by_rows, clique] {
            assert_eq!(t.off.capacity(), t.off.len());
            assert_eq!(t.dst.capacity(), t.dst.len());
            assert_eq!(t.ber.capacity(), t.ber.len());
        }
    }

    #[test]
    fn neighbors_sorted_and_complete() {
        let mut t = LinkTable::new(5);
        t.connect(NodeId(1), NodeId(4), 0.0);
        t.connect(NodeId(1), NodeId(0), 0.0);
        t.connect(NodeId(1), NodeId(2), 0.0);
        let ns: Vec<NodeId> = t.neighbors(NodeId(1)).map(|(n, _)| n).collect();
        assert_eq!(ns, vec![NodeId(0), NodeId(2), NodeId(4)]);
        assert_eq!(t.neighbors(NodeId(9)).count(), 0, "unknown node");
    }

    #[test]
    fn reaches_all_on_chain() {
        let t = chain(10);
        assert!(t.reaches_all(NodeId(0)));
        assert!(t.reaches_all(NodeId(9)));
    }

    #[test]
    fn reaches_all_detects_partition() {
        // A chain with the middle links removed is partitioned.
        let mut t = LinkTable::new(4);
        t.connect(NodeId(0), NodeId(1), 0.0);
        t.connect(NodeId(2), NodeId(3), 0.0);
        assert!(!t.reaches_all(NodeId(0)));
    }

    #[test]
    #[should_panic(expected = "self loop")]
    fn self_loop_rejected() {
        let mut t = LinkTable::new(2);
        t.connect(NodeId(1), NodeId(1), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn bad_ber_rejected() {
        let mut t = LinkTable::new(2);
        t.connect(NodeId(0), NodeId(1), 1.5);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn unsorted_row_rejected() {
        LinkTable::from_rows(3, |from, row| {
            if from == NodeId(0) {
                row.extend([(NodeId(2), 0.0), (NodeId(1), 0.0)]);
            }
        });
    }

    #[test]
    fn flat_links_mirror_the_table() {
        // Edges connected out of order, and the same rows appended in
        // order, pack into the same arrays.
        let mut t = LinkTable::new(5);
        t.connect(NodeId(1), NodeId(4), 0.4);
        t.connect(NodeId(1), NodeId(0), 0.1);
        t.connect(NodeId(3), NodeId(1), 0.2);
        t.connect(NodeId(0), NodeId(1), 0.3);
        let mut flat = LinkTable::from_rows(5, |from, row| row.extend(t.neighbors(from)));
        assert_eq!(flat, t);
        assert_eq!(flat.len(), 5);
        assert_eq!(flat.ber(NodeId(1), NodeId(0)), Some(0.1));
        // Rewriting every edge's rate in both keeps them row-for-row equal.
        let edges: Vec<(NodeId, NodeId)> = (0..5)
            .map(NodeId::from_index)
            .flat_map(|a| t.neighbors(a).map(move |(b, _)| (a, b)))
            .collect();
        for (k, &(a, b)) in edges.iter().enumerate() {
            let ber = 0.05 * (k + 1) as f64;
            t.connect(a, b, ber);
            assert!(flat.set_ber(a, b, ber));
            assert_eq!(flat, t);
        }
    }

    #[test]
    fn edge_index_accessors_agree_with_rows_and_search() {
        // A random directed graph: every index `row_start(a) + k` must name
        // the `k`-th entry of `a`'s row, at the rate the search reports,
        // before and after rates are rewritten in place.
        let n = 12;
        let mut rng = mnp_sim::SimRng::new(31);
        let mut t = LinkTable::new(n);
        for a in 0..n {
            for b in 0..n {
                if a != b && rng.chance(0.4) {
                    t.connect(NodeId::from_index(a), NodeId::from_index(b), rng.unit());
                }
            }
        }
        let check = |t: &LinkTable| {
            let mut next = 0;
            for a in (0..n).map(NodeId::from_index) {
                let start = t.row_start(a);
                assert_eq!(start, next, "rows tile the edge array");
                next = start;
                for (b, rate) in t.neighbors(a) {
                    assert_eq!(t.edge_dst(next), b);
                    assert_eq!(t.edge_ber(next), rate);
                    assert_eq!(Some(t.edge_ber(next)), t.ber(a, b));
                    next += 1;
                }
            }
            assert_eq!(next as usize, t.edge_count());
        };
        check(&t);
        for a in (0..n).map(NodeId::from_index) {
            let row: Vec<NodeId> = t.neighbors(a).map(|(b, _)| b).collect();
            for b in row {
                assert!(t.set_ber(a, b, rng.unit()));
            }
        }
        check(&t);
    }

    #[test]
    fn flat_links_set_ber_updates_existing_edges_only() {
        let mut t = LinkTable::new(3);
        t.connect(NodeId(0), NodeId(1), 0.1);
        assert!(t.set_ber(NodeId(0), NodeId(1), 0.9));
        assert_eq!(t.ber(NodeId(0), NodeId(1)), Some(0.9));
        assert!(!t.set_ber(NodeId(0), NodeId(2), 0.5), "missing edge");
        assert_eq!(t.ber(NodeId(0), NodeId(2)), None);
        assert_eq!(t.edge_count(), 1);
    }
}
