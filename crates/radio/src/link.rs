//! The directed link graph.

use crate::ids::NodeId;

/// Directed connectivity graph with per-edge bit error rates.
///
/// This is TOSSIM's network model: "the network is modelled as a directed
/// graph \[where\] each edge has a bit error probability". An edge `a → b`
/// means `b` can hear `a` at all (audibility); its `ber` decides how often
/// frames survive. Absence of an edge means `b` never hears `a` — not even
/// as interference — which is how hidden terminals arise.
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
#[derive(Clone, Debug, Default)]
pub struct LinkTable {
    /// `out[a]` lists `(b, ber)` for every edge `a → b`, sorted by `b`.
    out: Vec<Vec<(NodeId, f64)>>,
}

impl LinkTable {
    /// Creates a graph over `n` nodes with no edges.
    pub fn new(n: usize) -> Self {
        LinkTable {
            out: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.out.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.out.is_empty()
    }

    /// Adds (or replaces) the directed edge `from → to` with bit error rate
    /// `ber`.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is out of range, if the edge is a self
    /// loop, or if `ber` is not in `[0, 1]`.
    pub fn connect(&mut self, from: NodeId, to: NodeId, ber: f64) {
        assert!(from.index() < self.out.len(), "unknown node {from}");
        assert!(to.index() < self.out.len(), "unknown node {to}");
        assert_ne!(from, to, "self loop on {from}");
        assert!((0.0..=1.0).contains(&ber), "ber {ber} out of [0,1]");
        let row = &mut self.out[from.index()];
        match row.binary_search_by_key(&to, |&(b, _)| b) {
            Ok(i) => row[i].1 = ber,
            Err(i) => row.insert(i, (to, ber)),
        }
    }

    /// Drops every row's spare capacity. Rows grow edge by edge, so a
    /// finished table sits at up to twice its size; a builder calls this
    /// once the edge set is complete, before the table is frozen beside
    /// its CSR copy.
    pub fn shrink_to_fit(&mut self) {
        for row in &mut self.out {
            row.shrink_to_fit();
        }
    }

    /// The bit error rate of `from → to`, or `None` if `to` cannot hear
    /// `from`.
    pub fn ber(&self, from: NodeId, to: NodeId) -> Option<f64> {
        let row = self.out.get(from.index())?;
        row.binary_search_by_key(&to, |&(b, _)| b)
            .ok()
            .map(|i| row[i].1)
    }

    /// Iterates over `(neighbor, ber)` for every node that can hear `from`.
    pub fn neighbors(&self, from: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.out
            .get(from.index())
            .map(|r| r.iter().copied())
            .into_iter()
            .flatten()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.out.iter().map(Vec::len).sum()
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
        if self.out.is_empty() {
            return false;
        }
        let mut seen = vec![false; self.out.len()];
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
        count == self.out.len()
    }
}

/// The link graph frozen into compressed-sparse-row form: the only graph
/// a run holds.
///
/// [`LinkTable`] is the build structure: per-node `Vec`s that are cheap
/// to grow edge by edge, dropped once frozen. `FlatLinks` packs the same
/// adjacency into three dense arrays (row offsets, targets, bit error
/// rates), so a neighbour walk touches two contiguous slices instead of
/// chasing a `Vec<Vec<_>>` spine. Rows keep [`LinkTable`]'s sorted order,
/// so walks over either structure visit edges identically — load-bearing
/// for byte-identical replays. The edge set is fixed from here on; only
/// rates change ([`FlatLinks::set_ber`]).
#[derive(Clone, Debug, Default)]
pub struct FlatLinks {
    /// `out_dst[out_off[a]..out_off[a+1]]` lists every `b` with `a → b`.
    out_off: Vec<u32>,
    out_dst: Vec<NodeId>,
    /// `out_ber[i]` is the BER of the edge at `out_dst[i]`.
    out_ber: Vec<f64>,
}

impl FlatLinks {
    /// Flattens `table` into CSR form.
    pub fn from_table(table: &LinkTable) -> Self {
        let n = table.len();
        let edges = table.edge_count();
        let mut flat = FlatLinks {
            out_off: Vec::with_capacity(n + 1),
            out_dst: Vec::with_capacity(edges),
            out_ber: Vec::with_capacity(edges),
        };
        flat.out_off.push(0);
        for i in 0..n {
            for (dst, ber) in table.neighbors(NodeId::from_index(i)) {
                flat.out_dst.push(dst);
                flat.out_ber.push(ber);
            }
            flat.out_off.push(flat.out_dst.len() as u32);
        }
        flat
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.out_off.len().saturating_sub(1)
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The outgoing row of `from`: who can hear it, and at what BER, in
    /// the same sorted order as [`LinkTable::neighbors`].
    pub fn neighbors(&self, from: NodeId) -> (&[NodeId], &[f64]) {
        let (lo, hi) = self.out_range(from);
        (&self.out_dst[lo..hi], &self.out_ber[lo..hi])
    }

    /// The bit error rate of `from → to`, or `None` when `to` cannot hear
    /// `from`. Binary search within the sorted row.
    pub fn ber(&self, from: NodeId, to: NodeId) -> Option<f64> {
        let (lo, hi) = self.out_range(from);
        let row = &self.out_dst[lo..hi];
        row.binary_search(&to).ok().map(|i| self.out_ber[lo + i])
    }

    /// The CSR index of the first edge in `from`'s row: the edge at
    /// position `k` of [`FlatLinks::neighbors`] has index
    /// `row_start(from) + k`. The edge set is frozen at flattening, so an
    /// index names the same edge for the life of the graph.
    #[inline]
    pub fn row_start(&self, from: NodeId) -> u32 {
        self.out_off[from.index()]
    }

    /// The receiving end of the edge with CSR index `edge`.
    #[inline]
    pub fn edge_dst(&self, edge: u32) -> NodeId {
        self.out_dst[edge as usize]
    }

    /// The current bit error rate of the edge with CSR index `edge` —
    /// what [`FlatLinks::ber`] returns for it, without the search.
    #[inline]
    pub fn edge_ber(&self, edge: u32) -> f64 {
        self.out_ber[edge as usize]
    }

    /// Updates the BER of the existing edge `from → to` (the
    /// fault-injection path; new edges cannot be added after flattening).
    /// Returns whether the edge was found.
    pub fn set_ber(&mut self, from: NodeId, to: NodeId, ber: f64) -> bool {
        let (lo, hi) = self.out_range(from);
        match self.out_dst[lo..hi].binary_search(&to) {
            Ok(i) => {
                self.out_ber[lo + i] = ber;
                true
            }
            Err(_) => false,
        }
    }

    fn out_range(&self, from: NodeId) -> (usize, usize) {
        let i = from.index();
        debug_assert!(i + 1 < self.out_off.len(), "unknown node {from}");
        (self.out_off[i] as usize, self.out_off[i + 1] as usize)
    }
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
        let mut t = chain(9);
        let before: Vec<Vec<_>> = (0..9)
            .map(|i| t.neighbors(NodeId::from_index(i)).collect())
            .collect();
        t.shrink_to_fit();
        for (i, row) in before.iter().enumerate() {
            let after: Vec<_> = t.neighbors(NodeId::from_index(i)).collect();
            assert_eq!(&after, row);
        }
        assert!(t.out.iter().all(|row| row.capacity() == row.len()));
    }

    #[test]
    fn neighbors_sorted_and_complete() {
        let mut t = LinkTable::new(5);
        t.connect(NodeId(1), NodeId(4), 0.0);
        t.connect(NodeId(1), NodeId(0), 0.0);
        t.connect(NodeId(1), NodeId(2), 0.0);
        let ns: Vec<NodeId> = t.neighbors(NodeId(1)).map(|(n, _)| n).collect();
        assert_eq!(ns, vec![NodeId(0), NodeId(2), NodeId(4)]);
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
    fn flat_links_mirror_the_table() {
        let mut t = LinkTable::new(5);
        t.connect(NodeId(1), NodeId(4), 0.4);
        t.connect(NodeId(1), NodeId(0), 0.1);
        t.connect(NodeId(3), NodeId(1), 0.2);
        t.connect(NodeId(0), NodeId(1), 0.3);
        let mut flat = FlatLinks::from_table(&t);
        assert_eq!(flat.len(), 5);
        let assert_mirrors = |flat: &FlatLinks, t: &LinkTable| {
            for i in 0..5 {
                let node = NodeId::from_index(i);
                let expect: Vec<(NodeId, f64)> = t.neighbors(node).collect();
                let (dst, ber) = flat.neighbors(node);
                let got: Vec<(NodeId, f64)> =
                    dst.iter().copied().zip(ber.iter().copied()).collect();
                assert_eq!(got, expect, "out row of {node}");
                for j in 0..5 {
                    let other = NodeId::from_index(j);
                    assert_eq!(flat.ber(node, other), t.ber(node, other));
                }
            }
        };
        assert_mirrors(&flat, &t);
        // Rewriting every edge's rate in both keeps them row-for-row equal.
        let edges: Vec<(NodeId, NodeId)> = (0..5)
            .map(NodeId::from_index)
            .flat_map(|a| t.neighbors(a).map(move |(b, _)| (a, b)))
            .collect();
        for (k, &(a, b)) in edges.iter().enumerate() {
            let ber = 0.05 * (k + 1) as f64;
            t.connect(a, b, ber);
            assert!(flat.set_ber(a, b, ber));
            assert_mirrors(&flat, &t);
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
        let mut flat = FlatLinks::from_table(&t);
        let check = |flat: &FlatLinks| {
            let mut next = 0;
            for a in (0..n).map(NodeId::from_index) {
                let start = flat.row_start(a);
                assert_eq!(start, next, "rows tile the edge array");
                let (dst, ber) = flat.neighbors(a);
                for (k, (&b, &rate)) in dst.iter().zip(ber).enumerate() {
                    let e = start + k as u32;
                    assert_eq!(flat.edge_dst(e), b);
                    assert_eq!(flat.edge_ber(e), rate);
                    assert_eq!(Some(flat.edge_ber(e)), flat.ber(a, b));
                }
                next = start + dst.len() as u32;
            }
            assert_eq!(next as usize, t.edge_count());
        };
        check(&flat);
        for a in (0..n).map(NodeId::from_index) {
            for (b, _) in t.neighbors(a) {
                assert!(flat.set_ber(a, b, rng.unit()));
            }
        }
        check(&flat);
    }

    #[test]
    fn flat_links_set_ber_updates_existing_edges_only() {
        let mut t = LinkTable::new(3);
        t.connect(NodeId(0), NodeId(1), 0.1);
        let mut flat = FlatLinks::from_table(&t);
        assert!(flat.set_ber(NodeId(0), NodeId(1), 0.9));
        assert_eq!(flat.ber(NodeId(0), NodeId(1)), Some(0.9));
        assert!(!flat.set_ber(NodeId(0), NodeId(2), 0.5), "missing edge");
        assert_eq!(flat.ber(NodeId(0), NodeId(2)), None);
    }
}
