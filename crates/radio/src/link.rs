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
    /// Reverse adjacency: `inn[b]` lists `(a, ber)` for every edge
    /// `a → b`, sorted by `a`. Maintained by [`LinkTable::connect`] so
    /// in-degree and "whom can I hear" queries cost `O(degree)` instead of
    /// scanning every row.
    inn: Vec<Vec<(NodeId, f64)>>,
}

impl LinkTable {
    /// Creates a graph over `n` nodes with no edges.
    pub fn new(n: usize) -> Self {
        LinkTable {
            out: vec![Vec::new(); n],
            inn: vec![Vec::new(); n],
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
        let rev = &mut self.inn[to.index()];
        match rev.binary_search_by_key(&from, |&(a, _)| a) {
            Ok(i) => rev[i].1 = ber,
            Err(i) => rev.insert(i, (from, ber)),
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

    /// In-degree of `node` (how many transmitters it can hear). `O(1)` via
    /// the precomputed reverse-adjacency index.
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.inn.get(node.index()).map_or(0, Vec::len)
    }

    /// Iterates over `(source, ber)` for every transmitter `to` can hear —
    /// the reverse of [`LinkTable::neighbors`], in `O(in-degree)` via the
    /// index maintained by [`LinkTable::connect`].
    pub fn incoming(&self, to: NodeId) -> impl Iterator<Item = (NodeId, f64)> + '_ {
        self.inn
            .get(to.index())
            .map(|r| r.iter().copied())
            .into_iter()
            .flatten()
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

/// The link graph flattened into compressed-sparse-row form for the
/// medium's hot path.
///
/// [`LinkTable`] is the build/mutation structure: per-node `Vec`s that are
/// cheap to grow edge by edge. `FlatLinks` is its read-optimised shadow:
/// each direction's adjacency packed into three dense arrays (row offsets,
/// targets, bit error rates), so a neighbour walk touches two contiguous
/// slices instead of chasing a `Vec<Vec<_>>` spine, and the carrier-sense
/// scan over incoming sources reads a pure `NodeId` array with no
/// interleaved `f64`s. Rows keep [`LinkTable`]'s sorted order, so walks
/// over either structure visit edges identically — load-bearing for
/// byte-identical replays.
#[derive(Clone, Debug, Default)]
pub struct FlatLinks {
    /// `out_dst[out_off[a]..out_off[a+1]]` lists every `b` with `a → b`.
    out_off: Vec<u32>,
    out_dst: Vec<NodeId>,
    /// `out_ber[i]` is the BER of the edge at `out_dst[i]`.
    out_ber: Vec<f64>,
    /// Reverse direction: `in_src[in_off[b]..in_off[b+1]]` lists every `a`
    /// with `a → b`.
    in_off: Vec<u32>,
    in_src: Vec<NodeId>,
}

impl FlatLinks {
    /// Flattens `table` into CSR form (both directions).
    pub fn from_table(table: &LinkTable) -> Self {
        let n = table.len();
        let edges = table.edge_count();
        let mut flat = FlatLinks {
            out_off: Vec::with_capacity(n + 1),
            out_dst: Vec::with_capacity(edges),
            out_ber: Vec::with_capacity(edges),
            in_off: Vec::with_capacity(n + 1),
            in_src: Vec::with_capacity(edges),
        };
        flat.out_off.push(0);
        flat.in_off.push(0);
        for i in 0..n {
            let node = NodeId::from_index(i);
            for (dst, ber) in table.neighbors(node) {
                flat.out_dst.push(dst);
                flat.out_ber.push(ber);
            }
            flat.out_off.push(flat.out_dst.len() as u32);
            for (src, _) in table.incoming(node) {
                flat.in_src.push(src);
            }
            flat.in_off.push(flat.in_src.len() as u32);
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

    /// Every transmitter `to` can hear, sorted — the reverse adjacency the
    /// carrier-sense scan walks.
    #[cfg(test)]
    pub(crate) fn incoming_sources(&self, to: NodeId) -> &[NodeId] {
        let i = to.index();
        debug_assert!(i + 1 < self.in_off.len(), "unknown node {to}");
        let lo = self.in_off[i] as usize;
        let hi = self.in_off[i + 1] as usize;
        &self.in_src[lo..hi]
    }

    /// The bit error rate of `from → to`, or `None` when `to` cannot hear
    /// `from`. Binary search within the sorted row.
    pub fn ber(&self, from: NodeId, to: NodeId) -> Option<f64> {
        let (lo, hi) = self.out_range(from);
        let row = &self.out_dst[lo..hi];
        row.binary_search(&to).ok().map(|i| self.out_ber[lo + i])
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
    fn neighbors_sorted_and_complete() {
        let mut t = LinkTable::new(5);
        t.connect(NodeId(1), NodeId(4), 0.0);
        t.connect(NodeId(1), NodeId(0), 0.0);
        t.connect(NodeId(1), NodeId(2), 0.0);
        let ns: Vec<NodeId> = t.neighbors(NodeId(1)).map(|(n, _)| n).collect();
        assert_eq!(ns, vec![NodeId(0), NodeId(2), NodeId(4)]);
    }

    #[test]
    fn in_degree_counts_incoming() {
        let mut t = LinkTable::new(3);
        t.connect(NodeId(0), NodeId(2), 0.0);
        t.connect(NodeId(1), NodeId(2), 0.0);
        assert_eq!(t.in_degree(NodeId(2)), 2);
        assert_eq!(t.in_degree(NodeId(0)), 0);
    }

    #[test]
    fn incoming_lists_audible_sources_sorted() {
        let mut t = LinkTable::new(5);
        t.connect(NodeId(4), NodeId(1), 0.3);
        t.connect(NodeId(0), NodeId(1), 0.1);
        t.connect(NodeId(2), NodeId(1), 0.2);
        let inc: Vec<(NodeId, f64)> = t.incoming(NodeId(1)).collect();
        assert_eq!(
            inc,
            vec![(NodeId(0), 0.1), (NodeId(2), 0.2), (NodeId(4), 0.3)]
        );
        assert_eq!(t.incoming(NodeId(0)).count(), 0);
    }

    #[test]
    fn connect_replacement_updates_reverse_index() {
        let mut t = LinkTable::new(2);
        t.connect(NodeId(0), NodeId(1), 0.1);
        t.connect(NodeId(0), NodeId(1), 0.4);
        assert_eq!(t.in_degree(NodeId(1)), 1);
        let inc: Vec<(NodeId, f64)> = t.incoming(NodeId(1)).collect();
        assert_eq!(inc, vec![(NodeId(0), 0.4)]);
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
        let flat = FlatLinks::from_table(&t);
        assert_eq!(flat.len(), 5);
        for i in 0..5 {
            let node = NodeId::from_index(i);
            let expect: Vec<(NodeId, f64)> = t.neighbors(node).collect();
            let (dst, ber) = flat.neighbors(node);
            let got: Vec<(NodeId, f64)> = dst.iter().copied().zip(ber.iter().copied()).collect();
            assert_eq!(got, expect, "out row of {node}");
            let expect_in: Vec<NodeId> = t.incoming(node).map(|(s, _)| s).collect();
            assert_eq!(flat.incoming_sources(node), expect_in.as_slice());
            for j in 0..5 {
                let other = NodeId::from_index(j);
                assert_eq!(flat.ber(node, other), t.ber(node, other));
            }
        }
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
