//! Grid deployments, the layout used throughout the paper.

use std::fmt;

use mnp_radio::NodeId;

use crate::placement::{Placement, Position};

/// A `rows × cols` grid with constant spacing, node IDs row-major.
///
/// The paper places "the base station ... in the upper-left corner" for the
/// mote experiments and "at the bottom-left corner" for the simulations; in
/// our row-major layout both corners are simply [`GridSpec::node_at`] of a
/// corner coordinate, and [`GridSpec::corner`] returns `(0, 0)`.
///
/// # Example
///
/// ```
/// use mnp_topology::GridSpec;
///
/// let g = GridSpec::new(2, 10, 3.0); // the paper's 2×10 outdoor grid
/// assert_eq!(g.len(), 20);
/// assert_eq!(g.node_at(1, 9).index(), 19);
/// assert_eq!(g.coords(g.node_at(1, 9)), (1, 9));
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GridSpec {
    rows: usize,
    cols: usize,
    spacing_ft: f64,
}

impl GridSpec {
    /// Creates a grid spec.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the spacing is not positive.
    pub fn new(rows: usize, cols: usize, spacing_ft: f64) -> Self {
        assert!(rows > 0 && cols > 0, "grid must have nodes");
        assert!(
            spacing_ft > 0.0 && spacing_ft.is_finite(),
            "spacing must be positive"
        );
        GridSpec {
            rows,
            cols,
            spacing_ft,
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Node spacing in feet.
    pub fn spacing_ft(&self) -> f64 {
        self.spacing_ft
    }

    /// Total node count.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// Whether the grid is empty (never true; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The node at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the grid.
    pub fn node_at(&self, row: usize, col: usize) -> NodeId {
        assert!(
            row < self.rows && col < self.cols,
            "({row},{col}) outside grid"
        );
        NodeId::from_index(row * self.cols + col)
    }

    /// The `(row, col)` of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is not in the grid.
    pub fn coords(&self, node: NodeId) -> (usize, usize) {
        let i = node.index();
        assert!(i < self.len(), "{node} outside grid");
        (i / self.cols, i % self.cols)
    }

    /// The conventional base-station corner `(0, 0)`.
    pub fn corner(&self) -> NodeId {
        self.node_at(0, 0)
    }

    /// Chebyshev (hop-grid) distance between two nodes, in cells.
    ///
    /// Used by the diagonal-vs-edge propagation analysis (paper §5's
    /// discussion of Deluge's dynamic behaviour).
    pub fn chebyshev(&self, a: NodeId, b: NodeId) -> usize {
        let (ar, ac) = self.coords(a);
        let (br, bc) = self.coords(b);
        ar.abs_diff(br).max(ac.abs_diff(bc))
    }

    /// Whether `node` lies on the outer edge of the grid.
    pub fn is_edge(&self, node: NodeId) -> bool {
        let (r, c) = self.coords(node);
        r == 0 || c == 0 || r == self.rows - 1 || c == self.cols - 1
    }

    /// The node positions of this grid.
    pub fn placement(&self) -> Placement {
        let mut positions = Vec::with_capacity(self.len());
        for r in 0..self.rows {
            for c in 0..self.cols {
                positions.push(Position::new(
                    c as f64 * self.spacing_ft,
                    r as f64 * self.spacing_ft,
                ));
            }
        }
        Placement::from_positions(positions)
    }

    /// Iterates all node IDs in row-major order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.len()).map(NodeId::from_index)
    }
}

impl fmt::Display for GridSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} grid @ {:.0}ft",
            self.rows, self.cols, self.spacing_ft
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_major_mapping_round_trips() {
        let g = GridSpec::new(4, 7, 10.0);
        for r in 0..4 {
            for c in 0..7 {
                assert_eq!(g.coords(g.node_at(r, c)), (r, c));
            }
        }
    }

    #[test]
    fn placement_matches_geometry() {
        let g = GridSpec::new(3, 3, 10.0);
        let p = g.placement();
        assert_eq!(p.len(), 9);
        assert_eq!(p.distance_ft(g.node_at(0, 0), g.node_at(0, 1)), 10.0);
        assert_eq!(p.distance_ft(g.node_at(0, 0), g.node_at(1, 0)), 10.0);
        let diag = p.distance_ft(g.node_at(0, 0), g.node_at(1, 1));
        assert!((diag - 200f64.sqrt()).abs() < 1e-9);
    }

    #[test]
    fn chebyshev_distance() {
        let g = GridSpec::new(20, 20, 10.0);
        assert_eq!(g.chebyshev(g.node_at(0, 0), g.node_at(5, 3)), 5);
        assert_eq!(g.chebyshev(g.node_at(2, 2), g.node_at(2, 2)), 0);
        assert_eq!(g.chebyshev(g.node_at(19, 19), g.node_at(0, 0)), 19);
    }

    #[test]
    fn edge_and_diagonal_classification() {
        let g = GridSpec::new(5, 5, 1.0);
        assert!(g.is_edge(g.node_at(0, 3)));
        assert!(g.is_edge(g.node_at(4, 4)));
        assert!(!g.is_edge(g.node_at(2, 2)));
    }

    #[test]
    fn corner_is_node_zero() {
        let g = GridSpec::new(2, 10, 3.0);
        assert_eq!(g.corner(), NodeId(0));
    }

    #[test]
    fn display() {
        assert_eq!(GridSpec::new(20, 20, 10.0).to_string(), "20x20 grid @ 10ft");
    }

    #[test]
    #[should_panic(expected = "outside grid")]
    fn out_of_grid_coord_rejected() {
        let g = GridSpec::new(2, 2, 1.0);
        let _ = g.node_at(2, 0);
    }

    #[test]
    #[should_panic(expected = "spacing")]
    fn bad_spacing_rejected() {
        let _ = GridSpec::new(2, 2, 0.0);
    }
}
