//! Physical node positions.

use std::fmt;

use mnp_radio::NodeId;
use mnp_sim::SimRng;

/// A point in the deployment plane, in feet.
///
/// # Example
///
/// ```
/// use mnp_topology::Position;
///
/// let a = Position::new(0.0, 0.0);
/// let b = Position::new(3.0, 4.0);
/// assert_eq!(a.distance_ft(b), 5.0);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Position {
    /// East–west coordinate in feet.
    pub x_ft: f64,
    /// North–south coordinate in feet.
    pub y_ft: f64,
}

impl Position {
    /// Creates a position.
    ///
    /// # Panics
    ///
    /// Panics if either coordinate is not finite.
    pub fn new(x_ft: f64, y_ft: f64) -> Self {
        assert!(x_ft.is_finite() && y_ft.is_finite(), "non-finite position");
        Position { x_ft, y_ft }
    }

    /// Euclidean distance to `other` in feet.
    pub fn distance_ft(self, other: Position) -> f64 {
        self.distance_sq_ft(other).sqrt()
    }

    /// The square of [`Position::distance_ft`], before its root: square
    /// feet.
    pub(crate) fn distance_sq_ft(self, other: Position) -> f64 {
        let dx = self.x_ft - other.x_ft;
        let dy = self.y_ft - other.y_ft;
        dx * dx + dy * dy
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1}ft, {:.1}ft)", self.x_ft, self.y_ft)
    }
}

/// The positions of all nodes in a deployment; index = [`NodeId`].
///
/// # Example
///
/// ```
/// use mnp_radio::NodeId;
/// use mnp_topology::{Placement, Position};
///
/// let p = Placement::from_positions(vec![Position::new(0.0, 0.0), Position::new(10.0, 0.0)]);
/// assert_eq!(p.len(), 2);
/// assert_eq!(p.distance_ft(NodeId(0), NodeId(1)), 10.0);
/// ```
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Placement {
    positions: Vec<Position>,
}

impl Placement {
    /// Wraps explicit positions.
    pub fn from_positions(positions: Vec<Position>) -> Self {
        Placement { positions }
    }

    /// `n` nodes placed uniformly at random in a `width_ft × height_ft`
    /// field. Useful for the non-grid robustness tests.
    ///
    /// # Panics
    ///
    /// Panics if the field has non-positive area.
    pub fn random(n: usize, width_ft: f64, height_ft: f64, rng: &mut SimRng) -> Self {
        assert!(
            width_ft > 0.0 && height_ft > 0.0,
            "field must have positive area"
        );
        let positions = (0..n)
            .map(|_| Position::new(rng.range_f64(0.0, width_ft), rng.range_f64(0.0, height_ft)))
            .collect();
        Placement { positions }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.positions.len()
    }

    /// Whether the deployment is empty.
    pub fn is_empty(&self) -> bool {
        self.positions.is_empty()
    }

    /// Position of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn position(&self, node: NodeId) -> Position {
        self.positions[node.index()]
    }

    /// Distance between two nodes in feet.
    pub fn distance_ft(&self, a: NodeId, b: NodeId) -> f64 {
        self.position(a).distance_ft(self.position(b))
    }

    /// Every position, indexed by [`NodeId`].
    pub(crate) fn positions(&self) -> &[Position] {
        &self.positions
    }

    /// Iterates `(NodeId, Position)` in ID order.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, Position)> + '_ {
        self.positions
            .iter()
            .enumerate()
            .map(|(i, &p)| (NodeId::from_index(i), p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean_and_symmetric() {
        let p = Placement::from_positions(vec![Position::new(0.0, 0.0), Position::new(6.0, 8.0)]);
        assert_eq!(p.distance_ft(NodeId(0), NodeId(1)), 10.0);
        assert_eq!(p.distance_ft(NodeId(1), NodeId(0)), 10.0);
        assert_eq!(p.distance_ft(NodeId(0), NodeId(0)), 0.0);
    }

    #[test]
    fn random_placement_stays_in_field() {
        let mut rng = SimRng::new(3);
        let p = Placement::random(200, 50.0, 30.0, &mut rng);
        assert_eq!(p.len(), 200);
        for (_, pos) in p.iter() {
            assert!((0.0..50.0).contains(&pos.x_ft));
            assert!((0.0..30.0).contains(&pos.y_ft));
        }
    }

    #[test]
    fn random_placement_is_seed_deterministic() {
        let a = Placement::random(10, 10.0, 10.0, &mut SimRng::new(7));
        let b = Placement::random(10, 10.0, 10.0, &mut SimRng::new(7));
        assert_eq!(a, b);
    }

    #[test]
    fn iter_yields_ids_in_order() {
        let p = Placement::from_positions(vec![Position::default(); 3]);
        let ids: Vec<NodeId> = p.iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![NodeId(0), NodeId(1), NodeId(2)]);
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn non_finite_position_rejected() {
        let _ = Position::new(f64::NAN, 0.0);
    }
}
