//! Node placement and link generation for sensor-network experiments.
//!
//! The paper's deployments are all grids: 5×5 indoor at 3 ft, 7×7 and 2×10
//! outdoor, and a simulated 20×20 at 10 ft ("the distance between every two
//! nodes is kept constant at 10 feet"). This crate produces those layouts
//! and turns geometry + transmission power into the directed lossy
//! [`LinkTable`](mnp_radio::LinkTable) the medium runs on.
//!
//! # Example
//!
//! ```
//! use mnp_radio::PowerLevel;
//! use mnp_sim::SimRng;
//! use mnp_topology::{GridSpec, TopologyBuilder};
//!
//! let grid = GridSpec::new(5, 5, 3.0);
//! let topo = TopologyBuilder::new(grid.placement())
//!     .power(PowerLevel::new(9))
//!     .build(&mut SimRng::new(1));
//! assert_eq!(topo.links.len(), 25);
//! assert!(topo.links.reaches_all(grid.node_at(0, 0)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
mod grid;
mod irregular;
pub mod mobility;
mod placement;

pub use builder::{Topology, TopologyBuilder};
pub use grid::GridSpec;
pub use mobility::{Field, MobileTopology, MobilityModel, MotionPlan, MotionSchedule};
pub use placement::{Placement, Position};
