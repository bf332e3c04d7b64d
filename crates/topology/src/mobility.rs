//! Node motion and the dynamic link schedules it induces.
//!
//! The paper evaluates MNP on static grids only; this module supplies the
//! dynamic-topology workload — mobility models advanced on a fixed tick
//! cadence, and the *potential-edge* materialization that lets a link
//! graph with a fixed edge set host a moving deployment.
//!
//! # The potential-edge set
//!
//! The run's [`LinkTable`] keeps its edge set: edges can change quality
//! but never appear or disappear mid-run. Mobility therefore cannot
//! "add" a link when two nodes walk into range. Instead,
//! [`materialize`] pre-computes every ordered pair that ever comes
//! within audible range over the whole motion envelope and puts all of
//! them in the graph up front — pairs out of range at `t = 0` at BER 1.0
//! (a present-but-useless edge: every frame is lost, but carrier sensing
//! still knows the pair can interfere once they approach). Motion then
//! only ever *changes* the quality of existing edges, which the kernel
//! already knows how to replay deterministically: the schedule rides the
//! same owner-keyed `SetLink` event path link-flap faults use.
//!
//! Each edge draws its shadowing factor once
//! ([`mnp_radio::loss::sample_shadow`]) and keeps it for the whole run,
//! so link quality tracks geometry as nodes move instead of flickering
//! with fresh noise every tick — and a zero-speed plan induces an empty
//! schedule, degenerating exactly to a static topology.

use mnp_radio::{loss, LinkChange, LinkTable, NodeId, PowerLevel};
use mnp_sim::{SimDuration, SimRng, SimTime};

use crate::builder::Topology;
use crate::placement::{Placement, Position};

/// The rectangular field nodes move in, in feet.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Field {
    /// East–west extent.
    pub width_ft: f64,
    /// North–south extent.
    pub height_ft: f64,
}

impl Field {
    /// A field of positive area.
    ///
    /// # Panics
    ///
    /// Panics if either extent is not positive and finite.
    pub fn new(width_ft: f64, height_ft: f64) -> Self {
        assert!(
            width_ft > 0.0 && height_ft > 0.0 && width_ft.is_finite() && height_ft.is_finite(),
            "field must have positive area"
        );
        Field {
            width_ft,
            height_ft,
        }
    }

    fn clamp(&self, x: f64, y: f64) -> Position {
        Position::new(x.clamp(0.0, self.width_ft), y.clamp(0.0, self.height_ft))
    }

    fn random_point(&self, rng: &mut SimRng) -> Position {
        Position::new(
            rng.range_f64(0.0, self.width_ft),
            rng.range_f64(0.0, self.height_ft),
        )
    }
}

/// How nodes move.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MobilityModel {
    /// Random waypoint: each node independently picks a uniform point of
    /// the field, walks toward it at `speed_ft_s`, pauses `pause_s`
    /// seconds on arrival, and repeats. Zero speed means the node never
    /// leaves its initial position.
    RandomWaypoint {
        /// Walking speed in feet per second.
        speed_ft_s: f64,
        /// Pause at each waypoint, in seconds.
        pause_s: f64,
    },
    /// Group mobility (reference-point flavoured): nodes are split into
    /// `groups` contiguous ID ranges; each group's reference point does
    /// random waypoint at `speed_ft_s`, and every member keeps its
    /// initial offset from the group centroid, clamped to `radius_ft`
    /// around the moving reference and to the field.
    Group {
        /// Number of groups (at least 1; clamped to the node count).
        groups: usize,
        /// Reference-point speed in feet per second.
        speed_ft_s: f64,
        /// Maximum member distance from the reference point.
        radius_ft: f64,
    },
}

/// Positions sampled on a fixed cadence: `frames[k]` holds every node's
/// position at `(k + 1) × tick`. The initial placement (the `t = 0`
/// frame) lives outside the plan, in whatever [`Placement`] the plan was
/// advanced from.
#[derive(Clone, Debug, PartialEq)]
pub struct MotionPlan {
    /// The cadence positions were sampled on.
    pub tick: SimDuration,
    /// One placement per tick, in time order.
    pub frames: Vec<Placement>,
}

impl MobilityModel {
    /// Advances the model from `initial` for `horizon`, sampling a frame
    /// every `tick`. Pure function of its arguments and the RNG seed:
    /// per-node (and per-group) streams are derived from `rng` by ID, so
    /// the plan is independent of evaluation order.
    ///
    /// # Panics
    ///
    /// Panics if `tick` is zero, or if the model's parameters are
    /// non-finite or negative.
    pub fn plan(
        &self,
        initial: &Placement,
        field: Field,
        horizon: SimDuration,
        tick: SimDuration,
        rng: &SimRng,
    ) -> MotionPlan {
        assert!(tick > SimDuration::ZERO, "tick must be positive");
        let steps = (horizon.as_micros() / tick.as_micros()) as usize;
        let tick_s = tick.as_micros() as f64 / 1e6;
        let n = initial.len();
        let frames = match *self {
            MobilityModel::RandomWaypoint {
                speed_ft_s,
                pause_s,
            } => {
                assert!(
                    speed_ft_s >= 0.0 && pause_s >= 0.0,
                    "waypoint parameters must be non-negative"
                );
                let mut walkers: Vec<Walker> = (0..n)
                    .map(|i| {
                        let mut r = rng.derive(i as u64);
                        let target = field.random_point(&mut r);
                        Walker {
                            pos: initial.position(NodeId::from_index(i)),
                            target,
                            pause_left: 0.0,
                            rng: r,
                        }
                    })
                    .collect();
                (0..steps)
                    .map(|_| {
                        Placement::from_positions(
                            walkers
                                .iter_mut()
                                .map(|w| {
                                    w.advance(speed_ft_s, pause_s, tick_s, field);
                                    w.pos
                                })
                                .collect(),
                        )
                    })
                    .collect()
            }
            MobilityModel::Group {
                groups,
                speed_ft_s,
                radius_ft,
            } => {
                assert!(
                    speed_ft_s >= 0.0 && radius_ft >= 0.0,
                    "group parameters must be non-negative"
                );
                let g = groups.clamp(1, n.max(1));
                let group_of = |i: usize| i * g / n;
                // Reference points start at each group's centroid; every
                // member keeps its initial offset, clamped to the radius.
                let mut centroids = vec![(0.0, 0.0, 0usize); g];
                for (id, p) in initial.iter() {
                    let c = &mut centroids[group_of(id.index())];
                    c.0 += p.x_ft;
                    c.1 += p.y_ft;
                    c.2 += 1;
                }
                let mut refs: Vec<Walker> = centroids
                    .iter()
                    .enumerate()
                    .map(|(gi, &(sx, sy, count))| {
                        let mut r = rng.derive(1_000_000 + gi as u64);
                        let target = field.random_point(&mut r);
                        let c = count.max(1) as f64;
                        Walker {
                            pos: field.clamp(sx / c, sy / c),
                            target,
                            pause_left: 0.0,
                            rng: r,
                        }
                    })
                    .collect();
                let offsets: Vec<(f64, f64)> = initial
                    .iter()
                    .map(|(id, p)| {
                        let c = refs[group_of(id.index())].pos;
                        let (dx, dy) = (p.x_ft - c.x_ft, p.y_ft - c.y_ft);
                        let d = (dx * dx + dy * dy).sqrt();
                        if d > radius_ft && d > 0.0 {
                            (dx * radius_ft / d, dy * radius_ft / d)
                        } else {
                            (dx, dy)
                        }
                    })
                    .collect();
                (0..steps)
                    .map(|_| {
                        for w in &mut refs {
                            w.advance(speed_ft_s, 0.0, tick_s, field);
                        }
                        Placement::from_positions(
                            offsets
                                .iter()
                                .enumerate()
                                .map(|(i, &(dx, dy))| {
                                    let c = refs[group_of(i)].pos;
                                    field.clamp(c.x_ft + dx, c.y_ft + dy)
                                })
                                .collect(),
                        )
                    })
                    .collect()
            }
        };
        MotionPlan { tick, frames }
    }
}

/// One random-waypoint walker (a node, or a group reference point).
#[derive(Clone, Debug)]
struct Walker {
    pos: Position,
    target: Position,
    pause_left: f64,
    rng: SimRng,
}

impl Walker {
    /// Advances the walker by `dt_s` seconds of walk/pause/retarget.
    fn advance(&mut self, speed: f64, pause_s: f64, dt_s: f64, field: Field) {
        if speed <= 0.0 {
            return;
        }
        let mut dt = dt_s;
        while dt > 1e-12 {
            if self.pause_left > 0.0 {
                let spent = self.pause_left.min(dt);
                self.pause_left -= spent;
                dt -= spent;
                continue;
            }
            let dist = self.pos.distance_ft(self.target);
            let reach = speed * dt;
            if reach >= dist {
                self.pos = self.target;
                dt -= if dist > 0.0 { dist / speed } else { 0.0 };
                self.pause_left = pause_s;
                self.target = field.random_point(&mut self.rng);
                if pause_s <= 0.0 && dt <= 1e-12 {
                    break;
                }
            } else {
                let f = reach / dist;
                self.pos = field.clamp(
                    self.pos.x_ft + (self.target.x_ft - self.pos.x_ft) * f,
                    self.pos.y_ft + (self.target.y_ft - self.pos.y_ft) * f,
                );
                dt = 0.0;
            }
        }
    }
}

/// A topology whose link set covers the whole motion envelope, plus the
/// schedule of quality changes the motion induces.
#[derive(Clone, Debug)]
pub struct MobileTopology {
    /// The potential-edge topology at `t = 0`: every pair that ever
    /// comes within audible range is present, disconnected spans at
    /// BER 1.0.
    pub topology: Topology,
    /// Base-quality changes in time order (ticks ascending, edges in
    /// `(from, to)` ID order within a tick), no-op changes suppressed.
    pub updates: MotionSchedule,
}

/// The link changes a [`MotionPlan`] induces, held compactly: per change
/// only the CSR index of its edge in [`MobileTopology::topology`]'s link
/// table (`u32`) and the new rate (`f64`), 12 B, with the instant implied
/// by the tick the change falls on. Every column is sized exactly.
///
/// [`MotionSchedule::iter`] yields the changes as [`LinkChange`] values,
/// in time order; collect it into the `Vec` that
/// `NetworkBuilder::link_schedule` takes.
#[derive(Clone, Debug, PartialEq)]
pub struct MotionSchedule {
    tick: SimDuration,
    /// `tick_ends[k]` is one past the last change at `(k + 1) × tick`.
    tick_ends: Vec<u32>,
    /// `(from, to)` of every potential edge, by CSR index.
    ends: Vec<(NodeId, NodeId)>,
    edge: Vec<u32>,
    ber: Vec<f64>,
}

impl MotionSchedule {
    /// Number of changes.
    pub fn len(&self) -> usize {
        self.edge.len()
    }

    /// Whether the motion changes no link at all.
    pub fn is_empty(&self) -> bool {
        self.edge.is_empty()
    }

    /// The changes in time order.
    pub fn iter(&self) -> Changes<'_> {
        Changes {
            schedule: self,
            tick: 0,
            next: 0,
        }
    }
}

/// The changes of a [`MotionSchedule`], in time order.
#[derive(Clone, Debug)]
pub struct Changes<'a> {
    schedule: &'a MotionSchedule,
    /// The tick of change `next`, or an earlier one.
    tick: usize,
    next: usize,
}

impl Iterator for Changes<'_> {
    type Item = LinkChange;

    fn next(&mut self) -> Option<LinkChange> {
        let s = self.schedule;
        let i = self.next;
        let edge = *s.edge.get(i)?;
        while s.tick_ends[self.tick] as usize <= i {
            self.tick += 1;
        }
        self.next += 1;
        let (from, to) = s.ends[edge as usize];
        Some(LinkChange {
            at: SimTime::from_micros(s.tick.as_micros() * (self.tick as u64 + 1)),
            from,
            to,
            ber: s.ber[i],
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.schedule.len() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Changes<'_> {}

/// Materializes the potential-edge set of `initial` moved by `plan`, and
/// the link-update schedule the motion induces.
///
/// Every ordered pair draws its shadowing factor once, in `(from, to)`
/// ID order, then membership is exact: a pair is in the potential set
/// iff its distance drops below its audible limit
/// ([`loss::audible_limit_ft`]) in at least one frame — so a scheduled
/// update can never touch a missing edge, and the run's [`LinkTable`]
/// never needs to grow. The whole construction is a pure function of
/// `(initial, plan, power, rng seed)`.
pub fn materialize(
    initial: &Placement,
    plan: &MotionPlan,
    power: PowerLevel,
    rng: &mut SimRng,
) -> MobileTopology {
    let n = initial.len();
    let range = power.range_ft();
    // Shadow draws happen for every ordered pair — members or not — so
    // RNG consumption is independent of the geometry.
    let mut shadows = vec![0.0f64; n * n];
    for from in 0..n {
        for to in 0..n {
            if from != to {
                shadows[from * n + to] = loss::sample_shadow(rng);
            }
        }
    }
    // Per potential edge, in CSR order: its ends, its shadow and the rate
    // it carries as the frames advance.
    let mut ends: Vec<(NodeId, NodeId)> = Vec::new();
    let mut edge_shadow: Vec<f64> = Vec::new();
    let mut last_ber: Vec<f64> = Vec::new();
    let links = LinkTable::from_rows(n, |f, row| {
        for to in 0..n {
            if f.index() == to {
                continue;
            }
            let t = NodeId::from_index(to);
            let shadow = shadows[f.index() * n + to];
            let limit = loss::audible_limit_ft(range, shadow);
            let ever = initial.distance_ft(f, t) <= limit
                || plan.frames.iter().any(|p| p.distance_ft(f, t) <= limit);
            if !ever {
                continue;
            }
            let ber =
                loss::edge_ber_with_shadow(initial.distance_ft(f, t), range, shadow).unwrap_or(1.0);
            row.push((t, ber));
            ends.push((f, t));
            edge_shadow.push(shadow);
            last_ber.push(ber);
        }
    });
    let mut tick_ends = Vec::with_capacity(plan.frames.len());
    let (mut edge, mut bers) = (Vec::new(), Vec::new());
    for frame in &plan.frames {
        for (e, (&(f, t), &shadow)) in ends.iter().zip(&edge_shadow).enumerate() {
            let ber =
                loss::edge_ber_with_shadow(frame.distance_ft(f, t), range, shadow).unwrap_or(1.0);
            if ber != last_ber[e] {
                edge.push(e as u32);
                bers.push(ber);
                last_ber[e] = ber;
            }
        }
        tick_ends.push(u32::try_from(edge.len()).expect("at most u32::MAX link changes"));
    }
    edge.shrink_to_fit();
    bers.shrink_to_fit();
    MobileTopology {
        topology: Topology {
            placement: initial.clone(),
            links,
            power: vec![power; n],
        },
        updates: MotionSchedule {
            tick: plan.tick,
            tick_ends,
            ends,
            edge,
            ber: bers,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn in_field(p: &Placement, field: Field) -> bool {
        p.iter().all(|(_, pos)| {
            (0.0..=field.width_ft).contains(&pos.x_ft)
                && (0.0..=field.height_ft).contains(&pos.y_ft)
        })
    }

    #[test]
    fn waypoint_motion_stays_inside_the_field() {
        mnp_sim::check("waypoint_motion_stays_inside_the_field", 32, |rng| {
            let (seed, n) = (rng.range_u64(0, 1_000), rng.index(11) + 1);
            let waypoint = MobilityModel::RandomWaypoint {
                speed_ft_s: rng.range_f64(0.0, 8.0),
                pause_s: 2.0,
            };
            let field = Field::new(80.0, 60.0);
            let root = SimRng::new(seed);
            let initial = Placement::random(n, 80.0, 60.0, &mut root.derive(1));
            let plan = waypoint.plan(
                &initial,
                field,
                SimDuration::from_secs(120),
                SimDuration::from_secs(10),
                &root.derive(2),
            );
            assert_eq!(plan.frames.len(), 12);
            for frame in &plan.frames {
                assert_eq!(frame.len(), n);
                assert!(in_field(frame, field));
            }
        });
    }

    #[test]
    fn waypoint_motion_is_seed_deterministic() {
        mnp_sim::check("waypoint_motion_is_seed_deterministic", 32, |rng| {
            let seed = rng.range_u64(0, 1_000);
            let field = Field::new(50.0, 50.0);
            let build = || {
                let root = SimRng::new(seed);
                let initial = Placement::random(6, 50.0, 50.0, &mut root.derive(1));
                MobilityModel::RandomWaypoint {
                    speed_ft_s: 3.0,
                    pause_s: 1.0,
                }
                .plan(
                    &initial,
                    field,
                    SimDuration::from_secs(60),
                    SimDuration::from_secs(5),
                    &root.derive(2),
                )
            };
            assert_eq!(build(), build());
        });
    }

    #[test]
    fn zero_speed_plan_holds_every_node_still_and_schedules_nothing() {
        let field = Field::new(40.0, 40.0);
        let root = SimRng::new(9);
        let initial = Placement::random(5, 40.0, 40.0, &mut root.derive(1));
        let plan = MobilityModel::RandomWaypoint {
            speed_ft_s: 0.0,
            pause_s: 0.0,
        }
        .plan(
            &initial,
            field,
            SimDuration::from_secs(100),
            SimDuration::from_secs(10),
            &root.derive(2),
        );
        for frame in &plan.frames {
            assert_eq!(frame, &initial);
        }
        let mobile = materialize(&initial, &plan, PowerLevel::FULL, &mut root.derive(3));
        assert!(
            mobile.updates.is_empty(),
            "static geometry must induce an empty schedule"
        );
    }

    #[test]
    fn group_members_stay_near_their_reference() {
        let field = Field::new(200.0, 200.0);
        let root = SimRng::new(11);
        let initial = Placement::random(12, 200.0, 200.0, &mut root.derive(1));
        let radius = 25.0;
        let model = MobilityModel::Group {
            groups: 3,
            speed_ft_s: 4.0,
            radius_ft: radius,
        };
        let plan = model.plan(
            &initial,
            field,
            SimDuration::from_secs(300),
            SimDuration::from_secs(15),
            &root.derive(2),
        );
        // Members of one group stay within a 2×radius-diameter disk of
        // each other (both are within `radius` of the reference, modulo
        // field clamping which only pulls them closer together).
        let group_of = |i: usize| i * 3 / 12;
        for frame in &plan.frames {
            assert!(in_field(frame, field));
            for (a, pa) in frame.iter() {
                for (b, pb) in frame.iter() {
                    if group_of(a.index()) == group_of(b.index()) {
                        assert!(
                            pa.distance_ft(pb) <= 2.0 * radius + 1e-9,
                            "{a} and {b} drifted {:.1} ft apart",
                            pa.distance_ft(pb)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn materialize_covers_pairs_that_only_meet_mid_run() {
        // Two nodes 600 ft apart walk toward each other's half of the
        // field: out of range at t = 0 (full power hears ~210 ft), within
        // range later. The potential set must hold the pair from the
        // start, at BER 1.0.
        let initial =
            Placement::from_positions(vec![Position::new(0.0, 0.0), Position::new(600.0, 0.0)]);
        let frames = vec![
            Placement::from_positions(vec![Position::new(250.0, 0.0), Position::new(350.0, 0.0)]),
            Placement::from_positions(vec![Position::new(290.0, 0.0), Position::new(310.0, 0.0)]),
        ];
        let plan = MotionPlan {
            tick: SimDuration::from_secs(30),
            frames,
        };
        let mut rng = SimRng::new(5);
        let mobile = materialize(&initial, &plan, PowerLevel::FULL, &mut rng);
        assert_eq!(
            mobile.topology.links.ber(NodeId(0), NodeId(1)),
            Some(1.0),
            "future edge must exist, disconnected, at t = 0"
        );
        let healed = mobile
            .updates
            .iter()
            .any(|u| u.from == NodeId(0) && u.to == NodeId(1) && u.ber < 1.0);
        assert!(healed, "approaching pair must pick up a usable rate");
        // Updates are in (tick, edge) order and never no-ops.
        let updates: Vec<LinkChange> = mobile.updates.iter().collect();
        for w in updates.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
    }

    #[test]
    fn the_schedule_holds_twelve_bytes_per_change() {
        let root = SimRng::new(3);
        let initial = Placement::random(10, 60.0, 60.0, &mut root.derive(1));
        let plan = MobilityModel::RandomWaypoint {
            speed_ft_s: 2.0,
            pause_s: 5.0,
        }
        .plan(
            &initial,
            Field::new(60.0, 60.0),
            SimDuration::from_secs(600),
            SimDuration::from_secs(10),
            &root.derive(2),
        );
        let mobile = materialize(&initial, &plan, PowerLevel::FULL, &mut root.derive(3));
        let s = &mobile.updates;
        assert!(s.len() > 1_000, "the field moves: {} changes", s.len());
        // Per change: one edge index and one rate, with no spare capacity;
        // besides them only one offset per tick and the edges' ends.
        let per_change = s.edge.capacity() * 4 + s.ber.capacity() * 8;
        assert_eq!(per_change, 12 * s.len());
        assert_eq!(s.tick_ends.capacity(), plan.frames.len());
        assert_eq!(s.ends.len(), mobile.topology.links.edge_count());
        // The changes read back in time order, each on its own edge, with
        // the instant of its tick.
        let changes: Vec<LinkChange> = s.iter().collect();
        assert_eq!(changes.len(), s.len());
        assert_eq!(s.iter().len(), s.len());
        let mut links = mobile.topology.links.clone();
        let mut at = SimTime::ZERO;
        for c in &changes {
            assert!(c.at >= at && c.at.as_micros() % 10_000_000 == 0);
            at = c.at;
            assert_ne!(links.ber(c.from, c.to), Some(c.ber), "a no-op change");
            assert!(links.set_ber(c.from, c.to, c.ber));
        }
    }

    #[test]
    fn materialize_is_seed_deterministic() {
        let root = SimRng::new(21);
        let initial = Placement::random(8, 100.0, 100.0, &mut root.derive(1));
        let plan = MobilityModel::RandomWaypoint {
            speed_ft_s: 3.0,
            pause_s: 0.0,
        }
        .plan(
            &initial,
            Field::new(100.0, 100.0),
            SimDuration::from_secs(120),
            SimDuration::from_secs(10),
            &root.derive(2),
        );
        let a = materialize(&initial, &plan, PowerLevel::FULL, &mut root.derive(3));
        let b = materialize(&initial, &plan, PowerLevel::FULL, &mut root.derive(3));
        assert_eq!(a.updates, b.updates);
        assert!(!a.updates.is_empty());
        assert_eq!(a.topology.links.edge_count(), b.topology.links.edge_count());
    }
}
