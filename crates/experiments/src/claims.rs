//! The paper's claims as data: one table, checked at two scales.
//!
//! The evaluation rests on shapes — orderings, monotonicities, who wins —
//! not on exact numbers. Each [`Claim`] states one of them once: the
//! paper's words and a predicate over the [`Results`] `reproduce_all`
//! prints. `reproduce_all` checks every claim on [`Results::paper`] (its
//! stdout is the golden `EXPERIMENTS.txt`) and exits non-zero on a miss;
//! Tier-1 checks the same table on [`Results::reduced`] through
//! [`check_reduced`].

use std::fmt;
use std::sync::OnceLock;
use std::thread::{self, ScopedJoinHandle};

use mnp::Mnp;
use mnp_trace::mean;

use crate::ablation::{self, Ablation, AblationRow};
use crate::battery::{self, Battery};
use crate::capture::{self, Capture};
use crate::deluge_cmp::{self, DelugeCmp};
use crate::diagonal::{self, Diagonal};
use crate::fig08::{self, Fig08};
use crate::fig10::{self, Fig10, Fig10Row};
use crate::fig13::{self, Fig13};
use crate::registry::ProtocolId;
use crate::resilience::{self, Chaos, Resilience};
use crate::runner::MoteFigure;
use crate::subsets::{self, Subsets};
use crate::table1::{self, Table1};
use crate::{fig05, fig06, fig07, fig11, fig12};

/// Every table and figure `reproduce_all` prints, from one seed; the
/// `Display` output is exactly its stdout.
#[derive(Debug)]
pub struct Results {
    table1: Table1,
    fig05: MoteFigure,
    fig06: MoteFigure,
    fig07: MoteFigure,
    fig08: Fig08,
    fig10: Fig10,
    fig13: Fig13,
    deluge_cmp: DelugeCmp,
    diagonal: Diagonal,
    battery: Battery,
    subsets: Subsets,
    resilience: Resilience,
    chaos: Chaos,
    capture: Capture,
    ablation: Ablation,
}

/// Experiment sizes: `n` is an `n×n` grid at 10 ft, `k` image segments;
/// Fig. 10 runs a `rows × cols` grid per image size. Figs. 5–7 always run
/// at the paper's (mote-sized) geometry.
struct Scale {
    fig08: (usize, u16),
    fig10: (usize, usize, &'static [u16]),
    fig13: usize,
    deluge_cmp: (usize, u16),
    diagonal: usize,
    battery: usize,
    subsets: usize,
    resilience: (usize, &'static [f64]),
    chaos: (usize, &'static [usize], &'static [usize]),
    capture: (usize, u16),
    ablation: (usize, u16),
}

/// The paper's scales (DESIGN.md §3–4).
const PAPER: Scale = Scale {
    fig08: (20, 4),
    fig10: (20, 20, &[1, 2, 4, 6, 8, 10]),
    fig13: 14,
    deluge_cmp: (20, 2),
    diagonal: 20,
    battery: 10,
    subsets: 12,
    resilience: (10, &[0.0, 0.05, 0.10, 0.20]),
    chaos: (8, &[0, 2, 4, 8], &[0, 8, 16, 32]),
    capture: (20, 2),
    ablation: (10, 2),
};

/// Tier-1's scales: still multihop, about a second in a debug build.
const REDUCED: Scale = Scale {
    fig08: (6, 2),
    // Segments overlap in space only once the network is deeper than a
    // segment is long: on small squares k segments take k one-segment runs.
    fig10: (2, 20, &[1, 2, 4]),
    fig13: 7,
    deluge_cmp: (6, 1),
    diagonal: 7,
    battery: 5,
    subsets: 8,
    resilience: (6, &[0.0, 0.10]),
    chaos: (4, &[0, 2], &[0, 4]),
    // Capture needs a BER spread to act on: on a near-clique the schedule
    // perturbation it causes outweighs the collisions it saves.
    capture: (10, 1),
    ablation: (5, 2),
};

/// The seed Tier-1 checks the claims at: the repository's default seed.
const REDUCED_SEED: u64 = 42;

impl Results {
    /// Every experiment at the paper's scale: `reproduce_all`'s output.
    pub fn paper(seed: u64) -> Self {
        Self::at(&PAPER, seed)
    }

    /// Every experiment at the reduced scale Tier-1 checks [`CLAIMS`] at.
    pub fn reduced(seed: u64) -> Self {
        Self::at(&REDUCED, seed)
    }

    /// Runs each large experiment on its own scoped thread. Every run is
    /// seeded on its own, so the interleaving cannot change a result.
    fn at(s: &Scale, seed: u64) -> Self {
        fn join<T>(handle: ScopedJoinHandle<'_, T>) -> T {
            handle
                .join()
                .unwrap_or_else(|p| std::panic::resume_unwind(p))
        }
        let mnp = ProtocolId::of::<Mnp>();
        let ((n8, k8), (r10, c10, sizes), (nd, kd)) = (s.fig08, s.fig10, s.deluge_cmp);
        let ((nr, kills), (nc, crashes, flaps)) = (s.resilience, s.chaos);
        thread::scope(|scope| {
            let fig10 = scope.spawn(|| fig10::run(r10, c10, sizes, seed));
            let capture = scope.spawn(|| capture::run(s.capture.0, s.capture.1, seed));
            let deluge_cmp = scope.spawn(|| deluge_cmp::run(nd, nd, kd, seed));
            let fig08 = scope.spawn(|| fig08::run(n8, n8, k8, seed));
            let diagonal = scope.spawn(|| diagonal::run(s.diagonal, seed));
            let ablation = scope.spawn(|| ablation::run(s.ablation.0, s.ablation.1, seed));
            let battery = scope.spawn(|| battery::run(s.battery, seed));
            let subsets = scope.spawn(|| subsets::run(s.subsets, seed));
            let resilience = scope.spawn(|| resilience::run(nr, kills, seed));
            let chaos =
                scope.spawn(|| resilience::run_chaos_matrix(mnp, nc, crashes, flaps, &[], seed));
            let fig13 = scope.spawn(|| fig13::run(s.fig13, s.fig13, seed));
            // The small mote figures run here while the threads work.
            Results {
                table1: table1::run(),
                fig05: fig05::run(seed),
                fig06: fig06::run(seed),
                fig07: fig07::run(seed),
                fig08: join(fig08),
                fig10: join(fig10),
                fig13: join(fig13),
                deluge_cmp: join(deluge_cmp),
                diagonal: join(diagonal),
                battery: join(battery),
                subsets: join(subsets),
                resilience: join(resilience),
                chaos: join(chaos),
                capture: join(capture),
                ablation: join(ablation),
            }
        })
    }
}

impl fmt::Display for Results {
    /// Every block followed by a blank line; Figs. 11 and 12 are views of
    /// the Fig. 8 run.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.table1)?;
        writeln!(f, "{}", self.fig05)?;
        writeln!(f, "{}", self.fig06)?;
        writeln!(f, "{}", self.fig07)?;
        writeln!(f, "{}", self.fig08)?;
        writeln!(f, "{}", fig11::report(&self.fig08.outcome))?;
        writeln!(f, "{}", fig12::report(&self.fig08.outcome))?;
        writeln!(f, "{}", self.fig10)?;
        writeln!(f, "{}", self.fig13)?;
        writeln!(f, "{}", self.deluge_cmp)?;
        writeln!(f, "{}", self.diagonal)?;
        writeln!(f, "{}", self.battery)?;
        writeln!(f, "{}", self.subsets)?;
        writeln!(f, "{}", self.resilience)?;
        writeln!(f, "{}", self.chaos)?;
        writeln!(f, "{}", self.capture)?;
        writeln!(f, "{}", self.ablation)
    }
}

/// One claim of the paper's evaluation and the predicate that checks it.
#[derive(Clone, Copy, Debug)]
pub struct Claim {
    /// Stable short id (`F10-linear`); EXPERIMENTS.md cites it.
    pub id: &'static str,
    /// The paper's words; a `§` paraphrase where the OCR lost the sentence.
    pub quote: &'static str,
    /// `Ok` when the results bear the claim out, else what was measured.
    pub holds: fn(&Results) -> Result<(), String>,
}

/// `Ok` if the claim's condition holds, else `Err` with the measurement.
fn check(ok: bool, measured: impl fmt::Debug) -> Result<(), String> {
    ok.then_some(())
        .ok_or_else(|| format!("measured {measured:?}"))
}

/// Sender counts of a mote figure's two runs, the higher power first.
fn senders(fig: &MoteFigure) -> (usize, usize) {
    let count = |run: usize| fig.runs[run].1.trace.sender_order().len();
    (count(0), count(1))
}

/// The ablation rows: full, no-selection, no-sleep, no-pipelining,
/// no-query-update.
///
/// # Panics
///
/// Panics if `ablation::run` produced other variants or another order.
fn variants(r: &Results) -> &[AblationRow; 5] {
    let rows: &[AblationRow; 5] = r.ablation.rows[..].try_into().expect("five variants");
    let names = rows.each_ref().map(|v| v.variant).join(" ");
    assert_eq!(
        names,
        "full no-selection no-sleep no-pipelining no-query-update"
    );
    rows
}

/// The squared correlation of `ys` with `xs` (1 = a straight line).
fn r_squared(xs: &[f64], ys: &[f64]) -> f64 {
    let (mx, my) = (mean(xs), mean(ys));
    let sum = |f: &dyn Fn(f64, f64) -> f64| -> f64 {
        xs.iter().zip(ys).map(|(x, y)| f(x - mx, y - my)).sum()
    };
    sum(&|x, y| x * y).powi(2) / (sum(&|x, _| x * x) * sum(&|_, y| y * y))
}

/// The table: every claim the reproduction checks, in EXPERIMENTS.md order.
pub const CLAIMS: &[Claim] = &[
    Claim {
        id: "F5-senders",
        quote: "\"When nodes are working at a lower power level, more nodes become senders\"",
        holds: |r| check(senders(&r.fig05).0 < senders(&r.fig05).1, senders(&r.fig05)),
    },
    Claim {
        id: "F5-direct",
        quote: "At power 9 \"most of the sensors receive code directly from the base station\"",
        holds: |r| {
            let out = &r.fig05.runs[0].1;
            let base = Some(out.grid.corner());
            let direct = out.trace.iter().filter(|(_, s)| s.parent == base).count();
            let others = out.grid.len() - 1;
            check(2 * direct >= others, (direct, others))
        },
    },
    Claim {
        id: "F6-senders",
        quote: "Fig. 6, as Fig. 5: at the lower power \"more nodes become senders\"",
        holds: |r| check(senders(&r.fig06).0 < senders(&r.fig06).1, senders(&r.fig06)),
    },
    Claim {
        id: "F6-far",
        quote: "\"the nodes that are away from the base station are more likely to become \
                senders\"",
        holds: |r| {
            let out = &r.fig06.runs[0].1;
            let relay = out.trace.sender_order().get(1);
            let hops = relay.map(|&relay| out.grid.chebyshev(out.grid.corner(), relay));
            check(hops.is_none() || hops >= Some(2), (relay, hops))
        },
    },
    Claim {
        id: "F7-multihop",
        quote: "\"The purpose of using this 2×10 grid topology is to better examine multi-hop \
                behavior.\"",
        holds: |r| {
            r.fig07.runs.iter().try_for_each(|(_, out)| {
                let node = |row, col| out.trace.node(out.grid.node_at(row, col));
                let far_parent = node(1, 9).parent;
                let (near, far) = (node(0, 1).completion, node(0, 9).completion);
                let ok = far_parent != Some(out.grid.corner()) && near < far;
                check(ok, (far_parent, near, far))
            })
        },
    },
    Claim {
        id: "R-reliable",
        quote: "\"the exact program image is received\" by every node; only the base station \
                is seeded",
        holds: |r| {
            let motes = [&r.fig05, &r.fig06, &r.fig07];
            let runs = motes.iter().flat_map(|f| &f.runs).map(|(_, out)| out);
            let mut runs = runs.chain([&r.fig08.outcome, &r.fig13.outcome]);
            let done = runs.all(|out| out.completed) && variants(r).iter().all(|v| v.completed);
            let trace = r.fig08.outcome.trace.iter().skip(1);
            let orphans = trace.filter(|(_, s)| s.parent.is_none()).count();
            check(done && orphans == 0, (done, orphans))
        },
    },
    Claim {
        id: "F8-sleep",
        quote: "\"MNP saves energy by turning off a node's radio when it is not supposed to \
                transmit or receive\"",
        holds: |r| {
            let o = &r.fig08.outcome;
            let (sleeps, art, done) = (o.sleeps, o.mean_art_s(), o.completion_s());
            check(sleeps > 0 && art < 0.85 * done, (sleeps, art, done))
        },
    },
    Claim {
        id: "F8-centre",
        quote: "\"The active radio time for the nodes in the center is approximately half (or \
                even less) of those on the edges.\"",
        holds: |r| {
            let (centre, edge) = r.fig08.centre_vs_edge_art();
            check(centre < edge, (centre, edge))
        },
    },
    Claim {
        id: "F9-noidle",
        quote: "Fig. 9: active radio time \"without initial idle listening\" is lower",
        holds: |r| {
            let o = &r.fig08.outcome;
            let pairs = o.art_s.iter().zip(&o.art_noidle_s);
            let worse: Vec<_> = pairs.filter(|(total, noidle)| noidle > total).collect();
            check(worse.is_empty(), worse)
        },
    },
    Claim {
        id: "R-speed",
        quote: "\"new program code should be propagated and installed quickly\"",
        holds: |r| {
            let one = &r.fig10.rows[0];
            check(one.segments == 1 && one.completion_s < 600.0, one)
        },
    },
    Claim {
        id: "F10-linear",
        quote: "\"the completion time is linear with the program size\"",
        holds: |r| {
            let rows = &r.fig10.rows;
            let xs: Vec<f64> = rows.iter().map(|row| f64::from(row.segments)).collect();
            let ys: Vec<f64> = rows.iter().map(|row| row.completion_s).collect();
            let (rising, fit) = (ys.windows(2).all(|w| w[0] < w[1]), r_squared(&xs, &ys));
            // Straight and steep: the largest image takes between half and
            // twice its size ratio longer than the smallest.
            let size = xs[xs.len() - 1] / xs[0];
            let growth = ys[ys.len() - 1] / ys[0];
            let steep = (size / 2.0..=size * 2.0).contains(&growth);
            let ok = rows.len() >= 3 && rising && fit >= 0.95 && steep;
            check(ok, (ys, "r²", fit, "growth", growth))
        },
    },
    Claim {
        id: "F10-art",
        quote: "Fig. 10 (paraphrase): at every program size the active radio time stays below \
                the completion time, and below that again without initial idle listening \
                (the paper's \"around 10%\" is a known divergence)",
        holds: |r| {
            let rows = &r.fig10.rows;
            let fraction = rows.iter().all(|row| row.art_s < row.completion_s);
            let noidle = rows.iter().all(|row| row.art_noidle_s <= row.art_s);
            check(fraction && noidle, rows)
        },
    },
    Claim {
        id: "F11-top",
        quote: "\"The node sending the most number of messages is the base station\"",
        holds: |r| {
            let (top, count) = fig11::report(&r.fig08.outcome).top_sender();
            check(top == 0, (top, count))
        },
    },
    Claim {
        id: "F11-centre",
        quote: "\"the nodes in the center receive many more messages than the ones on the \
                edge or at the corner\"",
        holds: |r| {
            let (centre, edge) = fig11::report(&r.fig08.outcome).centre_vs_edge_received();
            check(centre > edge, (centre, edge))
        },
    },
    Claim {
        id: "F12-flow",
        quote: "\"the number of data messages transmitted remains almost constant during the \
                entire process\"",
        holds: |r| {
            let w = fig12::report(&r.fig08.outcome);
            let [adv, req, data] = [&w.adv, &w.req, &w.data].map(|s| s.iter().sum::<u64>());
            check(adv > 0 && req > 0 && data > adv, (adv, req, data))
        },
    },
    Claim {
        id: "F13-wave",
        quote: "\"data is propagated at a fairly constant rate from the base station to the \
                other end of the network\"",
        holds: |r| {
            let c: Vec<f64> = r.fig13.snapshots.iter().map(|(_, c, _)| *c).collect();
            let from_base = r.fig13.snapshots[0].2.starts_with('#');
            let ok = from_base && c[0] < c[1] && c[1] <= c[2] && c[2] > 0.5;
            check(ok, (from_base, c))
        },
    },
    Claim {
        id: "C1-art",
        quote: "\"MNP saves energy by turning off a node's radio when it is not supposed to \
                transmit or receive\"",
        holds: |r| {
            let c = &r.deluge_cmp;
            let done = c.rows.iter().all(|row| row.completed);
            check(done && c.art_ratio() > 1.5, (done, c.art_ratio()))
        },
    },
    Claim {
        id: "C1-always-on",
        quote: "Deluge \"requires that radio is always on during reprogramming\"",
        holds: |r| {
            let (mnp, deluge) = (&r.deluge_cmp.rows[0], &r.deluge_cmp.rows[1]);
            // No node's ART exceeds completion, so the least one bounds all.
            let always_on = deluge.min_art_s > deluge.completion_s - 1.0;
            let sleeps = mnp.art_s < 0.9 * mnp.completion_s;
            check(always_on && sleeps, (mnp, deluge))
        },
    },
    Claim {
        id: "C2-diagonal",
        quote: "Deluge's diagonal is \"significantly\" slower than its edge; for MNP \"we did \
                not observe this kind of behavior\"",
        holds: |r| {
            let mnp = &r.diagonal.rows[0];
            let (slow, edge) = (mnp.slowdown(), &mnp.edge_s);
            check(slow < 1.6 && edge.last() > edge.get(1), (slow, edge))
        },
    },
    Claim {
        id: "X1-battery",
        quote: "\"the probability that a sensor forwards the code to others depends on its \
                remaining battery level\"",
        holds: |r| {
            let b = &r.battery;
            let layout = b.quartiles.len() == 4 && b.quartiles[0].0 == 0.25;
            let shifted = b.quartiles[3].1 >= b.quartiles[0].1;
            check(layout && b.completed && shifted, b)
        },
    },
    Claim {
        id: "X2-clean",
        quote: "\"we can send different types of data to several disjoint or non-disjoint \
                subsets of the network\"",
        holds: |r| {
            let s = &r.subsets;
            let untouched = s.outsider_packets == 0 && s.outsider_sent == 0;
            check(s.members_complete && untouched, s)
        },
    },
    Claim {
        id: "X2-sleep",
        quote: "Outsiders sleep through \"a segment that is not of interest\"",
        holds: |r| {
            let s = &r.subsets;
            check(s.outsider_art_s < 0.9 * s.completion_s, s)
        },
    },
    Claim {
        id: "X3-failstop",
        quote: "Recovery when \"the sender dies as it is sending packets\"",
        holds: |r| {
            let floor = |killed| if killed == 0 { 1.0 } else { 0.9 };
            let mut rows = r.resilience.rows.iter();
            let covered = rows.all(|row| row.survivor_coverage >= floor(row.killed));
            check(covered, &r.resilience)
        },
    },
    Claim {
        id: "X3-transient",
        quote: "§3.3 (paraphrase): a crash–restart keeps its EEPROM and a flapped link comes \
                back, so transient faults cost time, not coverage",
        holds: |r| check(r.chaos.all_rows().all(|row| row.coverage == 1.0), &r.chaos),
    },
    Claim {
        id: "X4-capture",
        quote: "§4 (paraphrase): with overlapping frames the radio decides receptions; one \
                that lets the stronger frame survive loses fewer of them",
        holds: |r| {
            let (off, on) = (&r.capture.rows[0], &r.capture.rows[1]);
            let ok = !off.capture && on.capture && on.collisions < off.collisions;
            check(ok, &r.capture)
        },
    },
    Claim {
        id: "A1-selection",
        quote: "Sender selection: a losing source concludes \"Some node in the neighborhood \
                has won this round.\"",
        holds: |r| {
            let [full, wild, ..] = variants(r);
            let damage = |v: &AblationRow| v.collisions as f64 + v.messages;
            let bounded = (full.collisions as f64) < 20.0 * full.messages;
            check(bounded && damage(wild) > damage(full), (full, wild))
        },
    },
    Claim {
        id: "A2-sleep",
        quote: "\"MNP saves energy by turning off a node's radio when it is not supposed to \
                transmit or receive\"",
        holds: |r| {
            let [full, _, awake, ..] = variants(r);
            let always_on = (awake.art_s - awake.completion_s).abs() < 1.0;
            check(always_on && full.art_s < awake.art_s, (full, awake))
        },
    },
    Claim {
        id: "A3-pipelining",
        quote: "§3.1.2 (paraphrase): segments propagate in order, so distant parts of the \
                network transfer different segments at once",
        holds: |r| {
            let [full, _, _, basic, _] = variants(r);
            // Fig. 10: k segments take less than k one-segment runs (its
            // first row, as R-speed checks).
            let (one, rows) = (&r.fig10.rows[0], &r.fig10.rows[1..]);
            let serial = |row: &&Fig10Row| f64::from(row.segments) * one.completion_s;
            let slower = rows.iter().find(|row| row.completion_s >= serial(row));
            let ok = slower.is_none() && basic.completion_s > full.completion_s;
            check(ok, (full, basic, slower))
        },
    },
    Claim {
        id: "A4-repair",
        quote: "Without repair a receiver \"will wait for reasonably long time until it \
                concludes that this download process fails\"",
        holds: |r| {
            let [full, .., bare] = variants(r);
            check(full.fails < bare.fails, (full, bare))
        },
    },
];

/// Checks claim `id` against the reduced-scale results (built once per
/// process, on first use) and panics with the measurement on a miss: how
/// a Tier-1 test checks a claim.
///
/// # Panics
///
/// Panics if the claim misses or no claim is named `id`.
pub fn check_reduced(id: &str) {
    static REDUCED_RESULTS: OnceLock<Results> = OnceLock::new();
    let results = REDUCED_RESULTS.get_or_init(|| Results::reduced(REDUCED_SEED));
    let claim = CLAIMS.iter().find(|c| c.id == id);
    let claim = claim.unwrap_or_else(|| panic!("no claim {id}"));
    if let Err(measured) = (claim.holds)(results) {
        panic!("claim {id} misses at the reduced scale (seed {REDUCED_SEED}): {measured}");
    }
}

/// Declares one `#[test]` per `name => "ID"` pair that checks claim `ID`
/// with [`check_reduced`]. The names are those the shape tests of earlier
/// revisions ran under; each is now an alias of one claim.
#[doc(hidden)]
#[macro_export]
macro_rules! __claim_tests {
    ($($name:ident => $id:literal,)+) => {
        $(
            #[test]
            fn $name() {
                $crate::claims::check_reduced($id);
            }
        )+
    };
}
pub use crate::__claim_tests as claim_tests;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_claim_holds_at_the_reduced_scale() {
        for (i, claim) in CLAIMS.iter().enumerate() {
            assert!(CLAIMS[..i].iter().all(|c| c.id != claim.id), "{}", claim.id);
            check_reduced(claim.id);
        }
    }
}
