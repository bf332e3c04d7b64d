//! Deluge behavioural tests (child module of [`super`](crate::deluge) so
//! they keep private access; split out to keep `deluge.rs` readable).

use super::*;
use mnp_net::{Network, NetworkBuilder};
use mnp_radio::LinkTable;
use mnp_sim::{SimDuration, SimTime};
use mnp_storage::{ImageLayout, ProgramId, ProgramImage};

fn image(segments: u16) -> ProgramImage {
    ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(segments))
}

fn line_links(n: usize, ber: f64) -> LinkTable {
    let mut links = LinkTable::new(n);
    for i in 0..n - 1 {
        links.connect(NodeId::from_index(i), NodeId::from_index(i + 1), ber);
        links.connect(NodeId::from_index(i + 1), NodeId::from_index(i), ber);
    }
    links
}

fn build(links: LinkTable, img: &ProgramImage, seed: u64) -> Network<Deluge> {
    let cfg = DelugeConfig::for_image(img);
    NetworkBuilder::new(links, seed).build(|id, _| {
        if id == NodeId(0) {
            Deluge::base_station(cfg.clone(), img)
        } else {
            Deluge::node(cfg.clone())
        }
    })
}

#[test]
fn single_hop_completes() {
    let img = image(1);
    let mut net = build(line_links(2, 0.0), &img, 3);
    assert!(net.run_until_all_complete(SimTime::from_secs(600)));
    assert!(net.protocol(NodeId(1)).store().is_complete());
}

#[test]
fn multihop_line_completes_in_order() {
    let img = image(2);
    let mut net = build(line_links(4, 0.0), &img, 5);
    assert!(net.run_until_all_complete(SimTime::from_secs(3_000)));
    let t = net.trace();
    let c1 = t.node(NodeId(1)).completion.unwrap();
    let c3 = t.node(NodeId(3)).completion.unwrap();
    assert!(c1 < c3, "hop 1 finishes before hop 3");
}

#[test]
fn lossy_links_still_deliver_exactly() {
    let ber = 1.0 - 0.92f64.powf(1.0 / 376.0);
    let img = image(1);
    let mut net = build(line_links(3, ber), &img, 7);
    assert!(net.run_until_all_complete(SimTime::from_secs(3_000)));
    for i in 1..3 {
        assert!(net.protocol(NodeId::from_index(i)).store().is_complete());
    }
}

#[test]
fn radio_never_sleeps() {
    let img = image(1);
    let mut net = build(line_links(3, 0.0), &img, 9);
    assert!(net.run_until_all_complete(SimTime::from_secs(600)));
    let end = net.now();
    for i in 0..3 {
        let art = net.medium().active_radio_time(NodeId::from_index(i), end);
        assert_eq!(
            art,
            end.saturating_since(SimTime::ZERO),
            "Deluge keeps the radio on"
        );
    }
}

#[test]
fn trickle_suppression_reduces_summaries_in_dense_cell() {
    // A 6-node clique at steady state: most summaries are suppressed.
    let n = 6;
    let mut links = LinkTable::new(n);
    for a in 0..n {
        for b in 0..n {
            if a != b {
                links.connect(NodeId::from_index(a), NodeId::from_index(b), 0.0);
            }
        }
    }
    let img = image(1);
    let mut net = build(links, &img, 11);
    assert!(net.run_until_all_complete(SimTime::from_secs(600)));
    // Keep running a quiet steady-state stretch.
    let until = net.now() + SimDuration::from_secs(300);
    net.run_until(|_| false, until);
    let (mut sent, mut suppressed) = (0, 0);
    for i in 0..n {
        let s = net.protocol(NodeId::from_index(i)).stats;
        sent += s.summaries_sent;
        suppressed += s.summaries_suppressed;
    }
    assert!(
        suppressed > sent / 2,
        "Trickle should suppress in a dense cell: sent {sent}, suppressed {suppressed}"
    );
}

#[test]
fn deterministic_replay() {
    let img = image(1);
    let mut a = build(line_links(3, 0.001), &img, 13);
    let mut b = build(line_links(3, 0.001), &img, 13);
    a.run_until_all_complete(SimTime::from_secs(2_000));
    b.run_until_all_complete(SimTime::from_secs(2_000));
    assert_eq!(a.now(), b.now());
    assert_eq!(a.events_processed(), b.events_processed());
}
