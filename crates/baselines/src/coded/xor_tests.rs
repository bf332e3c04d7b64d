//! XOR-recoding behavioural tests (child module of
//! [`super`](crate::coded::xor) so they keep private access; split out to
//! keep `xor.rs` readable).

use super::*;
use mnp_net::{Network, NetworkBuilder};
use mnp_radio::LinkTable;
use mnp_sim::SimTime;
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

fn build(links: LinkTable, img: &ProgramImage, seed: u64) -> Network<Xor> {
    let cfg = XorConfig::for_image(img);
    NetworkBuilder::new(links, seed).build(|id, _| {
        if id == NodeId(0) {
            Xor::base_station(cfg.clone(), img)
        } else {
            Xor::node(cfg.clone())
        }
    })
}

#[test]
fn single_hop_completes() {
    let img = image(1);
    let mut net = build(line_links(2, 0.0), &img, 3);
    assert!(net.run_until_all_complete(SimTime::from_secs(600)));
    assert!(net.protocol(NodeId(1)).store().is_complete());
    assert_eq!(net.protocol(NodeId(1)).stats.recovered, 128);
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
fn recoder_mixes_for_disjoint_losses() {
    // A base serving two leaf requesters over lossy links: their loss
    // patterns diverge, so the greedy planner finds degree-2 mixes and
    // one broadcast repairs two different packets.
    let ber = 1.0 - 0.80f64.powf(1.0 / 376.0);
    let n = 3;
    let mut links = LinkTable::new(n);
    for leaf in 1..n {
        links.connect(NodeId(0), NodeId::from_index(leaf), ber);
        links.connect(NodeId::from_index(leaf), NodeId(0), ber);
    }
    let img = image(1);
    let mut net = build(links, &img, 21);
    assert!(net.run_until_all_complete(SimTime::from_secs(3_000)));
    let base = net.protocol(NodeId(0)).stats;
    assert!(
        base.mixed_sent > 0,
        "two divergent requesters should yield at least one real mix"
    );
}

#[test]
fn plan_mix_groups_disjoint_targets() {
    let limit = image(1).layout().packets_in_segment(0);
    let mut x = XorPlane::default();
    // A misses {0}, B misses {1}, C misses {0, 2} (conflicts with A).
    let mut a = PacketBitmap::empty();
    a.set(0);
    let mut b = PacketBitmap::empty();
    b.set(1);
    let mut c = PacketBitmap::empty();
    c.set(0);
    c.set(2);
    x.reqs = vec![(NodeId(1), a), (NodeId(2), b), (NodeId(3), c)];
    // C misses 0 (already mixed for A), so it cannot join the group with
    // its own target — the mix serves A and B.
    let mix = x.plan_mix(0, limit, 3);
    assert_eq!(mix.ids().collect::<Vec<_>>(), [0, 1]);
    x.clear_served(&mix);
    // A and B are fully served. C, missing exactly one constituent (0),
    // decodes it from the same broadcast, leaving only packet 2.
    assert_eq!(x.reqs.len(), 1);
    assert_eq!(x.reqs[0].0, NodeId(3));
    assert_eq!(x.reqs[0].1.count(), 1);
    assert!(x.reqs[0].1.get(2));
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

#[test]
#[should_panic(expected = "an XOR frame of 3 + 4 + 23 bytes exceeds the 29-byte radio payload")]
fn a_mix_too_wide_for_a_frame_is_rejected_at_construction() {
    let mut cfg = XorConfig::for_image(&image(1));
    cfg.max_degree = 4;
    let _ = Xor::node(cfg);
}

#[test]
#[should_panic(expected = "XOR max_degree must be at least 1")]
fn a_zero_mixing_degree_is_rejected_at_construction() {
    let mut cfg = XorConfig::for_image(&image(1));
    cfg.max_degree = 0;
    let _ = Xor::node(cfg);
}
