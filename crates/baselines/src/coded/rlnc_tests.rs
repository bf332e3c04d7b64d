//! RLNC behavioural tests (child module of [`super`](crate::coded::rlnc)
//! so they keep private access; split out to keep `rlnc.rs` readable).

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

fn build(links: LinkTable, img: &ProgramImage, seed: u64) -> Network<Rlnc> {
    let cfg = RlncConfig::for_image(img);
    NetworkBuilder::new(links, seed).build(|id, _| {
        if id == NodeId(0) {
            Rlnc::base_station(cfg.clone(), img)
        } else {
            Rlnc::node(cfg.clone())
        }
    })
}

#[test]
fn single_hop_completes() {
    let img = image(1);
    let mut net = build(line_links(2, 0.0), &img, 3);
    assert!(net.run_until_all_complete(SimTime::from_secs(600)));
    assert!(net.protocol(NodeId(1)).store().is_complete());
    let s = net.protocol(NodeId(1)).stats;
    assert!(s.innovative >= 128, "a full generation is 128 ranks");
    assert_eq!(s.decodes, 1);
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
fn any_innovative_subset_completes_rank() {
    // The coding claim itself: under loss, the receiver needs *some* 128
    // innovative packets, not 128 specific ones — so the redundant count
    // stays near the extra_coded overshoot instead of a per-packet
    // re-request tail.
    let ber = 1.0 - 0.85f64.powf(1.0 / 376.0);
    let img = image(1);
    let mut net = build(line_links(2, ber), &img, 11);
    assert!(net.run_until_all_complete(SimTime::from_secs(3_000)));
    let s = net.protocol(NodeId(1)).stats;
    assert_eq!(s.decodes, 1);
    assert!(
        s.innovative == 128,
        "exactly one full rank was accumulated: {}",
        s.innovative
    );
}

#[test]
fn decode_rank_exposes_the_frontier() {
    let img = image(1);
    let mut net = build(line_links(2, 0.0), &img, 13);
    let (gen, rank, size) = net.protocol(NodeId(1)).decode_rank();
    assert_eq!((gen, rank, size), (0, 0, 128));
    assert!(net.run_until_all_complete(SimTime::from_secs(600)));
    assert!(net.protocol(NodeId(1)).is_complete());
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
#[should_panic(expected = "a coded frame of 6 + 24 bytes exceeds the 29-byte radio payload")]
fn a_payload_too_wide_for_a_coded_frame_is_rejected_at_construction() {
    let img = ProgramImage::synthetic(ProgramId(1), ImageLayout::new(24 * 128, 128, 24));
    let _ = Rlnc::node(RlncConfig::for_image(&img));
}
