//! Integration-style tests of the full MNP state machine (moved verbatim
//! from the pre-split `node.rs`).

use mnp_net::{Network, NetworkBuilder};
use mnp_radio::{LinkTable, NodeId};
use mnp_sim::{SimDuration, SimTime};
use mnp_storage::{ImageLayout, ProgramId, ProgramImage};

use crate::config::MnpConfig;

use super::{Mnp, MnpState};

fn image(segments: u16) -> ProgramImage {
    ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(segments))
}

fn clique_links(n: usize, ber: f64) -> LinkTable {
    let mut links = LinkTable::new(n);
    for a in 0..n {
        for b in 0..n {
            if a != b {
                links.connect(NodeId::from_index(a), NodeId::from_index(b), ber);
            }
        }
    }
    links
}

fn line_links(n: usize, ber: f64) -> LinkTable {
    let mut links = LinkTable::new(n);
    for i in 0..n - 1 {
        links.connect(NodeId::from_index(i), NodeId::from_index(i + 1), ber);
        links.connect(NodeId::from_index(i + 1), NodeId::from_index(i), ber);
    }
    links
}

fn build(
    links: LinkTable,
    img: &ProgramImage,
    seed: u64,
    tweak: impl Fn(&mut MnpConfig),
) -> Network<Mnp> {
    let mut cfg = MnpConfig::for_image(img);
    tweak(&mut cfg);
    NetworkBuilder::new(links, seed).build(|id, _| {
        if id == NodeId(0) {
            Mnp::base_station(cfg.clone(), img)
        } else {
            Mnp::node(cfg.clone())
        }
    })
}

fn assert_all_complete(net: &Network<Mnp>, img: &ProgramImage) {
    for i in 0..net.len() {
        let p = net.protocol(NodeId::from_index(i));
        assert!(p.is_complete(), "node {i} incomplete");
        assert_eq!(
            p.store().assembled_checksum(),
            img.checksum(),
            "node {i} image corrupt"
        );
    }
}

#[test]
fn single_hop_dissemination_completes() {
    let img = image(1);
    let mut net = build(clique_links(3, 0.0), &img, 11, |_| {});
    assert!(net.run_until_all_complete(SimTime::from_secs(600)));
    assert_all_complete(&net, &img);
}

#[test]
fn multihop_line_disseminates_hop_by_hop() {
    let img = image(1);
    let mut net = build(line_links(4, 0.0), &img, 13, |_| {});
    assert!(net.run_until_all_complete(SimTime::from_secs(1_200)));
    assert_all_complete(&net, &img);
    // Parents chain outward from the base.
    let t = net.trace();
    assert_eq!(t.node(NodeId(1)).parent, Some(NodeId(0)));
    assert_eq!(t.node(NodeId(2)).parent, Some(NodeId(1)));
    assert_eq!(t.node(NodeId(3)).parent, Some(NodeId(2)));
    // Completion order follows the chain.
    let c1 = t.node(NodeId(1)).completion.unwrap();
    let c3 = t.node(NodeId(3)).completion.unwrap();
    assert!(c1 < c3);
}

#[test]
fn multi_segment_image_pipelines_in_order() {
    let img = image(3);
    let mut net = build(line_links(3, 0.0), &img, 17, |_| {});
    assert!(net.run_until_all_complete(SimTime::from_secs(3_000)));
    assert_all_complete(&net, &img);
}

#[test]
fn lossy_links_still_deliver_exactly() {
    // ~8% packet loss on every link (ber such that a full data packet
    // survives 92% of the time).
    let ber = 1.0 - 0.92f64.powf(1.0 / 376.0);
    let img = image(1);
    let mut net = build(clique_links(3, ber), &img, 19, |_| {});
    assert!(net.run_until_all_complete(SimTime::from_secs(3_000)));
    assert_all_complete(&net, &img);
}

#[test]
fn lossy_links_without_query_update_converge_via_retry() {
    let ber = 1.0 - 0.92f64.powf(1.0 / 376.0);
    let img = image(1);
    let mut net = build(clique_links(3, ber), &img, 23, |c| c.query_update = false);
    assert!(net.run_until_all_complete(SimTime::from_secs(6_000)));
    assert_all_complete(&net, &img);
}

#[test]
fn at_most_one_sender_per_neighborhood() {
    // In a clique, sender selection must serialize the senders: while
    // anyone forwards, no rival forwards concurrently. We verify via
    // the medium: no node ever saw a collision (two overlapping
    // audible data streams would collide at receivers).
    let img = image(1);
    let mut net = build(clique_links(5, 0.0), &img, 29, |_| {});
    assert!(net.run_until_all_complete(SimTime::from_secs(1_200)));
    // CSMA prevents most collisions; sender selection prevents
    // sustained concurrent streams. Allow a tiny residue from
    // simultaneous backoff expiry.
    let collisions: u64 = (0..5)
        .map(|i| net.medium().stats(NodeId(i)).collisions)
        .sum();
    assert!(collisions < 20, "excessive collisions: {collisions}");
}

#[test]
fn sleep_reduces_active_radio_time() {
    // A line forces asymmetric progress: once node 1 finishes a segment
    // and forwards it to node 2, the base (still advertising) overhears
    // the transfer and sleeps through it.
    let img = image(2);
    let mut net = build(line_links(5, 0.0), &img, 31, |_| {});
    assert!(net.run_until_all_complete(SimTime::from_secs(4_000)));
    let end = net.trace().completion_time().unwrap();
    net.finalize_meters(end);
    let completion = end.saturating_since(SimTime::ZERO);
    // At least one node must have spent real time asleep.
    let min_art = (0..5)
        .map(|i| net.trace().node(NodeId(i)).active_radio)
        .min()
        .unwrap();
    assert!(
        min_art < completion,
        "sleeping never happened: art {min_art} vs completion {completion}"
    );
    let slept: u64 = (0..5).map(|i| net.protocol(NodeId(i)).stats.sleeps).sum();
    assert!(slept > 0, "nobody slept");
}

#[test]
fn sleep_disabled_keeps_radio_on_continuously() {
    let img = image(1);
    let mut net = build(clique_links(3, 0.0), &img, 37, |c| c.sleep_enabled = false);
    assert!(net.run_until_all_complete(SimTime::from_secs(1_200)));
    let end = net.trace().completion_time().unwrap();
    net.finalize_meters(end);
    for i in 0..3 {
        let art = net.trace().node(NodeId::from_index(i)).active_radio;
        assert_eq!(
            art,
            end.saturating_since(SimTime::ZERO),
            "node {i} radio should never sleep"
        );
    }
    assert_all_complete(&net, &img);
}

#[test]
fn pipelining_disabled_still_completes() {
    let img = image(2);
    let mut net = build(line_links(3, 0.0), &img, 41, |c| c.pipelining = false);
    assert!(net.run_until_all_complete(SimTime::from_secs(4_000)));
    assert_all_complete(&net, &img);
}

#[test]
fn sender_selection_disabled_still_completes() {
    let img = image(1);
    let mut net = build(clique_links(4, 0.0), &img, 43, |c| {
        c.sender_selection = false
    });
    assert!(net.run_until_all_complete(SimTime::from_secs(2_000)));
    assert_all_complete(&net, &img);
}

#[test]
fn base_station_completes_at_time_zero() {
    let img = image(1);
    let mut net = build(clique_links(2, 0.0), &img, 47, |_| {});
    net.run_until(|_| false, SimTime::from_millis(1));
    assert_eq!(net.trace().node(NodeId(0)).completion, Some(SimTime::ZERO));
}

#[test]
fn every_packet_written_once() {
    let ber = 1.0 - 0.9f64.powf(1.0 / 376.0);
    let img = image(1);
    let mut net = build(clique_links(3, ber), &img, 53, |_| {});
    assert!(net.run_until_all_complete(SimTime::from_secs(3_000)));
    // PacketStore would have returned DuplicateWrite (and the expect in
    // on_data would have panicked) on any double write; additionally the
    // line-write count must equal exactly one segment's worth.
    let per_packet_lines = 2; // ceil(23 / 16)
    for i in 1..3 {
        let p = net.protocol(NodeId::from_index(i));
        assert_eq!(
            p.store().line_writes,
            128 * per_packet_lines,
            "node {i} wrote flash more than once per packet"
        );
    }
}

#[test]
fn disconnected_node_never_completes() {
    // Two connected nodes plus an isolated third.
    let links = {
        let mut l = LinkTable::new(3);
        for (a, b) in [(0u32, 1u32), (1, 0)] {
            l.connect(NodeId(a), NodeId(b), 0.0);
        }
        l
    };
    let img = image(1);
    let mut net = build(links, &img, 59, |_| {});
    assert!(!net.run_until_all_complete(SimTime::from_secs(300)));
    assert!(!net.protocol(NodeId(2)).is_complete());
    assert!(net.protocol(NodeId(1)).is_complete());
}

#[test]
fn uninterested_node_stores_nothing_and_sleeps() {
    let img = image(1);
    let cfg = MnpConfig::for_image(&img);
    let mut net: Network<Mnp> =
        NetworkBuilder::new(clique_links(3, 0.0), 67).build(|id, _| match id.0 {
            0 => Mnp::base_station(cfg.clone(), &img),
            1 => Mnp::node(cfg.clone()),
            _ => Mnp::node_uninterested(cfg.clone()),
        });
    // Run until the interested node completes.
    let done = net.run_until(
        |n| n.protocol(NodeId(1)).is_complete(),
        SimTime::from_secs(1_200),
    );
    assert!(done);
    let outsider = net.protocol(NodeId(2));
    assert!(!outsider.is_interested());
    assert!(!outsider.is_complete());
    assert_eq!(outsider.store().packets_received(), 0, "must not store");
    assert_eq!(net.trace().node(NodeId(2)).sent, 0, "must not transmit");
    assert!(outsider.stats.sleeps > 0, "must sleep through the transfer");
    // And it saved energy relative to always-on.
    let art = net.medium().active_radio_time(NodeId(2), net.now());
    assert!(art < net.now().saturating_since(SimTime::ZERO));
}

#[test]
fn subset_members_complete_despite_uninterested_bystanders() {
    let img = image(1);
    let cfg = MnpConfig::for_image(&img);
    // Line 0-1-2-3 where 1 and 3 are outside the subset; members 0 and
    // 2 are still radio-connected through... they are NOT: node 1 will
    // not relay. Use a clique so membership does not partition the
    // members.
    let mut net: Network<Mnp> =
        NetworkBuilder::new(clique_links(4, 0.0), 71).build(|id, _| match id.0 {
            0 => Mnp::base_station(cfg.clone(), &img),
            2 => Mnp::node(cfg.clone()),
            _ => Mnp::node_uninterested(cfg.clone()),
        });
    let done = net.run_until(
        |n| n.protocol(NodeId(2)).is_complete(),
        SimTime::from_secs(1_200),
    );
    assert!(done, "subset member must complete");
    assert!(!net.protocol(NodeId(1)).is_complete());
    assert!(!net.protocol(NodeId(3)).is_complete());
}

#[test]
fn incremental_update_transfers_only_the_tail() {
    // Nodes already hold 2 of 3 segments; only segment 2 crosses the
    // air, so completion is far faster and data volume far lower than
    // a from-scratch dissemination.
    let img = image(3);
    let cfg = MnpConfig::for_image(&img);
    let links = clique_links(3, 0.0);

    let mut fresh: Network<Mnp> = NetworkBuilder::new(links.clone(), 111).build(|id, _| {
        if id == NodeId(0) {
            Mnp::base_station(cfg.clone(), &img)
        } else {
            Mnp::node(cfg.clone())
        }
    });
    assert!(fresh.run_until_all_complete(SimTime::from_secs(3_000)));
    let fresh_time = fresh.trace().completion_time().unwrap();

    let mut delta: Network<Mnp> = NetworkBuilder::new(links, 111).build(|id, _| {
        if id == NodeId(0) {
            Mnp::base_station(cfg.clone(), &img)
        } else {
            Mnp::node_with_prefix(cfg.clone(), &img, 2)
        }
    });
    assert!(delta.run_until_all_complete(SimTime::from_secs(3_000)));
    let delta_time = delta.trace().completion_time().unwrap();

    assert!(
        delta_time.as_secs_f64() < fresh_time.as_secs_f64() / 2.0,
        "delta update should be much faster: {delta_time} vs {fresh_time}"
    );
    // Only the tail was written to flash.
    for i in 1..3 {
        let p = delta.protocol(NodeId::from_index(i));
        assert!(p.is_complete());
        assert_eq!(p.store().line_writes, 128 * 2, "one segment of writes");
    }
}

#[test]
fn prefix_holding_node_serves_its_prefix() {
    // A node with the full image preloaded behaves like a second base
    // once it starts advertising (after its first wake/finish); at
    // minimum it must never re-download anything.
    let img = image(1);
    let cfg = MnpConfig::for_image(&img);
    let mut net: Network<Mnp> = NetworkBuilder::new(clique_links(2, 0.0), 113).build(|id, _| {
        if id == NodeId(0) {
            Mnp::base_station(cfg.clone(), &img)
        } else {
            Mnp::node_with_prefix(cfg.clone(), &img, 1)
        }
    });
    // Node 1's store is complete but `completed` only flips on its
    // first finish_segment; it must not fetch anything meanwhile.
    net.run_until(|_| false, SimTime::from_secs(60));
    assert_eq!(net.protocol(NodeId(1)).store().line_writes, 0);
    assert_eq!(net.protocol(NodeId(1)).stats.requests_sent, 0);
}

#[test]
#[should_panic(expected = "image/layout mismatch")]
fn prefix_image_with_another_layout_is_rejected() {
    // Same program ID, but the image on flash is cut differently from
    // the one the config describes.
    let cfg = MnpConfig::for_image(&image(2));
    let _ = Mnp::node_with_prefix(cfg, &image(3), 1);
}

#[test]
fn state_time_accounting_covers_the_run() {
    let img = image(1);
    let mut net = build(line_links(3, 0.0), &img, 73, |_| {});
    assert!(net.run_until_all_complete(SimTime::from_secs(1_200)));
    // Each node's state-time buckets sum approximately to the span up
    // to its last event (event-granular accounting).
    for i in 0..3 {
        let p = net.protocol(NodeId::from_index(i));
        let total: u64 = p.state_times.micros.iter().sum();
        assert!(
            total <= net.now().as_micros(),
            "node {i} accounted {total}us over a {} run",
            net.now()
        );
        assert!(total > 0, "node {i} accounted nothing");
    }
    // The base forwarded: its Forward bucket is nonzero.
    let base = net.protocol(NodeId(0));
    assert!(base.state_times.of(MnpState::Forward) > SimDuration::ZERO);
}

#[test]
fn query_update_repairs_over_a_lossy_link() {
    // One-way loss on the 0→1 data path makes gaps likely; the repair
    // phase must fill them within the same round most of the time
    // (fewer fails than without repair, tested in ablation; here we
    // just assert the retransmission machinery actually fires across
    // seeds).
    let ber = 1.0 - 0.85f64.powf(1.0 / 376.0);
    let img = image(1);
    let mut total_retx = 0;
    for seed in 80..85 {
        let mut net = build(clique_links(2, ber), &img, seed, |_| {});
        assert!(net.run_until_all_complete(SimTime::from_secs(3_000)));
        total_retx += net.protocol(NodeId(0)).stats.retransmissions;
    }
    assert!(total_retx > 0, "repairs never happened across 5 lossy runs");
}

#[test]
fn grace_window_catches_requests_after_the_last_advertisement() {
    // A 2-node net: the node's request is provoked by an advertisement
    // and lands after it; without the decision grace window the base
    // would conclude "no requesters" and back off. Completion within a
    // couple of advertisement rounds proves the window works.
    let img = image(1);
    let mut net = build(clique_links(2, 0.0), &img, 89, |_| {});
    assert!(net.run_until_all_complete(SimTime::from_secs(120)));
    let t = net.trace().completion_time().unwrap();
    assert!(
        t < SimTime::from_secs(60),
        "first-round service expected, got {t}"
    );
}

#[test]
fn completed_nodes_duty_cycle_when_the_network_goes_quiet() {
    let img = image(1);
    let mut net = build(clique_links(3, 0.0), &img, 97, |_| {});
    assert!(net.run_until_all_complete(SimTime::from_secs(600)));
    let completion = net.trace().completion_time().unwrap();
    // Run 120 s of quiet steady state.
    let horizon = completion + SimDuration::from_secs(120);
    net.run_until(|_| false, horizon);
    for i in 0..3 {
        let id = NodeId::from_index(i);
        let art = net.medium().active_radio_time(id, net.now());
        let span = net.now().saturating_since(SimTime::ZERO);
        assert!(
            art.as_secs_f64() < span.as_secs_f64() * 0.9,
            "node {i} should sleep through the quiet phase: {art} of {span}"
        );
    }
}

#[test]
fn stats_counters_are_internally_consistent() {
    let img = image(2);
    let mut net = build(line_links(4, 0.0), &img, 101, |_| {});
    assert!(net.run_until_all_complete(SimTime::from_secs(2_000)));
    for i in 0..4 {
        let s = net.protocol(NodeId::from_index(i)).stats;
        assert!(s.fails >= s.fails_dl_timeout + s.fails_update);
        if i == 0 {
            assert!(s.forward_rounds > 0, "the base must forward");
            assert_eq!(s.requests_sent, 0, "the base never requests");
        }
    }
}

#[test]
fn deterministic_replay() {
    let img = image(1);
    let mut a = build(clique_links(4, 0.001), &img, 61, |_| {});
    let mut b = build(clique_links(4, 0.001), &img, 61, |_| {});
    a.run_until_all_complete(SimTime::from_secs(2_000));
    b.run_until_all_complete(SimTime::from_secs(2_000));
    assert_eq!(a.now(), b.now());
    assert_eq!(a.events_processed(), b.events_processed());
    for i in 0..4 {
        let id = NodeId::from_index(i);
        assert_eq!(a.trace().node(id).completion, b.trace().node(id).completion);
    }
}
