//! Property-based integration tests: protocol invariants under random
//! topologies, image sizes and seeds.

use proptest::prelude::*;

use mnp_repro::prelude::*;
use mnp_repro::protocol::engine::{self, ForwardVector};

/// Builds a random connected link graph of `n` nodes by sprinkling them in
/// a field sized to keep the graph connected most of the time, resampling
/// otherwise.
fn connected_random_links(n: usize, seed: u64) -> LinkTable {
    let mut rng = SimRng::new(seed);
    loop {
        let placement = Placement::random(
            n,
            25.0 * (n as f64).sqrt(),
            20.0 * (n as f64).sqrt(),
            &mut rng,
        );
        let topo = TopologyBuilder::new(placement).build(&mut rng);
        if topo
            .links
            .reaches_all_usable(NodeId(0), mnp_repro::radio::loss::usable_ber_threshold())
        {
            return topo.links;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12, // whole-network simulations are expensive
    })]

    /// Coverage + accuracy: on any connected random field, every node ends
    /// with a checksum-verified copy (the protocol asserts the checksum on
    /// completion; we assert coverage and byte-equality of stores here).
    #[test]
    fn prop_dissemination_is_exact_on_random_fields(
        n in 6usize..16,
        segments in 1u16..3,
        seed in 0u64..1_000,
    ) {
        let links = connected_random_links(n, seed);
        let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(segments));
        let cfg = MnpConfig::for_image(&image);
        let mut net: Network<Mnp> = NetworkBuilder::new(links, seed).build(|id, _| {
            if id == NodeId(0) {
                Mnp::base_station(cfg.clone(), &image)
            } else {
                Mnp::node(cfg.clone())
            }
        });
        prop_assert!(net.run_until_all_complete(SimTime::from_secs(4 * 3_600)));
        for i in 0..n {
            let p = net.protocol(NodeId::from_index(i));
            prop_assert!(p.is_complete());
            prop_assert_eq!(p.store().assembled_checksum(), image.checksum());
        }
    }

    /// The write-once EEPROM invariant holds under any loss pattern: each
    /// node's flash line-writes equal exactly the image's packet count
    /// times lines-per-packet.
    #[test]
    fn prop_every_packet_written_exactly_once(seed in 0u64..1_000) {
        let links = connected_random_links(8, seed);
        let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(1));
        let cfg = MnpConfig::for_image(&image);
        let mut net: Network<Mnp> = NetworkBuilder::new(links, seed).build(|id, _| {
            if id == NodeId(0) {
                Mnp::base_station(cfg.clone(), &image)
            } else {
                Mnp::node(cfg.clone())
            }
        });
        prop_assert!(net.run_until_all_complete(SimTime::from_secs(2 * 3_600)));
        let lines_per_packet = 23usize.div_ceil(16) as u64;
        for i in 1..8 {
            let p = net.protocol(NodeId::from_index(i));
            prop_assert_eq!(p.store().line_writes, 128 * lines_per_packet);
        }
    }

    /// Active radio time never exceeds the measurement window, and the
    /// "without initial idle" variant never exceeds the total.
    #[test]
    fn prop_art_accounting_is_consistent(
        rows in 3usize..6,
        cols in 3usize..6,
        seed in 0u64..500,
    ) {
        let out = GridExperiment::new(rows, cols, 10.0).segments(1).seed(seed).run::<Mnp>(|_| {});
        prop_assert!(out.completed);
        let completion = out.completion_s();
        for (total, noidle) in out.art_s.iter().zip(&out.art_noidle_s) {
            prop_assert!(*total <= completion + 1e-6);
            prop_assert!(*noidle <= *total + 1e-6);
            prop_assert!(*total >= 0.0 && *noidle >= 0.0);
        }
    }

    /// The engine's MissingVector is the exact complement of the store:
    /// a bit is set iff the packet has not been written.
    #[test]
    fn prop_missing_vector_complements_the_store(
        written in proptest::collection::vec(0u16..128, 0..96),
    ) {
        let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(1));
        let mut store = PacketStore::new(ProgramId(1), image.layout());
        for &pkt in &written {
            // Duplicates in `written` double as a write-once check.
            let first_time = !store.has_packet(0, pkt);
            let stored = engine::store_packet_once(&mut store, 0, pkt, image.packet_payload(0, pkt));
            prop_assert_eq!(stored, first_time);
        }
        let missing = engine::missing_vector(&store, 0);
        for pkt in 0..128u16 {
            prop_assert_eq!(missing.get(pkt), !written.contains(&pkt));
        }
    }

    /// A sender's ForwardVector — the union of its requesters' missing
    /// vectors — drains every requested packet exactly once, whatever the
    /// overlap between requesters.
    #[test]
    fn prop_forward_vector_union_drains_each_loss_once(
        lost_a in proptest::collection::vec(0u16..128, 0..48),
        lost_b in proptest::collection::vec(0u16..128, 0..48),
    ) {
        let mut a = PacketBitmap::empty();
        let mut b = PacketBitmap::empty();
        for &pkt in &lost_a {
            a.set(pkt);
        }
        for &pkt in &lost_b {
            b.set(pkt);
        }
        let mut fwd = ForwardVector::new();
        fwd.union_with(&a);
        fwd.union_with(&b);
        let mut expected: Vec<u16> = lost_a.iter().chain(&lost_b).copied().collect();
        expected.sort_unstable();
        expected.dedup();
        prop_assert_eq!(fwd.count() as usize, expected.len());
        let mut drained = Vec::new();
        while let Some(pkt) = fwd.pop_round_robin(128) {
            drained.push(pkt);
        }
        drained.sort_unstable();
        prop_assert_eq!(drained, expected);
        prop_assert!(fwd.is_empty());
    }

    /// The trace's message accounting matches the medium's: a network
    /// cannot receive more copies than neighbours × transmissions.
    #[test]
    fn prop_reception_counts_are_bounded(seed in 0u64..500) {
        let out = GridExperiment::new(4, 4, 10.0).segments(1).seed(seed).run::<Mnp>(|_| {});
        prop_assert!(out.completed);
        let sent = out.total_sent();
        let received: f64 = out.received.iter().sum();
        // At most 15 neighbours can hear any transmission in a 4×4 grid.
        prop_assert!(received <= sent * 15.0);
        prop_assert!(received > 0.0);
    }
}
