//! Property-based integration tests: protocol invariants under random
//! topologies, image sizes and seeds.

use mnp_repro::prelude::*;
use mnp_repro::protocol::engine::{self, ForwardVector};
use mnp_sim::check;

/// MNP with node 0 as the base station of a `segments`-segment image, on a
/// random connected link graph of `n` nodes: they are sprinkled in a field
/// sized to keep the graph connected most of the time, and resampled
/// otherwise.
fn mnp_on_a_random_field(n: usize, segments: u16, seed: u64) -> Network<Mnp> {
    let mut rng = SimRng::new(seed);
    let links = loop {
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
            break topo.links;
        }
    };
    let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(segments));
    let cfg = MnpConfig::for_image(&image);
    NetworkBuilder::new(links, seed).build(|id, _| {
        if id == NodeId(0) {
            Mnp::base_station(cfg.clone(), &image)
        } else {
            Mnp::node(cfg.clone())
        }
    })
}

/// Up to `max_len - 1` packet indices below 128.
fn packet_indices(rng: &mut SimRng, max_len: usize) -> Vec<u16> {
    (0..rng.index(max_len))
        .map(|_| rng.range_u64(0, 128) as u16)
        .collect()
}

// Whole-network simulations are expensive: 12 cases for each property
// up to the parser ones.

/// Coverage + accuracy: on any connected random field, every node ends
/// with every packet on flash, and each of those writes was checked
/// against the source image (a differing byte panics at the write).
#[test]
fn prop_dissemination_is_exact_on_random_fields() {
    check("prop_dissemination_is_exact_on_random_fields", 12, |rng| {
        let n = rng.range_u64(6, 16) as usize;
        let segments = rng.range_u64(1, 3) as u16;
        let seed = rng.range_u64(0, 1_000);
        let mut net = mnp_on_a_random_field(n, segments, seed);
        assert!(net.run_until_all_complete(SimTime::from_secs(4 * 3_600)));
        for i in 0..n {
            let p = net.protocol(NodeId::from_index(i));
            assert!(p.is_complete());
            assert!(p.store().is_complete());
        }
    });
}

/// The write-once EEPROM invariant holds under any loss pattern: each
/// node's flash line-writes equal exactly the image's packet count
/// times lines-per-packet.
#[test]
fn prop_every_packet_written_exactly_once() {
    check("prop_every_packet_written_exactly_once", 12, |rng| {
        let seed = rng.range_u64(0, 1_000);
        let mut net = mnp_on_a_random_field(8, 1, seed);
        assert!(net.run_until_all_complete(SimTime::from_secs(2 * 3_600)));
        let lines_per_packet = 23usize.div_ceil(16) as u64;
        for i in 1..8 {
            let p = net.protocol(NodeId::from_index(i));
            assert_eq!(p.store().line_writes, 128 * lines_per_packet);
        }
    });
}

/// Active radio time never exceeds the measurement window, and the
/// "without initial idle" variant never exceeds the total.
#[test]
fn prop_art_accounting_is_consistent() {
    check("prop_art_accounting_is_consistent", 12, |rng| {
        let (rows, cols) = (rng.index(3) + 3, rng.index(3) + 3);
        let out = GridExperiment::new(rows, cols, 10.0)
            .segments(1)
            .seed(rng.range_u64(0, 500))
            .run::<Mnp>(|_| {});
        assert!(out.completed);
        let completion = out.completion_s();
        for (total, noidle) in out.art_s.iter().zip(&out.art_noidle_s) {
            assert!(*total <= completion + 1e-6);
            assert!(*noidle <= *total + 1e-6);
            assert!(*total >= 0.0 && *noidle >= 0.0);
        }
    });
}

/// The engine's MissingVector is the exact complement of the store:
/// a bit is set iff the packet has not been written.
#[test]
fn prop_missing_vector_complements_the_store() {
    check("prop_missing_vector_complements_the_store", 12, |rng| {
        let written = packet_indices(rng, 96);
        let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(1));
        let mut store = PacketStore::new(&image);
        for &pkt in &written {
            // Duplicates in `written` double as a write-once check.
            let first_time = !store.has_packet(0, pkt);
            let stored =
                engine::store_packet_once(&mut store, 0, pkt, image.packet_payload(0, pkt));
            assert_eq!(stored, first_time);
        }
        let missing = engine::missing_vector(&store, 0);
        for pkt in 0..128u16 {
            assert_eq!(missing.get(pkt), !written.contains(&pkt));
        }
    });
}

/// A sender's ForwardVector — the union of its requesters' missing
/// vectors — drains every requested packet exactly once, whatever the
/// overlap between requesters.
#[test]
fn prop_forward_vector_union_drains_each_loss_once() {
    check(
        "prop_forward_vector_union_drains_each_loss_once",
        12,
        |rng| {
            let (lost_a, lost_b) = (packet_indices(rng, 48), packet_indices(rng, 48));
            let mut fwd = ForwardVector::new();
            for lost in [&lost_a, &lost_b] {
                let mut missing = PacketBitmap::empty();
                lost.iter().for_each(|&pkt| missing.set(pkt));
                fwd.union_with(&missing);
            }
            let mut expected: Vec<u16> = lost_a.iter().chain(&lost_b).copied().collect();
            expected.sort_unstable();
            expected.dedup();
            assert_eq!(fwd.count() as usize, expected.len());
            let mut drained = Vec::new();
            while let Some(pkt) = fwd.pop_round_robin(128) {
                drained.push(pkt);
            }
            drained.sort_unstable();
            assert_eq!(drained, expected);
            assert!(fwd.is_empty());
        },
    );
}

/// The trace's message accounting matches the medium's: a network
/// cannot receive more copies than neighbours × transmissions.
#[test]
fn prop_reception_counts_are_bounded() {
    check("prop_reception_counts_are_bounded", 12, |rng| {
        let out = GridExperiment::new(4, 4, 10.0)
            .segments(1)
            .seed(rng.range_u64(0, 500))
            .run::<Mnp>(|_| {});
        assert!(out.completed);
        let sent = out.total_sent();
        let received: f64 = out.received.iter().sum();
        // At most 15 neighbours can hear any transmission in a 4×4 grid.
        assert!(received <= sent * 15.0);
        assert!(received > 0.0);
    });
}

/// A complete `repro.json`: every field, both optional objects, every fault
/// kind. Single-byte mutations of it reach deep into `parse_repro`.
const VALID_REPRO: &str = r#"{
  "version": 1,
  "protocol": "mnp",
  "rows": 3,
  "cols": 4,
  "segments": 1,
  "seed": 5,
  "tie_seed": 9,
  "deadline_us": 600000000,
  "shards": 1,
  "mobility": {"layout": "uniform", "speed_tenths": 10},
  "faults": [
    {"kind": "crash_restart", "node": 1, "at_us": 5000000, "down_us": 2000000},
    {"kind": "link_flap", "from": 0, "to": 2, "at_us": 1000, "down_us": 30, "ber_ppb": 700},
    {"kind": "storage_faults", "node": 3, "at_us": 7000, "failures": 2}
  ],
  "failure": {"kind": "panic", "message": "a \"quoted\" \\ line\n"}
}
"#;

#[test]
fn valid_repro_fixture_parses() {
    let (sc, recorded) = mnp_experiments::fuzz::parse_repro(VALID_REPRO).expect("fixture parses");
    assert_eq!(sc.faults.len(), 3);
    assert!(sc.mobility.is_some() && recorded.is_some());
}

/// Up to 95 bytes biased towards JSON's alphabet, so random documents
/// get past the first token more often than uniform bytes would.
fn json_ish_bytes(rng: &mut SimRng) -> Vec<u8> {
    const ALPHABET: &[u8] = b"{}[]\":,.-+eE0123456789 \n\\tfnrulsaxu";
    (0..rng.index(96))
        .map(|_| match rng.next_u64() as u8 {
            b if b < 160 => ALPHABET[b as usize % ALPHABET.len()],
            b => b,
        })
        .collect()
}

/// Feeds `text` to both parsers; either may return `Err`, neither may panic.
fn parse_both(text: &str) {
    let _ = mnp_experiments::fuzz::parse_repro(text);
    let _ = mnp_experiments::report::Json::parse(text);
}

// A parse takes microseconds: 2 000 cases each.

/// Arbitrary bytes (read as lossy UTF-8) are a typed result from
/// `fuzz::parse_repro` and `report::Json::parse`, never a panic.
#[test]
fn prop_parsers_never_panic_on_arbitrary_bytes() {
    check(
        "prop_parsers_never_panic_on_arbitrary_bytes",
        2_000,
        |rng| {
            parse_both(&String::from_utf8_lossy(&json_ish_bytes(rng)));
        },
    );
}

/// The same for one-byte edits (replace, insert or delete) of a valid
/// repro document, which keep most of its structure intact.
#[test]
fn prop_parsers_never_panic_on_one_byte_mutations() {
    check(
        "prop_parsers_never_panic_on_one_byte_mutations",
        2_000,
        |rng| {
            let (pos, byte) = (rng.index(VALID_REPRO.len()), rng.next_u64() as u8);
            let mut bytes = VALID_REPRO.as_bytes().to_vec();
            match rng.range_u64(0, 3) {
                0 => bytes[pos] = byte,
                1 => bytes.insert(pos, byte),
                _ => {
                    bytes.remove(pos);
                }
            }
            parse_both(&String::from_utf8_lossy(&bytes));
        },
    );
}
