//! Failure injection: fail-stop node deaths, crash–restarts, link flaps
//! and EEPROM write faults during reprogramming.
//!
//! The paper's loss-detection design explicitly anticipates dying senders
//! ("the reason can be the sender dies as it is sending packets"); these
//! tests drive that path end-to-end, together with the transient faults a
//! [`FaultPlan`] injects.

use mnp_repro::prelude::*;

fn clique(n: usize) -> LinkTable {
    let mut links = LinkTable::new(n);
    for a in 0..n {
        for b in 0..n {
            if a != b {
                links.connect(NodeId::from_index(a), NodeId::from_index(b), 0.0);
            }
        }
    }
    links
}

fn build(links: LinkTable, image: &ProgramImage, seed: u64) -> Network<Mnp> {
    let cfg = MnpConfig::for_image(image);
    NetworkBuilder::new(links, seed).build(|id, _| {
        if id == NodeId(0) {
            Mnp::base_station(cfg.clone(), image)
        } else {
            Mnp::node(cfg.clone())
        }
    })
}

#[test]
fn survivors_complete_after_a_relay_dies_mid_stream() {
    // Diamond: 0 -(1,2)- 3. Node 3 can be served by 1 or 2; kill node 1
    // early, while the first transfers are in flight.
    let mut links = LinkTable::new(4);
    for (a, b) in [(0u32, 1u32), (0, 2), (1, 3), (2, 3)] {
        links.connect(NodeId(a), NodeId(b), 0.0);
        links.connect(NodeId(b), NodeId(a), 0.0);
    }
    let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(1));
    let mut net = build(links, &image, 400);
    net.schedule_failure(NodeId(1), SimTime::from_secs(8));
    let done = net.run_until(
        |n| {
            [NodeId(2), NodeId(3)]
                .iter()
                .all(|&m| n.protocol(m).is_complete())
        },
        SimTime::from_secs(1_800),
    );
    assert!(done, "survivors must complete through the other relay");
    assert!(net.is_dead(NodeId(1)));
    assert!(net.protocol(NodeId(3)).store().is_complete());
}

#[test]
fn dead_base_station_stops_dissemination() {
    let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(1));
    let mut net = build(clique(3), &image, 401);
    // Kill the base almost immediately: nobody can complete.
    net.schedule_failure(NodeId(0), SimTime::from_millis(200));
    let done = net.run_until_all_complete(SimTime::from_secs(600));
    assert!(!done);
    assert!(!net.protocol(NodeId(1)).is_complete());
    assert!(!net.protocol(NodeId(2)).is_complete());
}

#[test]
fn dead_node_goes_silent_immediately() {
    let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(1));
    let mut net = build(clique(3), &image, 402);
    let kill_at = SimTime::from_secs(5);
    net.schedule_failure(NodeId(2), kill_at);
    net.run_until(|_| false, SimTime::from_secs(60));
    assert!(net.is_dead(NodeId(2)));
    // Its radio accumulated active time only until the failure.
    let art = net.medium().active_radio_time(NodeId(2), net.now());
    assert!(
        art <= kill_at.saturating_since(SimTime::ZERO) + SimDuration::from_millis(1),
        "radio time froze at death: {art}"
    );
}

#[test]
fn random_minority_failures_do_not_stop_a_dense_network() {
    // 6x6 grid; kill 4 random non-base nodes during the run. The
    // survivors must still complete (the dead nodes obviously cannot).
    let grid = GridSpec::new(6, 6, 10.0);
    let mut rng = SimRng::new(403);
    let topo = TopologyBuilder::new(grid.placement()).build(&mut rng);
    let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(1));
    let mut net = build(topo.links, &image, 403);
    let victims = [NodeId(7), NodeId(14), NodeId(21), NodeId(28)];
    for (i, &v) in victims.iter().enumerate() {
        net.schedule_failure(v, SimTime::from_secs(5 + 7 * i as u64));
    }
    let done = net.run_until(
        |n| {
            (0..36)
                .map(NodeId::from_index)
                .filter(|id| !victims.contains(id))
                .all(|id| n.protocol(id).is_complete())
        },
        SimTime::from_secs(3_600),
    );
    assert!(done, "survivors must complete around the holes");
}

fn line(n: usize, ber: f64) -> LinkTable {
    let mut links = LinkTable::new(n);
    for i in 0..n - 1 {
        links.connect(NodeId::from_index(i), NodeId::from_index(i + 1), ber);
        links.connect(NodeId::from_index(i + 1), NodeId::from_index(i), ber);
    }
    links
}

#[test]
fn killed_parent_mid_transfer_never_panics_and_child_returns_to_idle() {
    // Regression: a child whose parent dies mid-download/update used to be
    // able to panic in `send_repair_request` ("update state has a parent").
    // On a lossy line 0-1-2, kill node 1 while node 2 is being served:
    // node 2 must absorb the loss, fail the round, and fall back to idle —
    // across a seed sweep so the kill lands in different protocol phases.
    let ber = 1.0 - 0.92f64.powf(1.0 / 376.0);
    let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(1));
    let mut total_fails = 0;
    for seed in 420..426 {
        let mut net = build(line(3, ber), &image, seed);
        net.schedule_failure(NodeId(1), SimTime::from_secs(25 + (seed - 420) * 7));
        net.run_until(|_| false, SimTime::from_secs(300));
        assert!(net.is_dead(NodeId(1)));
        let orphan = net.protocol(NodeId(2));
        total_fails += orphan.stats.fails;
        if !orphan.is_complete() {
            // Whatever state the kill interrupted, the orphan must not be
            // wedged mid-download at the horizon: its deadlines keep
            // firing, so it cycles back through fail/idle.
            assert!(
                orphan.stats.fails > 0 || orphan.stats.requests_sent == 0,
                "seed {seed}: orphan hung without ever failing a round"
            );
        }
    }
    assert!(
        total_fails > 0,
        "no run ever exercised the orphaned-child failure path"
    );
}

#[test]
fn crash_restarted_node_resumes_from_eeprom_without_rewrites() {
    // The write-once EEPROM discipline only pays off if a rebooted node
    // resumes from flash: crash the receiver mid-download, reboot it, and
    // the finished image must cost exactly one write per packet — zero
    // duplicate writes. The InvariantMonitor fails fast on any rewrite.
    let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(1));
    let cfg = MnpConfig::for_image(&image);
    // The 2-node download runs roughly from 1.5 s to 7 s; crash in the
    // middle of it.
    let crash_at = SimTime::from_secs(4);
    let plan = FaultPlan::seeded(430).crash_restart(NodeId(1), crash_at, SimDuration::from_secs(8));
    let mut net: Network<Mnp> = NetworkBuilder::new(clique(2), 430)
        .faults(plan)
        .observer(InvariantMonitor::new())
        .build(|id, _| {
            if id == NodeId(0) {
                Mnp::base_station(cfg.clone(), &image)
            } else {
                Mnp::node(cfg.clone())
            }
        });
    // Phase 1: run into the outage and check the crash interrupted a real
    // transfer whose packets survive on flash.
    net.run_until(
        |n| n.now() >= crash_at + SimDuration::from_secs(1),
        SimTime::from_secs(30),
    );
    let held = net.protocol(NodeId(1)).store().packets_received();
    assert!(held > 0, "the crash landed before any download progress");
    assert!(!net.protocol(NodeId(1)).is_complete());
    assert!(net.is_dead(NodeId(1)));
    // Phase 2: reboot and finish.
    assert!(
        net.run_until_all_complete(SimTime::from_secs(600)),
        "rebooted node must complete from its persisted prefix"
    );
    let p = net.protocol(NodeId(1));
    assert!(p.store().is_complete());
    // 128 packets × 2 EEPROM lines each, written exactly once — the
    // pre-crash packets were not fetched or written again.
    assert_eq!(p.store().line_writes, 128 * 2, "duplicate EEPROM writes");
}

#[test]
fn storage_write_faults_are_absorbed_by_loss_recovery() {
    // Transient EEPROM write faults drop the packet on the floor; the
    // missing bit stays set and the query/update phase re-requests it.
    let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(1));
    let cfg = MnpConfig::for_image(&image);
    // Arm the faults while the download stream is in full swing.
    let plan = FaultPlan::seeded(431).storage_faults(NodeId(1), SimTime::from_secs(3), 3);
    let mut net: Network<Mnp> = NetworkBuilder::new(clique(2), 431)
        .faults(plan)
        .observer(InvariantMonitor::new())
        .build(|id, _| {
            if id == NodeId(0) {
                Mnp::base_station(cfg.clone(), &image)
            } else {
                Mnp::node(cfg.clone())
            }
        });
    assert!(
        net.run_until_all_complete(SimTime::from_secs(600)),
        "write faults are transient and must not cost completion"
    );
    let p = net.protocol(NodeId(1));
    assert!(p.stats.write_faults >= 1, "no fault was ever exercised");
    assert!(p.store().is_complete());
    // Faulted writes are not billed: the finished image still cost exactly
    // one write per packet.
    assert_eq!(p.store().line_writes, 128 * 2);
}

#[test]
fn killing_a_transmitting_node_truncates_its_frame() {
    // Deterministic micro-check at the medium level, through the network:
    // run a 2-node net, kill the base at a random instant, and assert the
    // receiver never ends up with a corrupt store (truncated frames are
    // dropped, not half-stored).
    let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(1));
    for seed in 404..412 {
        let mut net = build(clique(2), &image, seed);
        net.schedule_failure(NodeId(0), SimTime::from_millis(4_000 + seed * 37));
        net.run_until(|_| false, SimTime::from_secs(120));
        let store = net.protocol(NodeId(1)).store();
        for seg in 0..1 {
            for pkt in 0..128 {
                if store.has_packet(seg, pkt) {
                    let mut s = store.clone();
                    assert_eq!(
                        s.read_packet(seg, pkt).unwrap(),
                        image.packet_payload(seg, pkt),
                        "stored packets must be intact"
                    );
                }
            }
        }
    }
}
