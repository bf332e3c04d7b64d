//! The ExScal-style field demonstration (paper §6).
//!
//! "MNP was demonstrated in the DARPA NEST team meeting ... In the first
//! demonstration, we deployed 100 Mica-2 sensors on a grass field and
//! reprogrammed all the sensors with Lites code. In the second
//! demonstration, we showed that MNP scaled well in a larger network of
//! 200 XSM sensors."
//!
//! This example reproduces that scenario shape: a large *irregular*
//! (non-grid) field of motes, a realistic multi-segment image, and a base
//! station at one corner of the field. It demonstrates that nothing in
//! MNP depends on the grid layouts used by the figures.
//!
//! Run with: `cargo run --release --example exscal_field`

use mnp_repro::prelude::*;

fn main() {
    let seed = 7;
    let n = 150;
    let field_w = 160.0; // feet
    let field_h = 110.0;

    // Scatter motes uniformly over the grass field; keep resampling until
    // the sampled radio graph is connected from the base station (a real
    // deployment team walks the field until the network forms).
    let mut rng = SimRng::new(seed);
    let (placement, links) = loop {
        let placement = Placement::random(n, field_w, field_h, &mut rng);
        let topo = TopologyBuilder::new(placement.clone())
            .power(PowerLevel::FULL)
            .build(&mut rng);
        if topo
            .links
            .reaches_all_usable(NodeId(0), mnp_repro::radio::loss::usable_ber_threshold())
        {
            break (placement, topo.links);
        }
    };

    // The "Lites" application image: 3 segments ≈ 8.6 KB.
    let image = ProgramImage::synthetic(ProgramId(3), ImageLayout::paper_default(3));
    let cfg = MnpConfig::for_image(&image);

    println!(
        "field {}x{} ft, {} motes, image {}",
        field_w,
        field_h,
        n,
        image.layout()
    );

    let mut net: Network<Mnp> = NetworkBuilder::new(links, seed).build(|id, _| {
        if id == NodeId(0) {
            Mnp::base_station(cfg.clone(), &image)
        } else {
            Mnp::node(cfg.clone())
        }
    });

    let deadline = SimTime::from_secs(4 * 3_600);
    let done = net.run_until_all_complete(deadline);
    assert!(done, "field reprogramming did not complete");
    let completion = net.trace().completion_time().expect("all complete");
    net.finalize_meters(completion);

    // Verify the coverage requirement explicitly; accuracy was checked on
    // every flash write.
    for i in 0..n {
        let node = net.protocol(NodeId::from_index(i));
        assert!(node.is_complete(), "mote {i} missing code");
        assert!(node.store().is_complete(), "mote {i} flash incomplete");
    }

    let senders = net.trace().sender_order().len();
    let arts: Vec<f64> = (0..n)
        .map(|i| {
            net.trace()
                .node(NodeId::from_index(i))
                .active_radio
                .as_secs_f64()
        })
        .collect();
    println!(
        "reprogrammed {} motes in {:.0}s ({:.1} min)",
        n,
        completion.as_secs_f64(),
        completion.as_secs_f64() / 60.0
    );
    println!(
        "{} motes forwarded code; mean active radio time {:.0}s ({:.0}% of completion)",
        senders,
        mnp_trace::mean(&arts),
        100.0 * mnp_trace::mean(&arts) / completion.as_secs_f64()
    );

    // How far did nodes have to be from the base to need a relay?
    let mut direct = 0;
    let mut relayed = 0;
    for (id, s) in net.trace().iter() {
        if id == NodeId(0) {
            continue;
        }
        match s.parent {
            Some(NodeId(0)) => direct += 1,
            Some(_) => relayed += 1,
            None => {}
        }
        let _ = placement.position(id);
    }
    println!("{direct} motes downloaded from the base directly, {relayed} through relays");
}
