//! Building your own dissemination protocol on the `mnp-net` runtime.
//!
//! The paper closes by noting that "although MNP was designed as a code
//! dissemination protocol, it can be used to disseminate any sort of
//! data". This example shows the other direction: the execution
//! environment built for MNP (lossy radio, CSMA MAC, active radio time,
//! run trace) is protocol-agnostic. We implement a tiny gossip protocol from
//! scratch — about 80 lines — and run it on the same simulated field.
//!
//! Run with: `cargo run --release --example custom_protocol`

use mnp_repro::prelude::*;

/// A rumor: one 8-byte value plus a hop counter.
#[derive(Clone, Copy, Debug)]
struct Rumor {
    value: u64,
    hops: u8,
}

impl WireMsg for Rumor {
    fn wire_bytes(&self) -> usize {
        9
    }
    fn class(&self) -> MsgClass {
        MsgClass::Data
    }
}

/// Gossip with duty-cycled retransmission: each node repeats a fresh rumor
/// a few times with random pauses, then stops (a miniature of MNP's
/// advertise/sleep economy).
struct Gossip {
    knows: Option<u64>,
    repeats_left: u8,
    origin: bool,
}

const T_REPEAT: u64 = 1;

impl Gossip {
    fn schedule_repeat(&self, ctx: &mut Context<'_, Rumor>) {
        let delay = ctx
            .rng
            .jittered(SimDuration::from_millis(200), SimDuration::from_millis(400));
        ctx.set_timer(delay, T_REPEAT);
    }
}

impl Protocol for Gossip {
    type Msg = Rumor;

    fn on_start(&mut self, ctx: &mut Context<'_, Rumor>) {
        if self.origin {
            self.knows = Some(0xfeed_beef);
            self.repeats_left = 4;
            ctx.note_completion();
            self.schedule_repeat(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Rumor>, _from: NodeId, msg: &Rumor) {
        if self.knows.is_none() {
            self.knows = Some(msg.value);
            self.repeats_left = 4;
            ctx.note_completion();
            ctx.note_first_heard();
            let _ = msg.hops;
            self.schedule_repeat(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Rumor>, _token: u64) {
        if let Some(value) = self.knows {
            if self.repeats_left > 0 {
                self.repeats_left -= 1;
                ctx.send(Rumor { value, hops: 0 });
                if self.repeats_left > 0 {
                    self.schedule_repeat(ctx);
                } else {
                    // Done repeating: power the radio down for good
                    // (energy economics, MNP-style).
                    ctx.sleep_for(SimDuration::from_secs(3_600));
                }
            }
        }
    }
}

fn main() {
    let seed = 5;
    let grid = GridSpec::new(10, 10, 10.0);
    let mut rng = SimRng::new(seed);
    let topo = TopologyBuilder::new(grid.placement()).build(&mut rng);
    assert!(topo.links.reaches_all(NodeId(0)));

    let mut net: Network<Gossip> = NetworkBuilder::new(topo.links, seed).build(|id, _| Gossip {
        knows: None,
        repeats_left: 0,
        origin: id == NodeId(0),
    });

    let done = net.run_until_all_complete(SimTime::from_secs(300));
    let completion = net.trace().completion_time();
    println!(
        "gossip over {}: complete={} in {:?}",
        grid,
        done,
        completion.map(|t| format!("{:.1}s", t.as_secs_f64()))
    );
    let heard = (0..net.len())
        .filter(|&i| net.protocol(NodeId::from_index(i)).knows.is_some())
        .count();
    println!("{heard}/{} nodes learned the rumor", net.len());
    let sent: u64 = (0..net.len())
        .map(|i| net.trace().node(NodeId::from_index(i)).sent)
        .sum();
    println!("total transmissions: {sent} (≤ 5 per node by construction)");
    assert!(heard >= net.len() * 9 / 10, "gossip should spread");
}
