//! XOR single-hop recoding: the cheap end of the coding spectrum.
//!
//! Follows the INRIA "Heuristics for Network Coding in Wireless
//! Networks" playbook (PAPERS.md): a forwarder that has overheard the
//! *reception state* of its neighbours (their request bitmaps) XORs up
//! to [`XorTunables::max_degree`] plain packets into one broadcast,
//! chosen so every targeted neighbour is missing exactly one of the mixed
//! packets and can decode it against its own flash. One transmission
//! then repairs several different losses at once — the win over Deluge's
//! one-packet-one-loss ForwardVector drain — while decoding costs only
//! XOR, no Gaussian elimination.
//!
//! Everything else (Trickle summaries, bitmap page requests, rx timeout)
//! is the [`Paged`] skeleton Deluge runs on; this module is only the
//! recoding data plane, so the loss-sweep campaign compares recoding, not
//! parameters.

use mnp_radio::{NodeId, MAX_PAYLOAD_BYTES};
use mnp_storage::PacketStore;

use mnp::engine;
use mnp::PacketBitmap;

use crate::paged::{Frame, Node, Paged, PagedConfig, PagedMsg, PagedStats, Plane, Wire};

/// An [`Xored`] header on the air: `page`, before one byte per id.
const XORED_HEADER_BYTES: usize = 3;

/// The most bytes an [`Xored`] carries after its header: its ids and its
/// mix together fill at most the rest of the radio payload.
const XORED_BODY_MAX: usize = MAX_PAYLOAD_BYTES - XORED_HEADER_BYTES;

/// XOR recoding's own tunable.
#[derive(Clone, Debug)]
pub struct XorTunables {
    /// Most packets mixed into one XOR broadcast. The wire format caps
    /// this at 3 (one id byte each inside the 29-byte frame).
    pub max_degree: usize,
}

impl Default for XorTunables {
    fn default() -> Self {
        XorTunables { max_degree: 3 }
    }
}

/// XOR-recoding parameters.
pub type XorConfig = PagedConfig<XorTunables>;

/// The XOR protocol's message set: bitmap requests — the reception
/// reports the recoder plans its mixes from — answered by [`Xored`].
pub type XorMsg = PagedMsg<PacketBitmap, Xored>;

/// Per-node XOR-recoding counters for the harness.
pub type XorStats = PagedStats<XorCounters>;

/// One XOR combination of `degree` plain packets of a page (degree 1
/// degenerates to a plain data packet). The ids and the mix are carried
/// inline, so a frame owns no heap memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Xored {
    /// Page the mixed packets belong to.
    pub page: u16,
    degree: u8,
    len: u8,
    /// The ids in `body[..degree]`, then the mix in the `len` bytes after
    /// them, zeros after that.
    body: [u8; XORED_BODY_MAX],
}

impl Xored {
    /// Packet indices mixed in (1 ..= max_degree), one byte each as on
    /// the wire: a page holds at most 128 packets.
    pub fn ids(&self) -> impl Iterator<Item = u16> + '_ {
        self.body[..usize::from(self.degree)]
            .iter()
            .map(|&p| u16::from(p))
    }

    /// XOR of the mixed packets, each zero-padded to the coding width.
    pub fn payload(&self) -> &[u8] {
        &self.body[usize::from(self.degree)..][..usize::from(self.len)]
    }

    /// XORs `packet` into the front of the mix: a packet zero-padded to
    /// the coding width.
    fn mix_in(&mut self, packet: &[u8]) {
        let mix = &mut self.body[usize::from(self.degree)..][..usize::from(self.len)];
        for (d, s) in mix.iter_mut().zip(packet) {
            *d ^= s;
        }
    }
}

// Frame byte budget (DESIGN §13), checked by the compiler.
const _: () = assert!(std::mem::size_of::<Xored>() <= 30);

impl Wire for Xored {
    fn wire_bytes(&self) -> usize {
        XORED_HEADER_BYTES + usize::from(self.degree) + usize::from(self.len)
    }
}

impl Frame for Xored {
    fn page(&self) -> u16 {
        self.page
    }
}

/// XOR recoding's own counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct XorCounters {
    /// Coded broadcasts transmitted.
    pub xored_sent: u64,
    /// Broadcasts that mixed two or more packets (actual recoding).
    pub mixed_sent: u64,
    /// Packets recovered by XOR-decoding against flash.
    pub recovered: u64,
    /// Received combinations already held in full.
    pub redundant: u64,
    /// Received combinations missing two or more constituents
    /// (undecodable at this node).
    pub unusable: u64,
    /// Flash write faults absorbed.
    pub write_faults: u64,
}

/// XOR recoding's data plane: per-requester reception reports for the
/// page being served — the mix planner's input.
#[derive(Clone, Debug, Default)]
pub struct XorPlane {
    reqs: Vec<(NodeId, PacketBitmap)>,
    /// The planner's scratch: which requesters the mix being planned
    /// covers, as indices into `reqs`.
    covered: Vec<usize>,
}

impl XorPlane {
    /// Plans one broadcast of `page`: a set of packet ids such that every
    /// covered requester is missing exactly one of them (its own target)
    /// and holds the rest, so each decodes a different packet from the
    /// same transmission. Greedy over requesters in arrival order, capped
    /// at `max_degree`; only ids below `limit` exist in the page. The
    /// frame's mix is left empty.
    fn plan_mix(&mut self, page: u16, limit: u16, max_degree: usize) -> Xored {
        let mut x = Xored {
            page,
            degree: 0,
            len: 0,
            body: [0; XORED_BODY_MAX],
        };
        let covered = &mut self.covered;
        covered.clear();
        for (i, (_, bm)) in self.reqs.iter().enumerate() {
            if usize::from(x.degree) >= max_degree {
                break;
            }
            // This requester must hold every packet already in the mix.
            if x.ids().any(|p| bm.get(p)) {
                continue;
            }
            // Its target: the first packet it is missing (necessarily not
            // in `ids`, which it holds none of).
            let mut cand = bm.first_set_at_or_after(0).filter(|&p| p < limit);
            // Every already-covered requester must hold the candidate, or
            // it would now be missing two of the mix.
            while let Some(c) = cand {
                if covered.iter().all(|&j| !self.reqs[j].1.get(c)) {
                    break;
                }
                cand = bm.first_set_at_or_after(c + 1).filter(|&p| p < limit);
            }
            let Some(c) = cand else { continue };
            // `c < limit <= 128`, so the id fits its wire byte.
            x.body[usize::from(x.degree)] = c as u8;
            x.degree += 1;
            covered.push(i);
        }
        x
    }

    /// After broadcasting `x`, optimistically clears each covered
    /// requester's decoded target; losses are recovered by the normal
    /// rx-timeout re-request round.
    fn clear_served(&mut self, x: &Xored) {
        for (_, bm) in &mut self.reqs {
            let mut missing = x.ids().filter(|&p| bm.get(p));
            if let (Some(target), None) = (missing.next(), missing.next()) {
                bm.clear(target);
            }
        }
        self.reqs.retain(|(_, bm)| !bm.is_empty());
    }
}

impl Plane for XorPlane {
    type Tunables = XorTunables;
    type Stats = XorCounters;
    type Req = PacketBitmap;
    type Frame = Xored;

    /// # Panics
    ///
    /// Panics when `max_degree` is zero, or when a frame mixing
    /// `max_degree` packets does not fit the radio payload.
    fn new(cfg: &XorConfig, _: &PacketStore) -> Self {
        let (degree, width) = (cfg.max_degree, cfg.image.layout().payload_bytes());
        assert!(degree > 0, "XOR max_degree must be at least 1");
        assert!(
            XORED_HEADER_BYTES + degree + width <= MAX_PAYLOAD_BYTES,
            "an XOR frame of {XORED_HEADER_BYTES} + {degree} + {width} bytes exceeds the \
             {MAX_PAYLOAD_BYTES}-byte radio payload"
        );
        XorPlane::default()
    }

    fn request(&self, store: &PacketStore, page: u16) -> PacketBitmap {
        engine::missing_vector(store, page)
    }

    fn start_round(
        &mut self,
        _: Node<'_, '_, Self>,
        _: u16,
        requester: NodeId,
        missing: &PacketBitmap,
    ) {
        self.reqs.clear();
        self.reqs.push((requester, *missing));
    }

    fn join_round(&mut self, _: &XorTunables, requester: NodeId, missing: &PacketBitmap) {
        // A second requester joins the round: its report is what makes
        // mixing possible.
        match self.reqs.iter_mut().find(|(n, _)| *n == requester) {
            Some((_, bm)) => bm.union_with(missing),
            None => self.reqs.push((requester, *missing)),
        }
    }

    fn next_frame(&mut self, node: Node<'_, '_, Self>, page: u16) -> Option<Xored> {
        let layout = node.cfg.image.layout();
        let plan = self.plan_mix(page, layout.packets_in_segment(page), node.cfg.max_degree);
        if plan.degree == 0 {
            return None;
        }
        // `new` checked that `max_degree` ids and the mix fit the body.
        let len = layout.payload_bytes() as u8;
        let mut x = Xored { len, ..plan };
        for p in plan.ids() {
            x.mix_in(
                node.store
                    .read_packet(page, p)
                    .expect("Tx node holds the page"),
            );
        }
        node.stats.xored_sent += 1;
        if x.degree > 1 {
            node.stats.mixed_sent += 1;
        }
        self.clear_served(&x);
        Some(x)
    }

    fn end_round(&mut self) {
        self.reqs.clear();
    }

    /// Decodes an overheard XOR broadcast against our own flash: usable
    /// exactly when we are missing one constituent.
    fn absorb(&mut self, node: Node<'_, '_, Self>, from: NodeId, x: &Xored) -> bool {
        let width = node.cfg.image.layout().payload_bytes();
        if x.degree == 0 || x.payload().len() != width {
            return false;
        }
        let page = x.page;
        let mut missing = x.ids().filter(|&p| !node.store.has_packet(page, p));
        let Some(target) = missing.next() else {
            node.stats.redundant += 1;
            return false;
        };
        if missing.next().is_some() {
            node.stats.unusable += 1;
            return false;
        }
        // Mixing the held constituents back in leaves `target`, padded.
        let mut data = *x;
        for p in x.ids().filter(|&p| p != target) {
            let held = node
                .store
                .read_packet(page, p)
                .expect("constituent held: only `target` is missing");
            data.mix_in(held);
        }
        let len = node.cfg.image.layout().packet_len(page, target);
        if !engine::store_packet_once(node.store, page, target, &data.payload()[..len]) {
            // Not a duplicate (checked above), so a transient write
            // fault: the packet stays missing and the next request round
            // retries it.
            node.ctx.note_eeprom_write_failed(page, target);
            node.stats.write_faults += 1;
            return false;
        }
        node.ctx.note_eeprom_write(page, target);
        node.ctx.note_parent(from);
        node.stats.recovered += 1;
        true
    }

    fn page_done(&mut self, node: Node<'_, '_, Self>, page: u16) -> bool {
        let done = node.store.segment_complete(page);
        if done {
            node.ctx.note_segment_complete(page);
        }
        done
    }
}

/// One node running XOR single-hop recoding.
///
/// # Example
///
/// ```
/// use mnp_baselines::{Xor, XorConfig};
/// use mnp_net::{Network, NetworkBuilder};
/// use mnp_radio::{LinkTable, NodeId};
/// use mnp_sim::SimTime;
/// use mnp_storage::{ImageLayout, ProgramId, ProgramImage};
///
/// let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(1));
/// let cfg = XorConfig::for_image(&image);
/// let mut links = LinkTable::new(2);
/// links.connect(NodeId(0), NodeId(1), 0.0);
/// links.connect(NodeId(1), NodeId(0), 0.0);
/// let mut net: Network<Xor> = NetworkBuilder::new(links, 3).build(|id, _| {
///     if id == NodeId(0) {
///         Xor::base_station(cfg.clone(), &image)
///     } else {
///         Xor::node(cfg.clone())
///     }
/// });
/// assert!(net.run_until_all_complete(SimTime::from_secs(600)));
/// ```
pub type Xor = Paged<XorPlane>;

// Per-node byte budget (DESIGN §13), checked by the compiler.
const _: () = assert!(std::mem::size_of::<Xor>() <= 368);

#[cfg(test)]
#[path = "xor_tests.rs"]
mod tests;
