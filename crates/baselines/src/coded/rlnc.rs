//! Random-linear network coding over image segments.
//!
//! One generation = one segment (the prefix discipline MNP and Deluge
//! already share): a receiver works on generation `g =
//! segments_received_prefix()` and a node serves a generation only once
//! it holds it complete on flash — decode-then-recode, the arrangement
//! "Cooperative Coded Data Dissemination" (PAPERS.md) uses for
//! rateless-coded OAP pages. Partial-rank remixing is the cheaper
//! [`Xor`](super::xor::Xor) variant's department.
//!
//! What coding replaces: Deluge's request carries a 16-byte MissingVector
//! and the sender drains a ForwardVector packet by packet. Here a request
//! carries one number — `need = gen_size − rank` — and the sender
//! broadcasts *fresh random combinations*; any `need` innovative packets
//! complete the rank regardless of *which* packets were lost, so the
//! per-packet request/repair round-trips disappear.
//!
//! Maintenance (Trickle summaries, request suppression, rx timeout) is
//! the [`Paged`] skeleton Deluge runs on; this module is only the coding
//! data plane, so the loss-sweep campaign compares coding, not
//! parameters. Rank held in the decoder survives an rx timeout: the next
//! handshake only asks for the remaining deficit.

use mnp_net::Context;
use mnp_radio::{NodeId, MAX_PAYLOAD_BYTES};
use mnp_sim::SimDuration;
use mnp_storage::{ImageLayout, PacketStore};

use mnp::engine::{self, TimerMux};

use crate::paged::{
    Frame, Node, Paged, PagedConfig, PagedMsg, PagedStats, Plane, Wire, FIRST_PLANE_TIMER,
};

use super::decoder::{combine_into, derive_coeffs_into, GenDecoder};

/// RLNC's own tunable.
#[derive(Clone, Debug)]
pub struct RlncTunables {
    /// Extra coded packets a sender budgets beyond the requested `need`,
    /// absorbing the occasional linearly dependent draw or single loss
    /// without another request round-trip.
    pub extra_coded: u32,
}

impl Default for RlncTunables {
    fn default() -> Self {
        RlncTunables { extra_coded: 2 }
    }
}

/// RLNC parameters (generations = segments).
pub type RlncConfig = PagedConfig<RlncTunables>;

/// RLNC's message set: rank-deficit requests — the MissingVector replaced
/// by one number, `gen_size − rank` — answered by [`Coded`] packets.
pub type RlncMsg = PagedMsg<u16, Coded>;

/// Per-node RLNC counters for the harness.
pub type RlncStats = PagedStats<RlncCounters>;

/// A [`Coded`] header on the air: `gen` and `seed`.
const CODED_HEADER_BYTES: usize = 6;

/// The widest payload a [`Coded`] frame carries: what the radio frame
/// leaves after the header.
const CODED_PAYLOAD_MAX: usize = MAX_PAYLOAD_BYTES - CODED_HEADER_BYTES;

/// One coded packet: a random linear combination of the generation's
/// sources, its coefficient vector compressed to the RNG seed both ends
/// expand with [`derive_coeffs`](super::decoder::derive_coeffs). The
/// payload is carried inline, so a frame owns no heap memory.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Coded {
    /// Generation the combination is drawn from.
    pub gen: u16,
    /// Coefficient-vector seed.
    pub seed: u32,
    len: u8,
    /// The combined payload in `bytes[..len]`, zeros after it.
    bytes: [u8; CODED_PAYLOAD_MAX],
}

impl Coded {
    /// Encodes the combination the header `(gen, seed)` names over a
    /// generation's `packets`, each zero-padded to `width` bytes; the
    /// coefficients are expanded into `coeffs`, a caller-kept scratch, so
    /// once that has grown to the generation size nothing is allocated.
    ///
    /// # Panics
    ///
    /// Panics when `width` does not fit a radio frame beside the header,
    /// or a packet is wider than `width`.
    pub fn encode<'a>(
        gen: u16,
        seed: u32,
        packets: impl ExactSizeIterator<Item = &'a [u8]>,
        width: usize,
        coeffs: &mut Vec<u8>,
    ) -> Coded {
        assert!(width <= CODED_PAYLOAD_MAX, "{}", frame_too_wide(width));
        derive_coeffs_into(gen, seed, packets.len(), coeffs);
        let mut bytes = [0u8; CODED_PAYLOAD_MAX];
        combine_into(&mut bytes[..width], coeffs, packets);
        Coded {
            gen,
            seed,
            len: width as u8,
            bytes,
        }
    }

    /// The combined payload (full padded width).
    pub fn payload(&self) -> &[u8] {
        &self.bytes[..usize::from(self.len)]
    }
}

/// The panic message for a payload `width` no [`Coded`] frame can carry.
fn frame_too_wide(width: usize) -> String {
    format!(
        "a coded frame of {CODED_HEADER_BYTES} + {width} bytes exceeds the \
         {MAX_PAYLOAD_BYTES}-byte radio payload"
    )
}

// Frame byte budget (DESIGN §13), checked by the compiler.
const _: () = assert!(std::mem::size_of::<Coded>() <= 32);

impl Wire for Coded {
    fn wire_bytes(&self) -> usize {
        CODED_HEADER_BYTES + usize::from(self.len)
    }
}

impl Frame for Coded {
    fn page(&self) -> u16 {
        self.gen
    }
}

/// RLNC's own counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RlncCounters {
    /// Coded packets transmitted.
    pub coded_sent: u64,
    /// Received combinations that raised the decoder rank.
    pub innovative: u64,
    /// Received combinations that were linearly dependent.
    pub redundant: u64,
    /// Generations decoded to completion.
    pub decodes: u64,
    /// Flash write faults absorbed during generation commits.
    pub write_faults: u64,
}

const T_WRITE_RETRY: u64 = FIRST_PLANE_TIMER;

/// How soon a generation whose flash commit hit a transient write fault
/// retries the failed packets (the decoded rows are kept in RAM).
const WRITE_RETRY_DELAY: SimDuration = SimDuration::from_millis(50);

/// RLNC's data plane.
#[derive(Debug)]
pub struct RlncPlane {
    // Decode plane: always the prefix generation (flash only grows
    // through `commit`, which moves both), fed from any state —
    // overhearing coded traffic is where the coding gain lives.
    decode_gen: u16,
    decoder: GenDecoder,
    /// Packets of a fully-ranked generation still awaiting a flash
    /// retry after a transient write fault.
    commit_pending: bool,

    /// Coded frames left in the round.
    tx_budget: u32,

    /// Scratch for the coefficient vector a `Coded` header expands to, on
    /// both the receive and the transmit side.
    coeffs: Vec<u8>,
}

impl RlncPlane {
    fn decoder_for(layout: &ImageLayout, gen: u16) -> GenDecoder {
        let size = if gen < layout.segment_count() {
            layout.packets_in_segment(gen)
        } else {
            // Complete image: keep a placeholder so the field is always
            // valid; it never absorbs.
            1
        };
        GenDecoder::new(size as usize, layout.payload_bytes())
    }

    fn need(&self) -> u16 {
        (self.decoder.gen_size() - self.decoder.rank()) as u16
    }

    /// Writes the fully-ranked generation to flash; `true` once it is
    /// complete there. Transient write faults leave the decoded rows in
    /// RAM and arm a short retry timer.
    fn commit(&mut self, node: Node<'_, '_, Self>) -> bool {
        let gen = self.decode_gen;
        let layout = node.cfg.image.layout();
        let mut faulted = false;
        for pkt in 0..layout.packets_in_segment(gen) {
            if node.store.has_packet(gen, pkt) {
                continue;
            }
            let data = self.decoder.packet(pkt as usize).expect("full rank");
            let len = layout.packet_len(gen, pkt);
            if engine::store_packet_once(node.store, gen, pkt, &data[..len]) {
                node.ctx.note_eeprom_write(gen, pkt);
            } else {
                // store_packet_once returns false only for a duplicate
                // (excluded above) or a transient write fault.
                node.ctx.note_eeprom_write_failed(gen, pkt);
                node.stats.write_faults += 1;
                faulted = true;
            }
        }
        self.commit_pending = faulted;
        if faulted {
            self.rearm(node.ctx, node.timers);
            return false;
        }
        debug_assert!(node.store.segment_complete(gen));
        node.stats.decodes += 1;
        node.ctx.note_segment_complete(gen);
        self.decode_gen = node.store.segments_received_prefix();
        self.decoder = RlncPlane::decoder_for(&layout, self.decode_gen);
        true
    }
}

impl Plane for RlncPlane {
    type Tunables = RlncTunables;
    type Stats = RlncCounters;
    type Req = u16;
    type Frame = Coded;

    /// # Panics
    ///
    /// Panics when the layout's payload does not fit a [`Coded`] frame.
    fn new(cfg: &RlncConfig, store: &PacketStore) -> Self {
        let layout = cfg.image.layout();
        let width = layout.payload_bytes();
        assert!(width <= CODED_PAYLOAD_MAX, "{}", frame_too_wide(width));
        let decode_gen = store.segments_received_prefix();
        RlncPlane {
            decode_gen,
            decoder: RlncPlane::decoder_for(&layout, decode_gen),
            commit_pending: false,
            tx_budget: 0,
            coeffs: Vec::new(),
        }
    }

    fn request(&self, _: &PacketStore, _: u16) -> u16 {
        self.need()
    }

    /// Budgets the round and reads the generation's packets from flash
    /// once, billing their line reads. The frames are then encoded from
    /// the shared image's slices, which flash holds verbatim.
    fn start_round(&mut self, node: Node<'_, '_, Self>, gen: u16, _: NodeId, need: &u16) {
        self.tx_budget = u32::from(*need) + node.cfg.extra_coded;
        for pkt in 0..node.cfg.image.layout().packets_in_segment(gen) {
            node.store
                .read_packet(gen, pkt)
                .expect("Tx node holds the generation");
        }
    }

    fn join_round(&mut self, tunables: &RlncTunables, _: NodeId, need: &u16) {
        // A louder deficit re-raises the budget.
        self.tx_budget = self.tx_budget.max(u32::from(*need) + tunables.extra_coded);
    }

    fn next_frame(&mut self, node: Node<'_, '_, Self>, gen: u16) -> Option<Coded> {
        if self.tx_budget == 0 {
            return None;
        }
        self.tx_budget -= 1;
        let seed = node.ctx.rng.next_u32();
        let image = &node.cfg.image;
        let layout = image.layout();
        let packets = (0..layout.packets_in_segment(gen)).map(|pkt| image.packet_payload(gen, pkt));
        let frame = Coded::encode(gen, seed, packets, layout.payload_bytes(), &mut self.coeffs);
        node.stats.coded_sent += 1;
        Some(frame)
    }

    /// Absorbs a coded packet into the decode plane, from any state.
    fn absorb(&mut self, node: Node<'_, '_, Self>, from: NodeId, c: &Coded) -> bool {
        if c.payload().len() != node.cfg.image.layout().payload_bytes() {
            return false;
        }
        derive_coeffs_into(c.gen, c.seed, self.decoder.gen_size(), &mut self.coeffs);
        if !self.decoder.absorb(&self.coeffs, c.payload()) {
            node.stats.redundant += 1;
            return false;
        }
        node.stats.innovative += 1;
        node.ctx.note_parent(from);
        true
    }

    fn page_done(&mut self, node: Node<'_, '_, Self>, _: u16) -> bool {
        self.decoder.is_full() && self.commit(node)
    }

    /// A pending flash retry must survive the teardown of transfer
    /// timers.
    fn rearm(&self, ctx: &mut Context<'_, RlncMsg>, timers: &TimerMux) {
        if self.commit_pending {
            ctx.set_timer(WRITE_RETRY_DELAY, timers.token(T_WRITE_RETRY));
        }
    }

    fn on_timer(&mut self, node: Node<'_, '_, Self>, kind: u64) -> bool {
        assert_eq!(kind, T_WRITE_RETRY, "unknown timer kind {kind}");
        self.commit_pending && self.decoder.is_full() && self.commit(node)
    }
}

/// One node running random-linear network coding.
///
/// # Example
///
/// ```
/// use mnp_baselines::{Rlnc, RlncConfig};
/// use mnp_net::{Network, NetworkBuilder};
/// use mnp_radio::{LinkTable, NodeId};
/// use mnp_sim::SimTime;
/// use mnp_storage::{ImageLayout, ProgramId, ProgramImage};
///
/// let image = ProgramImage::synthetic(ProgramId(1), ImageLayout::paper_default(1));
/// let cfg = RlncConfig::for_image(&image);
/// let mut links = LinkTable::new(2);
/// links.connect(NodeId(0), NodeId(1), 0.0);
/// links.connect(NodeId(1), NodeId(0), 0.0);
/// let mut net: Network<Rlnc> = NetworkBuilder::new(links, 3).build(|id, _| {
///     if id == NodeId(0) {
///         Rlnc::base_station(cfg.clone(), &image)
///     } else {
///         Rlnc::node(cfg.clone())
///     }
/// });
/// assert!(net.run_until_all_complete(SimTime::from_secs(600)));
/// ```
pub type Rlnc = Paged<RlncPlane>;

// Per-node byte budget (DESIGN §13), checked by the compiler.
const _: () = assert!(std::mem::size_of::<Rlnc>() <= 440);

impl Rlnc {
    /// The decode frontier for the liveness oracle: the generation being
    /// decoded, its current rank, and its size.
    pub fn decode_rank(&self) -> (u16, usize, usize) {
        let plane = self.plane();
        (
            plane.decode_gen,
            plane.decoder.rank(),
            plane.decoder.gen_size(),
        )
    }
}

#[cfg(test)]
#[path = "rlnc_tests.rs"]
mod tests;
