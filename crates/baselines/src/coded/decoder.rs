//! Incremental Gaussian-elimination decoder for one coded generation,
//! plus the seed-compressed coefficient derivation and the encoder's
//! linear combination.
//!
//! A generation is one image segment: `gen_size` source packets, each
//! padded to the layout's full payload width. A coded packet is a GF(256)
//! linear combination of the sources; the 29-byte radio frame cannot
//! carry an explicit 128-byte coefficient vector, so the wire header
//! carries a `(generation, u32 seed)` pair and both ends derive the same
//! coefficients from a [`SimRng`] stream ([`derive_coeffs`]).
//!
//! The decoder keeps the received combinations in *compact* reduced
//! echelon form. A held row has a 1 in its own pivot column and a 0 in
//! every other row's, so it stores no byte for any pivot column: only its
//! data, then its coefficients on the columns no row owns yet (the *free*
//! columns). One `u16` permutation lists the free columns first, in the
//! order every row stores them, then the pivots, row `i`'s at
//! `gen_size − 1 − i`.
//!
//! [`GenDecoder::absorb`] gathers the incoming row into that layout and
//! subtracts each held row times the incoming coefficient on that row's
//! pivot; reduced rows leave each other's pivots alone, so the order does
//! not matter. A nonzero free coefficient left over is the new pivot: the
//! row is normalised to a 1 there, every held row eliminates that column,
//! and each row, the new one too, moves its last free coefficient into
//! the pivot's slot (a swap-remove), so a row only ever loses its last
//! byte. The two passes are Σ 2r(n − r + w) byte operations for a
//! generation of `n` packets of `w` bytes, each row operation a single
//! [`gf256::mul_add_assign`], and nothing is left to back-substitute: at
//! full rank the rows are the data alone, and re-ordered in place by
//! pivot they are the source packets.
//!
//! Memory: nothing until the first innovative packet. From then on the
//! row buffer, the permutation (`2·gen_size` bytes) and the work row
//! (`gen_size + payload_len` bytes). At rank r the rows need r·(n − r + w)
//! bytes, at most 5 700 for the paper layout (n = 128, w = 23, r = 75),
//! falling to the n·w decoded bytes at full rank. Rows sit at a common
//! stride that is re-packed to their width only when the next row does
//! not fit; the buffer then grows to 1.25 × what it must hold, or shrinks
//! to that once it holds more, so it never exceeds 1.25 × the most the
//! rows have needed. At full rank the permutation and the work row are
//! freed and the buffer is cut to the `gen_size · payload_len` decoded
//! bytes, which stay until the decoder is dropped.

use mnp_sim::SimRng;

use super::gf256;

/// How much the row buffer grows when a row does not fit, and how much
/// it may hold before it shrinks: this factor times the bytes the rows
/// need.
const GROWTH_NUM: usize = 5;
const GROWTH_DEN: usize = 4;

/// Incremental compact reduced-echelon decoder for a single generation.
#[derive(Clone, Debug)]
pub struct GenDecoder {
    gen_size: usize,
    payload_len: usize,
    rank: usize,
    /// Below full rank, the held rows in arrival order at a common stride
    /// (`rows.len() / rank`): each is its data, then its coefficients on
    /// the free columns `cols[..gen_size − rank]`, then padding up to the
    /// stride. At full rank, the `gen_size` source packets back to back.
    /// Empty before the first innovative packet.
    rows: Vec<u8>,
    /// The free columns in the rows' order, then the pivots: row `i`'s is
    /// `cols[gen_size − 1 − i]`. Allocated with `rows`, freed at full rank.
    cols: Vec<u16>,
    /// The incoming row while it is being eliminated, in the rows'
    /// layout. Allocated with `rows`, freed at full rank.
    work: Vec<u8>,
}

impl GenDecoder {
    /// An empty decoder for a generation of `gen_size` packets of
    /// `payload_len` padded bytes each. Allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics when `gen_size` is zero, or when a column would not be
    /// addressable by a `u16`.
    pub fn new(gen_size: usize, payload_len: usize) -> Self {
        assert!(gen_size > 0, "empty generation");
        assert!(
            u16::try_from(gen_size - 1).is_ok(),
            "generation of {gen_size} packets is too large"
        );
        GenDecoder {
            gen_size,
            payload_len,
            rank: 0,
            rows: Vec::new(),
            cols: Vec::new(),
            work: Vec::new(),
        }
    }

    /// Packets in the generation.
    pub fn gen_size(&self) -> usize {
        self.gen_size
    }

    /// Current rank: linearly independent combinations absorbed so far.
    /// Never decreases.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Whether the generation is fully decodable (`rank == gen_size`).
    pub fn is_full(&self) -> bool {
        self.rank == self.gen_size
    }

    /// Absorbs one coded packet. Returns `true` when the combination was
    /// innovative (the rank rose), `false` when it was linearly dependent
    /// on what is already held — which every combination is once the
    /// decoder is full.
    ///
    /// # Panics
    ///
    /// Panics when `coeffs` or `payload` have the wrong length.
    pub fn absorb(&mut self, coeffs: &[u8], payload: &[u8]) -> bool {
        assert_eq!(coeffs.len(), self.gen_size, "coefficient width mismatch");
        assert_eq!(payload.len(), self.payload_len, "payload width mismatch");
        if self.is_full() {
            return false;
        }
        let (n, w, r) = (self.gen_size, self.payload_len, self.rank);
        if r == 0 {
            // Nothing to eliminate against: only the zero row is
            // dependent, and any other row is the first one held.
            if coeffs.iter().all(|&c| c == 0) {
                return false;
            }
            self.cols = (0..n).map(|c| c as u16).collect();
            self.work = vec![0; w + n];
        }
        let free = n - r;
        let (free_cols, pivots) = self.cols.split_at(free);
        let work = &mut self.work[..w + free];
        work[..w].copy_from_slice(payload);
        for (slot, &c) in work[w..].iter_mut().zip(free_cols) {
            *slot = coeffs[usize::from(c)];
        }
        // Reduce: held row `i` has a 1 on its pivot and a 0 on every
        // other pivot, so the factor is the raw incoming coefficient there.
        let stride = self.rows.len().checked_div(r); // no stride before a row
        if let Some(stride) = stride {
            for (row, &p) in self.rows.chunks_exact(stride).zip(pivots.iter().rev()) {
                gf256::mul_add_assign(work, &row[..w + free], coeffs[usize::from(p)]);
            }
        }
        let Some(j) = work[w..].iter().position(|&b| b != 0) else {
            return false; // reduced to zero: linearly dependent
        };

        // Normalise to a 1 on the new pivot, eliminate the pivot's column
        // from every held row, and swap-remove its slot everywhere.
        let (slot, last) = (w + j, w + free - 1);
        gf256::scale_assign(work, gf256::inv(work[slot]));
        if let Some(stride) = stride {
            for row in self.rows.chunks_exact_mut(stride) {
                let row = &mut row[..w + free];
                let factor = row[slot];
                gf256::mul_add_assign(row, work, factor);
                row[slot] = row[last];
            }
        }
        work[slot] = work[last];
        self.cols.swap(j, free - 1);
        self.push_work_row();
        self.rank += 1;
        if self.is_full() {
            self.unpermute();
        }
        true
    }

    /// Appends the reduced work row as row `rank`, now that every row is
    /// one free column narrower. When the rows at their stride do not fit
    /// the buffer, they are first re-packed to their width, and the buffer
    /// grows to [`GROWTH_NUM`] / [`GROWTH_DEN`] × what the rows need, or
    /// shrinks to that if it holds more.
    fn push_work_row(&mut self) {
        let (r, width) = (self.rank, self.payload_len + self.gen_size - self.rank - 1);
        let mut stride = self.rows.len().checked_div(r).unwrap_or(width); // the first row sets it
        if (r + 1) * stride > self.rows.capacity() {
            for i in 1..r {
                self.rows
                    .copy_within(i * stride..i * stride + width, i * width);
            }
            self.rows.truncate(r * width);
            stride = width;
            let need = (r + 1) * width;
            let target = need * GROWTH_NUM / GROWTH_DEN;
            if need > self.rows.capacity() {
                self.rows.reserve_exact(target - self.rows.len());
            } else if self.rows.capacity() > target {
                self.rows.shrink_to(target);
            }
        }
        self.rows.extend_from_slice(&self.work[..stride]);
    }

    /// At full rank every row is its data alone: packs the rows to the
    /// payload width, swaps each into its pivot's place, and frees the
    /// permutation and the work row.
    fn unpermute(&mut self) {
        let (n, w) = (self.gen_size, self.payload_len);
        let stride = self.rows.len() / n;
        for i in 1..n {
            self.rows.copy_within(i * stride..i * stride + w, i * w);
        }
        self.rows.truncate(n * w);
        self.rows.shrink_to_fit();
        // `held[i]` is the packet row `i` holds; each swap puts one
        // packet in its place for good.
        let held = &mut self.cols;
        held.reverse();
        for i in 0..n {
            loop {
                let p = usize::from(held[i]);
                if p == i {
                    break;
                }
                let (lo, hi) = (i.min(p), i.max(p));
                let (head, tail) = self.rows.split_at_mut(hi * w);
                head[lo * w..(lo + 1) * w].swap_with_slice(&mut tail[..w]);
                held.swap(i, p);
            }
        }
        self.cols = Vec::new();
        self.work = Vec::new();
    }

    /// Source packet `i`, available once the generation is fully decoded.
    /// `None` before full rank and for `i` outside the generation.
    pub fn packet(&self, i: usize) -> Option<&[u8]> {
        if !self.is_full() || i >= self.gen_size {
            return None;
        }
        let w = self.payload_len;
        Some(&self.rows[i * w..(i + 1) * w])
    }
}

/// Derives the `n` coded coefficients named by a `(generation, seed)`
/// wire header. Both encoder and decoder call this, so the u32 seed
/// stands in for the full coefficient vector.
///
/// An all-zero draw (likely only for tiny generations) is patched to the
/// unit vector on packet 0 so every header names a usable combination;
/// `n == 0` yields the empty vector.
pub fn derive_coeffs(gen: u16, seed: u32, n: usize) -> Vec<u8> {
    let mut coeffs = Vec::new();
    derive_coeffs_into(gen, seed, n, &mut coeffs);
    coeffs
}

/// [`derive_coeffs`] into a caller-owned buffer, so a node expanding one
/// header per received packet allocates nothing.
pub(crate) fn derive_coeffs_into(gen: u16, seed: u32, n: usize, coeffs: &mut Vec<u8>) {
    let mut rng = SimRng::new((u64::from(gen) << 32) | u64::from(seed));
    coeffs.clear();
    coeffs.extend((0..n).map(|_| (rng.next_u64() & 0xff) as u8));
    if n > 0 && coeffs.iter().all(|&c| c == 0) {
        coeffs[0] = 1;
    }
}

/// The encoder side: the GF(256) linear combination
/// `sum_i coeffs[i] · packets[i]` over packets zero-padded to
/// `payload_len` bytes.
///
/// # Panics
///
/// Panics when `coeffs` and `packets` disagree in length or a packet is
/// wider than `payload_len`.
pub fn encode(coeffs: &[u8], packets: &[Vec<u8>], payload_len: usize) -> Vec<u8> {
    let mut out = vec![0u8; payload_len];
    combine_into(&mut out, coeffs, packets.iter().map(Vec::as_slice));
    out
}

/// [`encode`] into `out`, over any source of packet slices, each
/// zero-padded to `out.len()`: the unpadded image slices
/// [`Coded`](super::rlnc::Coded) frames are encoded from.
pub(crate) fn combine_into<'a>(
    out: &mut [u8],
    coeffs: &[u8],
    packets: impl ExactSizeIterator<Item = &'a [u8]>,
) {
    assert_eq!(coeffs.len(), packets.len(), "coefficient/packet mismatch");
    out.fill(0);
    for (c, p) in coeffs.iter().zip(packets) {
        gf256::mul_add_assign(&mut out[..p.len()], p, *c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sources(n: usize, w: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|i| (0..w).map(|j| (i * 31 + j * 7 + 1) as u8).collect())
            .collect()
    }

    #[test]
    fn unit_vectors_decode_directly() {
        let src = sources(4, 8);
        let mut dec = GenDecoder::new(4, 8);
        for i in 0..4 {
            let mut coeffs = vec![0u8; 4];
            coeffs[i] = 1;
            assert!(dec.absorb(&coeffs, &src[i]));
            assert_eq!(dec.rank(), i + 1);
        }
        assert!(dec.is_full());
        for (i, s) in src.iter().enumerate() {
            assert_eq!(dec.packet(i).unwrap(), s.as_slice());
        }
    }

    #[test]
    fn random_combinations_decode_at_full_rank() {
        let g = 9;
        let src = sources(g, 23);
        let mut dec = GenDecoder::new(g, 23);
        let mut seed = 0u32;
        while !dec.is_full() {
            seed += 1;
            let coeffs = derive_coeffs(3, seed, g);
            let coded = encode(&coeffs, &src, 23);
            dec.absorb(&coeffs, &coded);
            assert!(seed < 100, "rank stalled: dependent draws only");
        }
        for (i, s) in src.iter().enumerate() {
            assert_eq!(dec.packet(i).unwrap(), s.as_slice());
        }
    }

    #[test]
    fn dependent_rows_are_rejected_and_rank_holds() {
        let src = sources(3, 5);
        let mut dec = GenDecoder::new(3, 5);
        let coeffs = derive_coeffs(0, 42, 3);
        let coded = encode(&coeffs, &src, 5);
        assert!(dec.absorb(&coeffs, &coded));
        // The same combination again is dependent; so is any scalar
        // multiple of it.
        assert!(!dec.absorb(&coeffs, &coded));
        let mut scaled_c = coeffs.clone();
        let mut scaled_d = coded.clone();
        gf256::scale_assign(&mut scaled_c, 7);
        gf256::scale_assign(&mut scaled_d, 7);
        assert!(!dec.absorb(&scaled_c, &scaled_d));
        assert_eq!(dec.rank(), 1);
        assert!(dec.packet(0).is_none(), "no read-out before full rank");
    }

    #[test]
    fn a_full_decoder_refuses_rows_and_keeps_its_packets() {
        // After a flash write fault the protocol keeps a full decoder
        // alive and coded frames keep arriving; its rows are gone by then.
        let src = sources(5, 23);
        let mut dec = GenDecoder::new(5, 23);
        let mut seed = 0u32;
        while !dec.is_full() {
            seed += 1;
            let coeffs = derive_coeffs(1, seed, 5);
            dec.absorb(&coeffs, &encode(&coeffs, &src, 23));
        }
        for seed in 1000..1010 {
            let coeffs = derive_coeffs(1, seed, 5);
            assert!(!dec.absorb(&coeffs, &encode(&coeffs, &src, 23)));
        }
        assert_eq!(dec.rank(), 5);
        for (i, s) in src.iter().enumerate() {
            assert_eq!(dec.packet(i).unwrap(), s.as_slice());
        }
    }

    #[test]
    fn packet_outside_the_generation_is_none() {
        let mut dec = GenDecoder::new(1, 4);
        assert!(dec.packet(1).is_none());
        assert!(dec.absorb(&[3], &[1, 2, 3, 4]));
        assert!(dec.packet(0).is_some());
        assert!(dec.packet(1).is_none());
        assert!(dec.packet(usize::MAX).is_none());
    }

    #[test]
    fn deriving_zero_coefficients_yields_the_empty_vector() {
        assert!(derive_coeffs(0, 7, 0).is_empty());
    }

    #[test]
    fn coefficient_derivation_is_deterministic_and_never_zero() {
        assert_eq!(derive_coeffs(2, 99, 16), derive_coeffs(2, 99, 16));
        assert_ne!(derive_coeffs(2, 99, 16), derive_coeffs(2, 100, 16));
        assert_ne!(derive_coeffs(1, 99, 16), derive_coeffs(2, 99, 16));
        for seed in 0..2000 {
            let c = derive_coeffs(0, seed, 1);
            assert!(c.iter().any(|&b| b != 0), "all-zero draw at {seed}");
        }
    }
}
