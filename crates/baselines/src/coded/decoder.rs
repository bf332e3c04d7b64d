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
//! The decoder keeps the received combinations in *triangular* echelon
//! form. [`GenDecoder::absorb`] forward-eliminates the incoming row
//! against the held pivot rows in ascending pivot order and stops at the
//! first nonzero column no row owns: that column is the new pivot, the
//! row is normalised to a leading 1 and appended, from the pivot on
//! (`coeffs[pivot..]` followed by the data), to one byte buffer of rows
//! in arrival order; a `u16` table maps each pivot to its row's offset,
//! so a row operation is a single [`gf256::mul_add_assign`]. Held rows
//! are never touched again until the rank reaches `gen_size`; then one
//! bottom-up back-substitution over the *data* columns alone recovers the
//! source packets and the rows are released.
//!
//! Memory: nothing until the first innovative packet. From then on the
//! row buffer, the offset table (`2·gen_size` bytes) and the work row
//! (`gen_size + payload_len` bytes); the buffer grows by a fixed factor
//! of 1.25, so it never holds more than 1.25 × the rows it stores, at
//! most `gen_size` rows of `gen_size − pivot + payload_len` bytes
//! (≤ 128·129/2 + 128·23 = 11 200 B for the paper layout). At full rank
//! all three are freed and only the `gen_size · payload_len` decoded
//! bytes stay until the decoder is dropped.

use mnp_sim::SimRng;

use super::gf256;

/// How much the row buffer grows when a row does not fit: the new
/// capacity is this factor times the bytes it must hold.
const GROWTH_NUM: usize = 5;
const GROWTH_DEN: usize = 4;

/// Offset-table entry of a pivot no row owns yet.
const NO_ROW: u16 = u16::MAX;

/// Incremental triangular-echelon decoder for a single generation.
#[derive(Clone, Debug)]
pub struct GenDecoder {
    gen_size: usize,
    payload_len: usize,
    rank: usize,
    /// The held rows back to back in arrival order: each is its
    /// normalised coefficients from its pivot on (leading 1), then its
    /// data. Empty before the first innovative packet and after full rank.
    rows: Vec<u8>,
    /// `offsets[c]` is where the row whose pivot is column `c` starts in
    /// `rows`, or [`NO_ROW`]. Allocated with `rows`.
    offsets: Vec<u16>,
    /// The incoming row while it is being eliminated: `gen_size`
    /// coefficients, then the data. Allocated with `rows`.
    work: Vec<u8>,
    /// The `gen_size` source packets back to back; empty before full rank.
    decoded: Vec<u8>,
}

impl GenDecoder {
    /// An empty decoder for a generation of `gen_size` packets of
    /// `payload_len` padded bytes each. Allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics when `gen_size` is zero, or when a full triangle of rows
    /// would not be addressable by a `u16` offset.
    pub fn new(gen_size: usize, payload_len: usize) -> Self {
        assert!(gen_size > 0, "empty generation");
        assert!(
            triangle_bytes(gen_size, payload_len) < usize::from(NO_ROW),
            "generation of {gen_size} packets of {payload_len} bytes is too large"
        );
        GenDecoder {
            gen_size,
            payload_len,
            rank: 0,
            rows: Vec::new(),
            offsets: Vec::new(),
            work: Vec::new(),
            decoded: Vec::new(),
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
        let n = self.gen_size;
        if self.rank == 0 {
            // Nothing to eliminate against: only the zero row is
            // dependent, and any other row is the first one held.
            if coeffs.iter().all(|&c| c == 0) {
                return false;
            }
            self.offsets = vec![NO_ROW; n];
            self.work = vec![0; n + self.payload_len];
        }
        self.work[..n].copy_from_slice(coeffs);
        self.work[n..].copy_from_slice(payload);

        // Forward-eliminate in ascending pivot order. Each pivot row has
        // a leading 1 at its column and nothing before it, so the factor
        // is the raw coefficient and columns below `c` stay untouched.
        // The first nonzero column without a row is the new pivot.
        let mut pivot = None;
        for c in 0..n {
            let factor = self.work[c];
            if factor == 0 {
                continue;
            }
            match self.offsets[c] {
                NO_ROW => {
                    pivot = Some(c);
                    break;
                }
                off => {
                    let row = held_row(&self.rows, off, n - c + self.payload_len);
                    gf256::mul_add_assign(&mut self.work[c..], row, factor);
                }
            }
        }
        let Some(pivot) = pivot else {
            return false; // reduced to zero: linearly dependent
        };

        // Normalise to a leading 1 and keep the row from its pivot on.
        let row = &mut self.work[pivot..];
        gf256::scale_assign(row, gf256::inv(row[0]));
        let needed = self.rows.len() + row.len();
        if needed > self.rows.capacity() {
            let target = needed * GROWTH_NUM / GROWTH_DEN;
            self.rows.reserve_exact(target - self.rows.len());
        }
        self.offsets[pivot] = self.rows.len() as u16;
        self.rows.extend_from_slice(row);
        self.rank += 1;
        if self.is_full() {
            self.back_substitute();
        }
        true
    }

    /// At full rank the coefficient matrix is unit upper triangular:
    /// source packet `p` is row `p`'s data minus its coefficients times
    /// the packets above `p`, which a bottom-up sweep has already
    /// recovered. Only data columns are combined; then the rows, the
    /// offset table and the work row are freed.
    fn back_substitute(&mut self) {
        let (n, w) = (self.gen_size, self.payload_len);
        let mut decoded = vec![0u8; n * w];
        for p in (0..n).rev() {
            let row = held_row(&self.rows, self.offsets[p], n - p + w);
            let (tail, data) = row.split_at(n - p);
            let (head, solved) = decoded.split_at_mut((p + 1) * w);
            let packet = &mut head[p * w..];
            packet.copy_from_slice(data);
            for (j, factor) in tail[1..].iter().enumerate() {
                gf256::mul_add_assign(packet, &solved[j * w..(j + 1) * w], *factor);
            }
        }
        self.rows = Vec::new();
        self.offsets = Vec::new();
        self.work = Vec::new();
        self.decoded = decoded;
    }

    /// Source packet `i`, available once the generation is fully decoded.
    /// `None` before full rank and for `i` outside the generation.
    pub fn packet(&self, i: usize) -> Option<&[u8]> {
        if !self.is_full() || i >= self.gen_size {
            return None;
        }
        let w = self.payload_len;
        Some(&self.decoded[i * w..(i + 1) * w])
    }
}

/// The `len` bytes of the held row starting at `off`.
fn held_row(rows: &[u8], off: u16, len: usize) -> &[u8] {
    let off = usize::from(off);
    &rows[off..off + len]
}

/// Bytes of a full triangle of rows: row `p` holds `gen_size − p`
/// coefficients and `payload_len` data bytes.
fn triangle_bytes(gen_size: usize, payload_len: usize) -> usize {
    gen_size * (gen_size + 1) / 2 + gen_size * payload_len
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
