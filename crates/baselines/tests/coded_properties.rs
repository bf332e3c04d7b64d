//! Property tests for the coding layer: the GF(256) field axioms the
//! RLNC decoder's correctness rests on, the row kernels against the
//! scalar multiply, and the decoder's rank discipline — on its own and
//! against the incremental-RREF decoder it replaced.

use proptest::prelude::*;

use mnp_baselines::coded::decoder::{derive_coeffs, encode, GenDecoder};
use mnp_baselines::coded::gf256;
use mnp_sim::SimRng;

/// The decoder `GenDecoder` was before it went forward-only: every
/// absorbed row is forward-eliminated, normalised and then back-eliminated
/// from all held rows, so the matrix is the identity at full rank. Kept
/// here as the reference, on the scalar `gf256::mul` only.
struct RrefDecoder {
    gen_size: usize,
    /// `rows[c]` = (coefficients, data) of the row whose pivot is `c`.
    rows: Vec<Option<(Vec<u8>, Vec<u8>)>>,
    rank: usize,
}

fn scalar_mul_add(dst: &mut [u8], src: &[u8], c: u8) {
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= gf256::mul(*s, c);
    }
}

impl RrefDecoder {
    fn new(gen_size: usize) -> Self {
        RrefDecoder {
            gen_size,
            rows: vec![None; gen_size],
            rank: 0,
        }
    }

    fn absorb(&mut self, coeffs: &[u8], payload: &[u8]) -> bool {
        let mut coeffs = coeffs.to_vec();
        let mut data = payload.to_vec();
        for c in 0..self.gen_size {
            if let (factor @ 1.., Some((rc, rd))) = (coeffs[c], &self.rows[c]) {
                scalar_mul_add(&mut coeffs, rc, factor);
                scalar_mul_add(&mut data, rd, factor);
            }
        }
        let Some(pivot) = coeffs.iter().position(|&c| c != 0) else {
            return false;
        };
        let scale = gf256::inv(coeffs[pivot]);
        for b in coeffs.iter_mut().chain(data.iter_mut()) {
            *b = gf256::mul(*b, scale);
        }
        for (rc, rd) in self.rows.iter_mut().flatten() {
            let factor = rc[pivot];
            scalar_mul_add(rc, &coeffs, factor);
            scalar_mul_add(rd, &data, factor);
        }
        self.rows[pivot] = Some((coeffs, data));
        self.rank += 1;
        true
    }

    fn packet(&self, i: usize) -> Option<&[u8]> {
        if self.rank < self.gen_size {
            return None;
        }
        self.rows[i].as_ref().map(|(_, d)| d.as_slice())
    }
}

/// `mul_add_assign` and `scale_assign` against the scalar multiply for
/// every multiplier over every length from empty to five 8-byte words:
/// the word body, the scalar tail, and the `c == 0` / `c == 1` shortcuts.
#[test]
fn row_kernels_agree_with_scalar_mul_for_every_multiplier_and_length() {
    let mut rng = SimRng::new(0x6f256);
    for len in 0..=40usize {
        let src: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let dst: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        for c in 0..=255u8 {
            let mut got = dst.clone();
            gf256::mul_add_assign(&mut got, &src, c);
            let mut want = dst.clone();
            scalar_mul_add(&mut want, &src, c);
            assert_eq!(got, want, "mul_add_assign c={c} len={len}");

            let mut got = src.clone();
            gf256::scale_assign(&mut got, c);
            let want: Vec<u8> = src.iter().map(|&b| gf256::mul(b, c)).collect();
            assert_eq!(got, want, "scale_assign c={c} len={len}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 256,
    })]

    /// Multiplication and division round-trip: `(a·b)/b == a` for b ≠ 0.
    #[test]
    fn prop_mul_div_round_trip(a in 0u8..=255, b in 1u8..=255) {
        prop_assert_eq!(gf256::div(gf256::mul(a, b), b), a);
        prop_assert_eq!(gf256::mul(gf256::div(a, b), b), a);
    }

    /// Multiplication distributes over addition (XOR).
    #[test]
    fn prop_mul_distributes_over_add(a in 0u8..=255, b in 0u8..=255, c in 0u8..=255) {
        prop_assert_eq!(
            gf256::mul(a, gf256::add(b, c)),
            gf256::add(gf256::mul(a, b), gf256::mul(a, c))
        );
    }

    /// Multiplication is commutative and associative.
    #[test]
    fn prop_mul_commutes_and_associates(a in 0u8..=255, b in 0u8..=255, c in 0u8..=255) {
        prop_assert_eq!(gf256::mul(a, b), gf256::mul(b, a));
        prop_assert_eq!(
            gf256::mul(gf256::mul(a, b), c),
            gf256::mul(a, gf256::mul(b, c))
        );
    }

    /// Every nonzero byte has a two-sided multiplicative inverse.
    #[test]
    fn prop_every_nonzero_byte_has_an_inverse(x in 1u8..=255) {
        let i = gf256::inv(x);
        prop_assert_eq!(gf256::mul(x, i), 1);
        prop_assert_eq!(gf256::mul(i, x), 1);
        prop_assert_eq!(gf256::div(1, x), i);
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48, // each case runs a full decode
    })]

    /// Feeding a decoder seed-derived random combinations: the rank never
    /// decreases, `absorb` returns true exactly when the rank rose,
    /// packets read out only at full rank (`rank == gen_size`), and the
    /// decoded packets equal the sources.
    #[test]
    fn prop_decoder_rank_is_monotone_and_decode_needs_full_rank(
        gen_size in 1usize..24,
        width in 1usize..24,
        gen in 0u16..4,
        seed0 in 0u32..1_000_000,
    ) {
        let sources: Vec<Vec<u8>> = (0..gen_size)
            .map(|i| (0..width).map(|j| (i * 37 + j * 11 + 3) as u8).collect())
            .collect();
        let mut dec = GenDecoder::new(gen_size, width);
        let mut seed = seed0;
        let mut absorbed = 0usize;
        while !dec.is_full() {
            // Dependent draws happen (~1/256 per packet); bound the loop
            // generously rather than assuming every draw is innovative.
            prop_assert!(absorbed < 16 * gen_size + 64, "rank stalled");
            let before = dec.rank();
            prop_assert!(dec.packet(0).is_none(), "no read-out below full rank");
            let coeffs = derive_coeffs(gen, seed, gen_size);
            let coded = encode(&coeffs, &sources, width);
            let innovative = dec.absorb(&coeffs, &coded);
            let after = dec.rank();
            prop_assert!(after >= before, "rank decreased");
            prop_assert_eq!(innovative, after == before + 1);
            prop_assert!(after <= gen_size, "rank above generation size");
            seed = seed.wrapping_add(1);
            absorbed += 1;
        }
        prop_assert_eq!(dec.rank(), gen_size);
        for (i, src) in sources.iter().enumerate() {
            prop_assert_eq!(dec.packet(i).expect("full rank"), src.as_slice());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32, // each case decodes a generation twice, once per decoder
    })]

    /// Differential: the forward-only decoder and the incremental-RREF
    /// reference see the same absorb sequence — random combinations mixed
    /// with repeats, scalar multiples, unit vectors, the all-zero patch
    /// (`e_0`) and the zero row — and must agree on every `absorb` result,
    /// on the rank after each, on "no read-out below full rank", and on
    /// the decoded packets, which are the sources. A full decoder keeps
    /// refusing rows and keeps its packets.
    #[test]
    fn prop_forward_only_decoder_matches_the_rref_reference(
        gen_size in 1usize..=128,
        width in 1usize..=32,
        gen in 0u16..4,
        stream in any::<u64>(),
    ) {
        let mut rng = SimRng::new(stream);
        let sources: Vec<Vec<u8>> = (0..gen_size)
            .map(|_| (0..width).map(|_| rng.next_u64() as u8).collect())
            .collect();
        let mut dec = GenDecoder::new(gen_size, width);
        let mut reference = RrefDecoder::new(gen_size);
        let mut fed: Vec<Vec<u8>> = Vec::new();
        let mut after_full = 0;
        while after_full < 4 {
            prop_assert!(fed.len() < 4 * gen_size + 64, "rank stalled");
            let unit = |i: usize| {
                let mut coeffs = vec![0u8; gen_size];
                coeffs[i] = 1;
                coeffs
            };
            let coeffs = match rng.index(8) {
                0 if !fed.is_empty() => fed[rng.index(fed.len())].clone(),
                1 if !fed.is_empty() => {
                    let mut row = fed[rng.index(fed.len())].clone();
                    gf256::scale_assign(&mut row, rng.next_u64() as u8 | 2);
                    row
                }
                2 => unit(rng.index(gen_size)),
                3 => unit(0), // what `derive_coeffs` patches an all-zero draw to
                4 => vec![0u8; gen_size],
                _ => derive_coeffs(gen, rng.next_u32(), gen_size),
            };
            let coded = encode(&coeffs, &sources, width);
            let was_full = dec.is_full();
            let innovative = dec.absorb(&coeffs, &coded);
            prop_assert_eq!(innovative, reference.absorb(&coeffs, &coded));
            prop_assert_eq!(dec.rank(), reference.rank);
            prop_assert!(!(was_full && innovative), "a full decoder absorbed a row");
            fed.push(coeffs);
            if dec.is_full() {
                after_full += 1;
                for (i, src) in sources.iter().enumerate() {
                    prop_assert_eq!(dec.packet(i), Some(src.as_slice()));
                    prop_assert_eq!(reference.packet(i), Some(src.as_slice()));
                }
            } else {
                for i in 0..gen_size {
                    prop_assert!(dec.packet(i).is_none(), "read-out below full rank");
                }
            }
        }
    }
}
