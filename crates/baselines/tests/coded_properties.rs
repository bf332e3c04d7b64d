//! Property tests for the coding layer: the GF(256) field axioms the
//! RLNC decoder's correctness rests on, the row kernels against the
//! scalar multiply, and the decoder's rank discipline — on its own and
//! against a full-width incremental-RREF reference.

use mnp_baselines::coded::decoder::{derive_coeffs, encode, GenDecoder};
use mnp_baselines::coded::gf256::{self, add, div, inv, mul};
use mnp_sim::{check, SimRng};

/// The reference decoder, on the scalar `gf256::mul` only: every absorbed
/// row is forward-eliminated, normalised and then back-eliminated from
/// all held rows, each row `gen_size` coefficients wide, so the matrix is
/// the identity at full rank. `GenDecoder` keeps the same reduced form
/// without the bytes of the pivot columns.
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

/// Multiplication and division round-trip: `(a·b)/b == a` for b ≠ 0.
#[test]
fn prop_mul_div_round_trip() {
    check("prop_mul_div_round_trip", 256, |rng| {
        let (a, b) = (rng.next_u64() as u8, rng.range_u64(1, 256) as u8);
        assert_eq!(div(mul(a, b), b), a);
        assert_eq!(mul(div(a, b), b), a);
    });
}

/// Multiplication distributes over addition (XOR).
#[test]
fn prop_mul_distributes_over_add() {
    check("prop_mul_distributes_over_add", 256, |rng| {
        let [a, b, c] = [(); 3].map(|_| rng.next_u64() as u8);
        assert_eq!(mul(a, add(b, c)), add(mul(a, b), mul(a, c)));
    });
}

/// Multiplication is commutative and associative.
#[test]
fn prop_mul_commutes_and_associates() {
    check("prop_mul_commutes_and_associates", 256, |rng| {
        let [a, b, c] = [(); 3].map(|_| rng.next_u64() as u8);
        assert_eq!(mul(a, b), mul(b, a));
        assert_eq!(mul(mul(a, b), c), mul(a, mul(b, c)));
    });
}

/// Every nonzero byte has a two-sided multiplicative inverse.
#[test]
fn prop_every_nonzero_byte_has_an_inverse() {
    check("prop_every_nonzero_byte_has_an_inverse", 256, |rng| {
        let x = rng.range_u64(1, 256) as u8;
        let i = inv(x);
        assert_eq!(mul(x, i), 1);
        assert_eq!(mul(i, x), 1);
        assert_eq!(div(1, x), i);
    });
}

/// Feeding a decoder seed-derived random combinations: the rank never
/// decreases, `absorb` returns true exactly when the rank rose,
/// packets read out only at full rank (`rank == gen_size`), and the
/// decoded packets equal the sources.
#[test]
fn prop_decoder_rank_is_monotone_and_decode_needs_full_rank() {
    // 48 cases: each runs a full decode.
    check(
        "prop_decoder_rank_is_monotone_and_decode_needs_full_rank",
        48,
        |rng| {
            let (gen_size, width) = (rng.index(23) + 1, rng.index(23) + 1);
            let gen = rng.range_u64(0, 4) as u16;
            let sources: Vec<Vec<u8>> = (0..gen_size)
                .map(|i| (0..width).map(|j| (i * 37 + j * 11 + 3) as u8).collect())
                .collect();
            let mut dec = GenDecoder::new(gen_size, width);
            let mut seed = rng.range_u64(0, 1_000_000) as u32;
            let mut absorbed = 0usize;
            while !dec.is_full() {
                // Dependent draws happen (~1/256 per packet); bound the loop
                // generously rather than assuming every draw is innovative.
                assert!(absorbed < 16 * gen_size + 64, "rank stalled");
                let before = dec.rank();
                assert!(dec.packet(0).is_none(), "no read-out below full rank");
                let coeffs = derive_coeffs(gen, seed, gen_size);
                let coded = encode(&coeffs, &sources, width);
                let innovative = dec.absorb(&coeffs, &coded);
                let after = dec.rank();
                assert!(after >= before, "rank decreased");
                assert_eq!(innovative, after == before + 1);
                assert!(after <= gen_size, "rank above generation size");
                seed = seed.wrapping_add(1);
                absorbed += 1;
            }
            assert_eq!(dec.rank(), gen_size);
            for (i, src) in sources.iter().enumerate() {
                assert_eq!(dec.packet(i).expect("full rank"), src.as_slice());
            }
        },
    );
}

/// How the differential test picks the rows it feeds.
#[derive(Clone, Copy, Debug)]
enum Order {
    /// Random combinations mixed with repeats, scalar multiples, unit
    /// vectors, the all-zero patch (`e_0`) and the zero row.
    Mixed,
    /// Each innovative row reduces to a single free column, the
    /// decoder's last free slot: columns `n − 1` down to 0, so the
    /// swap-remove never moves a slot.
    LastSlot,
    /// Each innovative row reduces to a single free column, the
    /// decoder's first free slot: column 0, then `n − 1` down to 1, as
    /// each swap-remove moves the last free column to the front.
    FirstSlot,
}

impl Order {
    /// The column the `k`-th innovative row of a slot order reduces to.
    fn target(self, k: usize, n: usize) -> Option<usize> {
        match self {
            Order::Mixed => None,
            Order::LastSlot => Some(n - 1 - k),
            Order::FirstSlot => Some(if k == 0 { 0 } else { n - k }),
        }
    }
}

/// One differential case: the compact decoder and the full-width
/// reference see the same absorb sequence — rows in `order`, mixed with
/// repeats, scalar multiples and the zero row, and once, at a random
/// rank, a random combination of every row fed so far — and must agree
/// on every `absorb` result, on the rank after each, on "no read-out
/// below full rank", and on the decoded packets, which are the sources.
/// A full decoder keeps refusing rows and keeps its packets.
fn matches_the_reference(rng: &mut SimRng, gen_size: usize, width: usize, order: Order) {
    let gen = rng.range_u64(0, 4) as u16;
    let sources: Vec<Vec<u8>> = (0..gen_size)
        .map(|_| (0..width).map(|_| rng.next_u64() as u8).collect())
        .collect();
    let mut dec = GenDecoder::new(gen_size, width);
    let mut reference = RrefDecoder::new(gen_size);
    let mut fed: Vec<Vec<u8>> = Vec::new();
    let mut dependent_at = Some(rng.index(gen_size));
    let mut after_full = 0;
    while after_full < 4 {
        assert!(fed.len() < 4 * gen_size + 64, "rank stalled");
        let unit = |i: usize| {
            let mut coeffs = vec![0u8; gen_size];
            coeffs[i] = 1;
            coeffs
        };
        // A slot order's next innovative row: nonzero on its target
        // column, anything on the columns targeted before, zero elsewhere.
        let rank = dec.rank();
        let slot_row = |rng: &mut SimRng| {
            let k = rank.min(gen_size - 1);
            let mut coeffs = vec![0u8; gen_size];
            for i in 0..k {
                coeffs[order.target(i, gen_size)?] = rng.next_u64() as u8;
            }
            coeffs[order.target(k, gen_size)?] = rng.range_u64(1, 256) as u8;
            Some(coeffs)
        };
        let dependent = dependent_at == Some(rank);
        let coeffs = match rng.index(8) {
            _ if dependent => {
                dependent_at = None;
                let mut row = vec![0u8; gen_size];
                for f in &fed {
                    gf256::mul_add_assign(&mut row, f, rng.next_u64() as u8);
                }
                row
            }
            0 if !fed.is_empty() => fed[rng.index(fed.len())].clone(),
            1 if !fed.is_empty() => {
                let mut row = fed[rng.index(fed.len())].clone();
                gf256::scale_assign(&mut row, rng.next_u64() as u8 | 2);
                row
            }
            4 => vec![0u8; gen_size],
            choice => match slot_row(rng) {
                Some(row) => row,
                None if choice == 2 => unit(rng.index(gen_size)),
                None if choice == 3 => unit(0), // what `derive_coeffs` patches an all-zero draw to
                None => derive_coeffs(gen, rng.next_u32(), gen_size),
            },
        };
        let coded = encode(&coeffs, &sources, width);
        let was_full = dec.is_full();
        let innovative = dec.absorb(&coeffs, &coded);
        assert_eq!(innovative, reference.absorb(&coeffs, &coded));
        assert_eq!(dec.rank(), reference.rank);
        assert!(!(was_full && innovative), "a full decoder absorbed a row");
        assert!(!(dependent && innovative), "a dependent row was absorbed");
        fed.push(coeffs);
        if dec.is_full() {
            after_full += 1;
            for (i, src) in sources.iter().enumerate() {
                assert_eq!(dec.packet(i), Some(src.as_slice()));
                assert_eq!(reference.packet(i), Some(src.as_slice()));
            }
        } else {
            for i in 0..gen_size {
                assert!(dec.packet(i).is_none(), "read-out below full rank");
            }
        }
    }
}

/// Differential against the full-width reference: generations of
/// 1..=128 packets, widths of 1..=32 bytes (a `Coded` frame carries at
/// most 23), each case in one of the three orders; and once per run the
/// paper layout, 128 × 23, in the mixed order a node hears.
#[test]
fn prop_compact_decoder_matches_the_rref_reference() {
    check(
        "prop_compact_decoder_matches_the_rref_reference/128x23",
        1,
        |rng| matches_the_reference(rng, 128, 23, Order::Mixed),
    );
    // 32 cases: each decodes a generation twice, once per decoder.
    check(
        "prop_compact_decoder_matches_the_rref_reference",
        32,
        |rng| {
            let (gen_size, width) = (rng.index(128) + 1, rng.index(32) + 1);
            let order = [Order::Mixed, Order::LastSlot, Order::FirstSlot][rng.index(3)];
            matches_the_reference(rng, gen_size, width, order)
        },
    );
}
