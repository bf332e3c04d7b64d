//! The coded data plane holds heap only while it decodes.
//!
//! `GenDecoder::new` allocates nothing; the first innovative packet
//! allocates the row buffer, the `u16` column permutation and the work
//! row; the buffer holds at most 1.25 × the most its compact rows have
//! needed, so a decoder's peak is set by the rank where the rows need
//! the most bytes (r = 75 of 128), not by full rank, and a full 128-packet
//! generation takes a logarithmic number of heap events, not one per
//! packet; at full rank only the decoded packets stay; and encoding a
//! `Coded` frame, whose payload is inline, allocates nothing once the
//! coefficient scratch has grown.

#[allow(dead_code)]
#[path = "../../../tests/support/heap_probe.rs"]
mod heap_probe;

use mnp_baselines::coded::decoder::{derive_coeffs, encode, GenDecoder};
use mnp_baselines::coded::rlnc::Coded;
use mnp_sim::SimRng;

use heap_probe::{
    mark, snapshot, CODED_ENCODE_ALLOCS, DECODER_FIXED_ALLOCS, DECODER_GROWTH as GROWTH,
    DECODER_NEW_ALLOCS,
};

#[test]
fn the_decoder_holds_heap_only_while_it_decodes_and_frames_own_none() {
    const N: usize = 128;
    const W: usize = 23;
    let mut rng = SimRng::new(0xc0de);
    let sources: Vec<Vec<u8>> = (0..N)
        .map(|_| (0..W).map(|_| rng.next_u64() as u8).collect())
        .collect();
    // More than a generation's worth, so a rare dependent draw cannot
    // starve the decoder; all built before anything is counted.
    let coded: Vec<(Vec<u8>, Vec<u8>)> = (0..N as u32 + 32)
        .map(|seed| {
            let coeffs = derive_coeffs(0, seed, N);
            let payload = encode(&coeffs, &sources, W);
            (coeffs, payload)
        })
        .collect();
    assert_ne!(coded[0].0[0], 0, "the first row's pivot is column 0");

    let base = mark();
    let mut dec = GenDecoder::new(N, W);
    assert_eq!(
        snapshot().since(base).calls,
        DECODER_NEW_ALLOCS,
        "allocations in GenDecoder::new"
    );

    // At rank `r` each of the `r` rows holds its data and a coefficient
    // on each of the `N − r` columns no row owns; the buffer holds at most
    // `GROWTH` × the most the rows have needed so far.
    let rows_at = |r: usize| r * (N - r + W);
    let most_by = |r: usize| (1..=r).map(rows_at).max().unwrap_or(0);
    let perm_and_work = 2 * N + (N + W);
    for (coeffs, payload) in &coded {
        if dec.is_full() {
            break;
        }
        dec.absorb(coeffs, payload);
        let held = snapshot().since(base).live as f64;
        if dec.is_full() {
            assert_eq!(held as usize, N * W, "only the decoded packets stay");
        } else {
            let bound = GROWTH * most_by(dec.rank()) as f64 + perm_and_work as f64;
            assert!(
                held <= bound,
                "rank {}: {held} B held, bound {bound}",
                dec.rank()
            );
        }
    }
    assert!(dec.is_full());
    for (i, s) in sources.iter().enumerate() {
        assert_eq!(dec.packet(i), Some(s.as_slice()));
    }
    // The rows need the most at rank 75 (5 700 B), so one decoder never
    // holds more than 1.25 · 5 700 + 407 = 7 532 B.
    let most = most_by(N);
    let peak_rank = (1..=N).find(|&r| rows_at(r) == most).unwrap();
    let peak_bound = GROWTH * most as f64 + perm_and_work as f64;
    let peak = snapshot().since(base).peak as f64;
    assert!(
        peak <= peak_bound,
        "decoder peak {peak} B, bound {peak_bound}"
    );
    // The permutation, the work row, the buffer's first allocation and
    // its cut to the decoded packets, plus the growth and shrink steps.
    // A growth sets the capacity to `GROWTH` × more than it was, from
    // `GROWTH` × the first row to at most `GROWTH` × the peak. A shrink
    // re-packs, which leaves room for a quarter more rows, and can only
    // come once the rows need less than at the peak: so shrinks are at
    // ranks above the peak rank that grow by the factor.
    let log_growth = |ratio: f64| (ratio.ln() / GROWTH.ln()).floor() as u64;
    let first = (GROWTH * rows_at(1) as f64).floor();
    let growths = log_growth(GROWTH * most as f64 / first);
    let shrinks = log_growth(N as f64 / peak_rank as f64) + 1;
    let events = snapshot().since(base).calls;
    let bound = DECODER_FIXED_ALLOCS + growths + shrinks;
    assert!(
        events <= bound,
        "{events} heap events for a generation, bound {bound}"
    );
    drop(dec);
    assert_eq!(
        snapshot().since(base).live,
        0,
        "dropping the decoder frees everything"
    );

    // A `Coded` frame carries its payload inline: once the coefficient
    // scratch has grown, encoding one allocates nothing.
    let packets = || sources.iter().map(Vec::as_slice);
    let mut scratch = Vec::new();
    let warm = Coded::encode(0, 7, packets(), W, &mut scratch);
    let before = mark();
    let frame = Coded::encode(0, 8, packets(), W, &mut scratch);
    assert_eq!(
        snapshot().since(before).calls,
        CODED_ENCODE_ALLOCS,
        "allocations encoding a Coded frame"
    );
    assert_eq!(warm.payload(), encode(&derive_coeffs(0, 7, N), &sources, W));
    assert_eq!(
        frame.payload(),
        encode(&derive_coeffs(0, 8, N), &sources, W)
    );
}
