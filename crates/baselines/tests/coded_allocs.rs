//! The coded data plane holds heap only while it decodes.
//!
//! `GenDecoder::new` allocates nothing; the first innovative packet
//! allocates the row buffer, the `u16` pivot-to-offset table and the work
//! row; the buffer grows by a factor of 1.25, so it never holds more than
//! 1.25 × the rows it stores and a full 128-packet generation takes a
//! logarithmic number of heap events, not one per packet; at full rank
//! only the decoded packets stay; and encoding a `Coded` frame, whose
//! payload is inline, allocates nothing once the coefficient scratch has
//! grown.

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

    // Row `p` holds `N − p` coefficients and `W` data bytes; at rank `r`
    // the held rows are at most those of pivots `0..r`.
    let row_bytes = |p: usize| N - p + W;
    let triangle = |r: usize| (0..r).map(row_bytes).sum::<usize>();
    let table_and_work = 2 * N + (N + W);
    for (coeffs, payload) in &coded {
        if dec.is_full() {
            break;
        }
        dec.absorb(coeffs, payload);
        let held = snapshot().since(base).live as f64;
        if dec.is_full() {
            assert_eq!(held as usize, N * W, "only the decoded packets stay");
        } else {
            let bound = GROWTH * triangle(dec.rank()) as f64 + table_and_work as f64;
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
    // The table, the work row, the buffer's first allocation and the
    // decoded packets, plus the growths: each multiplies the capacity by
    // at least `GROWTH`, from `GROWTH` times the first row to the triangle.
    let growths = (triangle(N) as f64 / (GROWTH * row_bytes(0) as f64))
        .ln()
        .div_euclid(GROWTH.ln()) as u64
        + 1;
    let events = snapshot().since(base).calls;
    assert!(
        events <= DECODER_FIXED_ALLOCS + growths,
        "{events} heap events for a generation, bound {}",
        DECODER_FIXED_ALLOCS + growths
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
