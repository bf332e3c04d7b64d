//! Reproducible random-number streams.
//!
//! The generator is a self-contained xoshiro256++ (public-domain algorithm
//! by Blackman & Vigna) seeded through a SplitMix64 expansion, so the crate
//! builds in offline environments with no external dependencies.

use crate::time::SimDuration;

/// A deterministic random-number stream for one simulation component.
///
/// Every stochastic choice in the reproduction (link error sampling, MAC
/// backoff, MNP's random advertisement intervals) draws from a `SimRng`.
/// Streams for different components are derived from a single experiment
/// seed with [`SimRng::derive`], so components do not perturb each other's
/// sequences and whole runs replay bit-for-bit.
///
/// # Example
///
/// ```
/// use mnp_sim::SimRng;
///
/// let mut a = SimRng::new(42).derive(7);
/// let mut b = SimRng::new(42).derive(7);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    state: [u64; 4],
    seed: u64,
}

impl SimRng {
    /// Creates the root stream for an experiment seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            state: expand_seed(mix(seed, 0x9e37_79b9_7f4a_7c15)),
            seed,
        }
    }

    /// Derives an independent child stream identified by `stream_id`.
    ///
    /// Derivation is a pure function of `(seed, stream_id)`, independent of
    /// how much randomness has already been drawn from `self`.
    pub fn derive(&self, stream_id: u64) -> SimRng {
        let child = mix(self.seed, stream_id.wrapping_add(1));
        SimRng {
            state: expand_seed(child),
            seed: child,
        }
    }

    /// The seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// A uniformly random `u64` (xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let [s0, s1, s2, s3] = self.state;
        let result = s0.wrapping_add(s3).rotate_left(23).wrapping_add(s0);
        let t = s1 << 17;
        let mut s = [s0, s1, s2, s3];
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        self.state = s;
        result
    }

    /// Advances the stream past `n` draws, leaving it exactly where `n`
    /// calls of [`SimRng::next_u64`] would: for callers that must keep
    /// the stream's position but have no use for the values.
    ///
    /// It costs O(log n): the low 9 bits of `n` are single steps, and each
    /// higher set bit is one precomputed jump of about 256 steps' work.
    ///
    /// # Example
    ///
    /// ```
    /// use mnp_sim::SimRng;
    ///
    /// let mut a = SimRng::new(3);
    /// let mut b = a.clone();
    /// a.skip(2);
    /// b.next_u64();
    /// b.next_u64();
    /// assert_eq!(a.next_u64(), b.next_u64());
    /// ```
    #[inline]
    pub fn skip(&mut self, n: u64) {
        for _ in 0..n & ((1 << STEP_BITS) - 1) {
            self.state = advance(self.state);
        }
        if n >> STEP_BITS != 0 {
            self.state = jump_by(self.state, n >> STEP_BITS);
        }
    }

    /// A uniformly random `u32`.
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// A uniformly random float in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        // 53 high-quality mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.unit() < p
        }
    }

    /// A uniformly random integer in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        let span = hi - lo;
        // Lemire's multiply-shift map; bias is < span / 2^64, far below
        // anything a simulation of this size can resolve.
        let hi_bits = ((self.next_u64() as u128 * span as u128) >> 64) as u64;
        lo + hi_bits
    }

    /// A uniformly random usize in `[0, n)`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot pick an index from an empty collection");
        self.range_u64(0, n as u64) as usize
    }

    /// A uniformly random float in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty or not finite.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo < hi && lo.is_finite() && hi.is_finite(),
            "bad range [{lo}, {hi})"
        );
        point_in(lo, hi, self.unit())
    }

    /// A uniformly random duration in `[lo, hi)`; returns `lo` when the range
    /// is empty (`lo >= hi`), which lets callers express "no jitter".
    pub fn duration_between(&mut self, lo: SimDuration, hi: SimDuration) -> SimDuration {
        if lo >= hi {
            return lo;
        }
        SimDuration::from_micros(self.range_u64(lo.as_micros(), hi.as_micros()))
    }

    /// A duration jittered uniformly in `[base, base + spread)`.
    pub fn jittered(&mut self, base: SimDuration, spread: SimDuration) -> SimDuration {
        base + self.duration_between(SimDuration::ZERO, spread)
    }
}

/// The point a `unit` draw `u` in `[0, 1)` picks in `[lo, hi)`.
fn point_in(lo: f64, hi: f64, u: f64) -> f64 {
    let width = hi - lo;
    let x = if width.is_finite() {
        lo + u * width
    } else {
        // The width overflows only when lo < 0 < hi, so neither term does.
        lo * (1.0 - u) + hi * u
    };
    // Rounding can carry a point at the top of a narrow range onto `hi`.
    if x < hi {
        x
    } else {
        hi.next_down()
    }
}

/// The xoshiro256 state transition [`SimRng::next_u64`] makes after
/// reading its output (which the optimiser drops here). It is linear over
/// GF(2), so `n` of them in a row are one linear map, which
/// [`SimRng::skip`] applies in O(log n).
#[inline]
fn advance(state: [u64; 4]) -> [u64; 4] {
    let mut rng = SimRng { state, seed: 0 };
    rng.next_u64();
    rng.state
}

/// `state` advanced `high · 2^STEP_BITS` steps: one [`JUMPS`] entry per
/// set bit of `high`. Out of line, so that a caller's loop that inlines
/// [`SimRng::skip`] for its many short skips stays small; inlining the
/// jumps too made a 20×20 topology build 9 % slower.
#[inline(never)]
fn jump_by(mut state: [u64; 4], high: u64) -> [u64; 4] {
    for (k, poly) in JUMPS.iter().enumerate() {
        if high >> k & 1 == 1 {
            state = jump(state, poly);
        }
    }
    state
}

/// `T^m state`, where `T` is [`advance`] and `poly` holds `x^m mod P(x)`
/// ([`CHAR_POLY`]), so that `T^m = Σ poly_i T^i`. The sum is taken by
/// Horner's rule over 4-bit digits, highest first: `acc ← T⁴ acc ⊕
/// h(T) state`, where `h(T) state` is one of the 16 XOR combinations of
/// `state`, `T state`, `T² state` and `T³ state`. That is 256 steps, as
/// the generator's authors' `jump()` takes, with a lookup per digit
/// instead of a masked XOR per bit (≈ 0.3 µs, against ≈ 0.5 µs for the
/// per-bit form).
fn jump(state: [u64; 4], poly: &[u64; 4]) -> [u64; 4] {
    let mut combos = [[0u64; 4]; 16];
    let mut power = state;
    for b in 0..4 {
        for j in 0..1 << b {
            combos[1 << b | j] = xor(combos[j], power);
        }
        power = advance(power);
    }
    let mut acc = [0u64; 4];
    for word in poly.iter().rev() {
        for shift in (0..64).step_by(4).rev() {
            for _ in 0..4 {
                acc = advance(acc);
            }
            acc = xor(acc, combos[(word >> shift & 0xf) as usize]);
        }
    }
    acc
}

fn xor(a: [u64; 4], b: [u64; 4]) -> [u64; 4] {
    [a[0] ^ b[0], a[1] ^ b[1], a[2] ^ b[2], a[3] ^ b[3]]
}

/// The low 256 coefficients of [`advance`]'s characteristic polynomial
/// `P(x) = x^256 + Σ c_i x^i`, bit `i` of the little-endian words being
/// `c_i`. Berlekamp–Massey over one state bit's sequence yields it
/// (`tests::char_poly_is_berlekamp_massey_of_the_stream`).
const CHAR_POLY: [u64; 4] = [
    0x9d11_6f2b_b0f0_f001,
    0x0280_002b_cefd_1a5e,
    0x04b4_edcf_2625_9f85,
    0x0003_c03c_3f3e_cb19,
];

/// [`SimRng::skip`] takes `n mod 2^STEP_BITS` single steps. A jump costs
/// about 300 single steps (≈ 0.3 µs against ≈ 1 ns per step on a 2-CPU
/// x86-64 host), so bit 8's 256 steps are cheaper stepped and bit 9's 512
/// are cheaper jumped.
const STEP_BITS: u32 = 9;

/// `JUMPS[k] = x^(2^(STEP_BITS + k)) mod P(x)`: one [`jump`] by
/// each power of two a `u64` skip can hold above the stepped bits. Built
/// at compile time by repeated squaring; 32 B per power.
static JUMPS: [[u64; 4]; 64 - STEP_BITS as usize] = {
    let mut table = [[0; 4]; 64 - STEP_BITS as usize];
    let mut p = [2, 0, 0, 0]; // x
    let mut k = 0;
    while k < STEP_BITS {
        p = square_mod_p(p);
        k += 1;
    }
    while k < 64 {
        table[(k - STEP_BITS) as usize] = p;
        p = square_mod_p(p);
        k += 1;
    }
    table
};

/// `a(x)² mod P(x)` over GF(2). Squaring only spreads the coefficients
/// (bit `i` to bit `2i`: the cross terms cancel in pairs); each term of
/// degree `256 + j` then folds down as `x^j · (P(x) − x^256)`, highest
/// first.
const fn square_mod_p(a: [u64; 4]) -> [u64; 4] {
    let mut w = [0u64; 8];
    let mut i = 0;
    while i < 256 {
        if a[i / 64] >> (i % 64) & 1 == 1 {
            w[2 * i / 64] |= 1 << (2 * i % 64);
        }
        i += 1;
    }
    let mut deg = 511;
    while deg >= 256 {
        if w[deg / 64] >> (deg % 64) & 1 == 1 {
            w[deg / 64] ^= 1 << (deg % 64);
            let (q, r) = ((deg - 256) / 64, (deg - 256) % 64);
            let mut j = 0;
            while j < 4 {
                w[q + j] ^= CHAR_POLY[j] << r;
                if r > 0 {
                    w[q + j + 1] ^= CHAR_POLY[j] >> (64 - r);
                }
                j += 1;
            }
        }
        deg -= 1;
    }
    [w[0], w[1], w[2], w[3]]
}

/// SplitMix64-style avalanche mixer used for seed derivation and for the
/// event queue's seeded tie-break permutation.
pub(crate) fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Expands one 64-bit seed into a full xoshiro256++ state via SplitMix64,
/// the seeding procedure recommended by the generator's authors. The state
/// is never all-zero because SplitMix64 is a bijection over a moving
/// counter.
fn expand_seed(seed: u64) -> [u64; 4] {
    let mut sm = seed;
    let mut next = || {
        sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = sm;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    [next(), next(), next(), next()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(1);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams with different seeds should diverge");
    }

    #[test]
    fn derive_is_position_independent() {
        let root = SimRng::new(9);
        let mut consumed = root.clone();
        for _ in 0..100 {
            consumed.next_u64();
        }
        let mut a = root.derive(3);
        let mut b = consumed.derive(3);
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn derived_streams_are_independent() {
        let root = SimRng::new(9);
        let mut a = root.derive(1);
        let mut b = root.derive(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2);
    }

    /// `steps` single steps from `from`.
    fn stepped(from: &SimRng, steps: u64) -> [u64; 4] {
        let mut r = from.clone();
        for _ in 0..steps {
            r.next_u64();
        }
        r.state
    }

    #[test]
    fn skip_matches_stepping_around_every_power_of_two() {
        let start = SimRng::new(13);
        let mut targets: Vec<u64> = (0..=20)
            .flat_map(|k| {
                let p = 1u64 << k;
                [p - 1, p, p + 1]
            })
            .collect();
        targets.sort_unstable();
        targets.dedup();
        // One walk serves every target: it stops at each on the way.
        let mut walk = start.clone();
        let mut at = 0;
        for n in targets {
            for _ in at..n {
                walk.next_u64();
            }
            at = n;
            let mut skipped = start.clone();
            skipped.skip(n);
            assert_eq!(skipped.state, walk.state, "skip({n})");
        }
    }

    #[test]
    fn skip_zero_and_max() {
        let mut r = SimRng::new(14);
        let before = r.clone();
        r.skip(0);
        assert_eq!(r.state, before.state, "skip(0) is a no-op");
        r.skip(u64::MAX);
        assert_ne!(r.state, before.state);
        assert_ne!(r.state, [0; 4], "a jump keeps the state non-zero");
    }

    #[test]
    fn skip_equals_that_many_draws() {
        crate::check("skip_equals_that_many_draws", 24, |rng| {
            let (seed, n) = (rng.next_u64(), rng.range_u64(0, 200_001));
            let start = SimRng::new(seed);
            let mut skipped = start.clone();
            skipped.skip(n);
            assert_eq!(skipped.state, stepped(&start, n), "seed {seed} skip({n})");
        });
    }

    #[test]
    fn skips_compose() {
        crate::check("skips_compose", 24, |rng| {
            let seed = rng.next_u64();
            let [a, b] = [(); 2].map(|_| rng.range_u64(0, (1 << 40) + 1));
            let start = SimRng::new(seed);
            let mut ab = start.clone();
            ab.skip(a);
            ab.skip(b);
            let mut ba = start.clone();
            ba.skip(b);
            ba.skip(a);
            let mut sum = start.clone();
            sum.skip(a + b);
            assert_eq!(ab.state, sum.state, "skip({a}); skip({b})");
            assert_eq!(ba.state, sum.state, "skip({b}); skip({a})");
        });
    }

    /// `a(x)·b(x) mod P(x)` by shift-and-add, a different route from the
    /// table's squaring.
    fn mul_mod_p(mut a: [u64; 4], b: [u64; 4]) -> [u64; 4] {
        let mut product = [0u64; 4];
        for i in 0..256 {
            if b[i / 64] >> (i % 64) & 1 == 1 {
                for (p, x) in product.iter_mut().zip(a) {
                    *p ^= x;
                }
            }
            // a ← a·x mod P: shift up one, and fold x^256 back as P − x^256.
            let carry = a[3] >> 63;
            a = [
                a[0] << 1,
                a[1] << 1 | a[0] >> 63,
                a[2] << 1 | a[1] >> 63,
                a[3] << 1 | a[2] >> 63,
            ];
            if carry == 1 {
                for (x, c) in a.iter_mut().zip(CHAR_POLY) {
                    *x ^= c;
                }
            }
        }
        product
    }

    #[test]
    fn jump_table_is_repeated_squaring_from_the_stepped_bits() {
        for k in 1..JUMPS.len() {
            assert_eq!(JUMPS[k], mul_mod_p(JUMPS[k - 1], JUMPS[k - 1]), "entry {k}");
        }
        for seed in [1, 99, u64::MAX] {
            let start = SimRng::new(seed);
            assert_eq!(
                jump(start.state, &JUMPS[0]),
                stepped(&start, 1 << STEP_BITS),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn jump_table_reaches_the_published_jump_polynomials() {
        // xoshiro256's reference `jump()` and `long_jump()` move 2^128 and
        // 2^192 steps with these polynomials.
        const JUMP_2_128: [u64; 4] = [
            0x180e_c6d3_3cfd_0aba,
            0xd5a6_1266_f0c9_392c,
            0xa958_2618_e03f_c9aa,
            0x39ab_dc45_29b1_661c,
        ];
        const JUMP_2_192: [u64; 4] = [
            0x76e1_5d3e_fefd_cbbf,
            0xc500_4e44_1c52_2fb3,
            0x7771_0069_854e_e241,
            0x3910_9bb0_2acb_e635,
        ];
        let mut p = JUMPS[JUMPS.len() - 1]; // x^(2^63)
        for _ in 63..128 {
            p = square_mod_p(p);
        }
        assert_eq!(p, JUMP_2_128);
        for _ in 128..192 {
            p = square_mod_p(p);
        }
        assert_eq!(p, JUMP_2_192);
    }

    #[test]
    fn char_poly_is_berlekamp_massey_of_the_stream() {
        // Bit 0 of the first state word over 512 steps; its linear
        // complexity is the full 256 because P(x) is primitive.
        let mut r = SimRng::new(5);
        let bits: Vec<u8> = (0..512)
            .map(|_| {
                let b = (r.state[0] & 1) as u8;
                r.next_u64();
                b
            })
            .collect();
        // Connection polynomial C(x) = 1 + c_1 x + … + c_L x^L, with
        // bits[n] = Σ c_i bits[n − i].
        let (mut c, mut b) = (vec![0u8; 513], vec![0u8; 513]);
        c[0] = 1;
        b[0] = 1;
        let (mut len, mut gap) = (0, 1);
        for n in 0..bits.len() {
            let d = (1..=len).fold(bits[n], |d, i| d ^ (c[i] & bits[n - i]));
            if d == 0 {
                gap += 1;
                continue;
            }
            let before = c.clone();
            for i in gap..c.len() {
                c[i] ^= b[i - gap];
            }
            if 2 * len <= n {
                len = n + 1 - len;
                b = before;
                gap = 1;
            } else {
                gap += 1;
            }
        }
        assert_eq!(len, 256);
        // P(x) = x^256 C(1/x): coefficient i of P is c_{256 − i}.
        let mut low = [0u64; 4];
        for (i, &coef) in c[1..=256].iter().rev().enumerate() {
            low[i / 64] |= (coef as u64) << (i % 64);
        }
        assert_eq!(c[256], 1, "the constant term of P");
        assert_eq!(low, CHAR_POLY);
    }

    #[test]
    fn chance_edges() {
        let mut r = SimRng::new(5);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
        assert!(!r.chance(-0.5));
        assert!(r.chance(1.5));
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut r = SimRng::new(11);
        let hits = (0..10_000).filter(|_| r.chance(0.3)).count();
        assert!((2_500..3_500).contains(&hits), "got {hits} hits for p=0.3");
    }

    #[test]
    fn unit_in_range() {
        let mut r = SimRng::new(3);
        for _ in 0..1_000 {
            let u = r.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn range_u64_covers_and_respects_bounds() {
        let mut r = SimRng::new(6);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let v = r.range_u64(3, 10);
            assert!((3..10).contains(&v));
            seen[(v - 3) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values in [3, 10) reachable");
    }

    #[test]
    fn range_f64_never_returns_hi_of_a_one_ulp_range() {
        let (lo, hi) = (1.0, f64::next_up(1.0));
        assert_eq!(point_in(lo, hi, 1.0 - f64::EPSILON / 2.0), lo);
        let mut r = SimRng::new(12);
        assert!((0..1_000).all(|_| r.range_f64(lo, hi) == lo));
    }

    #[test]
    fn range_f64_spans_the_whole_float_line() {
        let (lo, hi) = (-f64::MAX, f64::MAX);
        assert_eq!(point_in(lo, hi, 0.0), lo);
        assert!(point_in(lo, hi, 1.0 - f64::EPSILON / 2.0) < hi);
        let mut r = SimRng::new(13);
        for _ in 0..1_000 {
            let x = r.range_f64(lo, hi);
            assert!(x.is_finite() && (lo..hi).contains(&x), "{x}");
        }
    }

    #[test]
    fn range_f64_stays_in_adversarial_ranges() {
        crate::check("range_f64_stays_in_adversarial_ranges", 32, |rng| {
            let wide = (rng.range_f64(0.5, 1.0), rng.range_f64(0.5, 1.0));
            // Any finite lo below the largest float, one ulp wide...
            let lo = f64::from_bits(rng.next_u64());
            let lo = if lo.is_finite() {
                lo.min(f64::MAX.next_down())
            } else {
                0.5
            };
            // ...and ranges whose width overflows.
            let ranges = [(lo, lo.next_up()), (-f64::MAX * wide.0, f64::MAX * wide.1)];
            for (lo, hi) in ranges {
                for _ in 0..64 {
                    let x = rng.range_f64(lo, hi);
                    assert!(lo <= x && x < hi, "{x} not in [{lo}, {hi})");
                }
            }
        });
    }

    #[test]
    fn duration_between_handles_empty_range() {
        let mut r = SimRng::new(4);
        let d = SimDuration::from_millis(7);
        assert_eq!(r.duration_between(d, d), d);
        assert_eq!(r.duration_between(d, SimDuration::ZERO), d);
    }

    #[test]
    fn jittered_within_bounds() {
        let mut r = SimRng::new(8);
        let base = SimDuration::from_millis(100);
        let spread = SimDuration::from_millis(50);
        for _ in 0..1_000 {
            let d = r.jittered(base, spread);
            assert!(d >= base && d < base + spread);
        }
    }

    #[test]
    fn index_covers_all_slots() {
        let mut r = SimRng::new(21);
        let mut seen = [false; 5];
        for _ in 0..500 {
            seen[r.index(5)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }
}
