//! Order statistics and the FNV-1a digest.

/// Median, quartiles and count of a sample.
#[derive(Clone, Copy, Debug)]
pub struct Summary {
    /// The median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

/// The `p`-quantile of `sorted` by the rule Python's
/// `statistics.quantiles(method="exclusive")` uses, so the quartiles printed
/// here are the ones the acceptance check computes.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = (p * (n as f64 + 1.0) - 1.0).clamp(0.0, n as f64 - 1.0);
    let lo = pos.floor() as usize;
    let hi = (lo + 1).min(n - 1);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Summarises a non-empty sample.
pub fn summary(values: &[f64]) -> Summary {
    assert!(!values.is_empty(), "summary of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Summary {
        median: quantile(&v, 0.5),
        q1: quantile(&v, 0.25),
        q3: quantile(&v, 0.75),
        n: v.len(),
    }
}

/// The median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    summary(values).median
}

/// Streaming FNV-1a, 64 bit, folding eight bytes a step where it can: the
/// `observed20` log is over 100 MB a rep, and a digest that only has to
/// tell two runs apart need not walk it a byte at a time. Inputs shorter
/// than eight bytes hash exactly as reference FNV-1a.
///
/// FNV's multiply only carries differences upward, which is sound when
/// every input enters at the low byte; a whole word also enters at the top,
/// so the word step folds the high half back down.
#[derive(Clone, Copy, Debug)]
pub struct Fnv(u64);

impl Fnv {
    /// The offset basis.
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Folds one 64-bit word in.
    pub fn u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(Self::PRIME);
        self.0 ^= self.0 >> 32;
    }

    /// Folds raw bytes in: little-endian words, then the tail bytewise.
    pub fn bytes(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for word in &mut words {
            self.u64(u64::from_le_bytes(word.try_into().expect("chunk of 8")));
        }
        for &b in words.remainder() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(Self::PRIME);
        }
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summary(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = summary(&[3.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
    }

    #[test]
    fn fnv_short_inputs_match_reference_vectors() {
        let mut h = Fnv::new();
        h.bytes(b"a");
        assert_eq!(h.finish(), 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::new();
        h.bytes(b"foobar");
        assert_eq!(h.finish(), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn fnv_sees_every_byte_of_a_long_input() {
        let base: Vec<u8> = (0..37u8).collect();
        let digest = |bytes: &[u8]| {
            let mut h = Fnv::new();
            h.bytes(bytes);
            h.finish()
        };
        for i in 0..base.len() {
            let mut flipped = base.clone();
            flipped[i] ^= 1;
            assert_ne!(digest(&flipped), digest(&base), "byte {i}");
        }
        // Differences in the top bits of two words must not cancel.
        let mut two = base.clone();
        two[7] ^= 0x80;
        two[15] ^= 0x80;
        assert_ne!(digest(&two), digest(&base));
    }
}
