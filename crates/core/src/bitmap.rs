//! Per-segment packet bitmaps: `MissingVector` and `ForwardVector`.
//!
//! "Since the size of the segment is small and pre-determined, we maintain a
//! bitmap (which we call MissingVector) of the current segment in memory.
//! Each bit corresponds to a packet. All bits are initially set to 1; when
//! a packet is received the corresponding bit is set to 0. ... we restrict
//! the length of the segment to be no longer than 128 packets, so that the
//! maximal size of MissingVector is only 16 bytes, and thus fits into a
//! radio packet."

use std::fmt;

/// Number of bytes a bitmap occupies on the wire.
pub const BITMAP_WIRE_BYTES: usize = 16;

/// A 128-bit packet bitmap over one segment.
///
/// Bit semantics are the caller's: MNP sets bits for *missing* packets in a
/// receiver's `MissingVector` and for *requested* packets in a sender's
/// `ForwardVector` (which is "the union of the missing packets in the
/// download request messages the node has received").
///
/// # Example
///
/// ```
/// use mnp::PacketBitmap;
///
/// let mut missing = PacketBitmap::all_set(100);
/// assert_eq!(missing.count(), 100);
/// missing.clear(42);
/// assert_eq!(missing.count(), 99);
/// assert!(!missing.get(42));
/// assert_eq!(missing.first_set_at_or_after(41), Some(41));
/// assert_eq!(missing.first_set_at_or_after(42), Some(43));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketBitmap {
    bits: u128,
}

impl PacketBitmap {
    /// Maximum packets a bitmap can describe.
    pub(crate) const CAPACITY: u16 = 128;

    /// The empty bitmap.
    pub fn empty() -> Self {
        PacketBitmap { bits: 0 }
    }

    /// The bitmap whose bit `i` is bit `i` of `bits`.
    pub(crate) fn from_bits(bits: u128) -> Self {
        PacketBitmap { bits }
    }

    /// A bitmap with the first `n` bits set (a fresh `MissingVector` for an
    /// `n`-packet segment).
    ///
    /// # Panics
    ///
    /// Panics if `n > 128`.
    pub fn all_set(n: u16) -> Self {
        assert!(n <= Self::CAPACITY, "segment of {n} packets exceeds bitmap");
        if n == 0 {
            PacketBitmap { bits: 0 }
        } else if n == 128 {
            PacketBitmap { bits: u128::MAX }
        } else {
            PacketBitmap {
                bits: (1u128 << n) - 1,
            }
        }
    }

    /// Whether bit `i` is set.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 128`.
    pub fn get(&self, i: u16) -> bool {
        assert!(i < Self::CAPACITY, "bit {i} out of range");
        self.bits & (1u128 << i) != 0
    }

    /// Sets bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 128`.
    pub fn set(&mut self, i: u16) {
        assert!(i < Self::CAPACITY, "bit {i} out of range");
        self.bits |= 1u128 << i;
    }

    /// Clears bit `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 128`.
    pub fn clear(&mut self, i: u16) {
        assert!(i < Self::CAPACITY, "bit {i} out of range");
        self.bits &= !(1u128 << i);
    }

    /// Number of set bits.
    pub fn count(&self) -> u32 {
        self.bits.count_ones()
    }

    /// Whether no bits are set.
    pub fn is_empty(&self) -> bool {
        self.bits == 0
    }

    /// In-place union (how a `ForwardVector` accumulates requesters'
    /// losses).
    pub fn union_with(&mut self, other: &PacketBitmap) {
        self.bits |= other.bits;
    }

    /// The lowest set bit at index ≥ `from`, if any.
    pub fn first_set_at_or_after(&self, from: u16) -> Option<u16> {
        if from >= Self::CAPACITY {
            return None;
        }
        let masked = self.bits & !((1u128 << from) - 1);
        if masked == 0 {
            None
        } else {
            Some(masked.trailing_zeros() as u16)
        }
    }
}

impl Default for PacketBitmap {
    fn default() -> Self {
        PacketBitmap::empty()
    }
}

impl fmt::Debug for PacketBitmap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PacketBitmap({} set)", self.count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn all_set_boundaries() {
        assert_eq!(PacketBitmap::all_set(0).count(), 0);
        assert_eq!(PacketBitmap::all_set(1).count(), 1);
        assert_eq!(PacketBitmap::all_set(127).count(), 127);
        assert_eq!(PacketBitmap::all_set(128).count(), 128);
    }

    #[test]
    fn set_clear_get() {
        let mut b = PacketBitmap::empty();
        b.set(0);
        b.set(127);
        assert!(b.get(0) && b.get(127) && !b.get(64));
        b.clear(0);
        assert!(!b.get(0));
        assert_eq!(b.count(), 1);
    }

    #[test]
    fn first_set_scan() {
        let mut b = PacketBitmap::empty();
        b.set(10);
        b.set(100);
        assert_eq!(b.first_set_at_or_after(0), Some(10));
        assert_eq!(b.first_set_at_or_after(10), Some(10));
        assert_eq!(b.first_set_at_or_after(11), Some(100));
        assert_eq!(b.first_set_at_or_after(101), None);
        assert_eq!(b.first_set_at_or_after(200), None);
    }

    #[test]
    fn union_accumulates() {
        let mut fwd = PacketBitmap::empty();
        let mut a = PacketBitmap::empty();
        a.set(1);
        let mut b = PacketBitmap::empty();
        b.set(2);
        fwd.union_with(&a);
        fwd.union_with(&b);
        assert!(fwd.get(1) && fwd.get(2));
        assert_eq!(fwd.count(), 2);
    }

    #[test]
    #[should_panic(expected = "exceeds bitmap")]
    fn oversized_segment_rejected() {
        let _ = PacketBitmap::all_set(129);
    }

    proptest! {
        /// Clearing every initially set bit, in any order, empties the map.
        #[test]
        fn prop_clearing_all_bits_empties(n in 1u16..=128, seed in 0u64..1000) {
            let mut b = PacketBitmap::all_set(n);
            let mut order: Vec<u16> = (0..n).collect();
            // Deterministic shuffle from the seed.
            let mut s = seed;
            for i in (1..order.len()).rev() {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                let j = (s >> 33) as usize % (i + 1);
                order.swap(i, j);
            }
            for (done, i) in order.iter().enumerate() {
                prop_assert_eq!(b.count() as usize, n as usize - done);
                b.clear(*i);
            }
            prop_assert!(b.is_empty());
        }

        /// `first_set_at_or_after` agrees with a linear scan.
        #[test]
        fn prop_first_set_matches_scan(bits in any::<u128>(), from in 0u16..140) {
            let b = PacketBitmap { bits };
            let expect = (from..128).find(|&i| b.get(i));
            prop_assert_eq!(b.first_set_at_or_after(from), expect);
        }

        /// Union's set count is bounded by the sum and at least the max.
        #[test]
        fn prop_union_bounds(x in any::<u128>(), y in any::<u128>()) {
            let a = PacketBitmap { bits: x };
            let b = PacketBitmap { bits: y };
            let mut u = a;
            u.union_with(&b);
            prop_assert!(u.count() >= a.count().max(b.count()));
            prop_assert!(u.count() <= a.count() + b.count());
            // Union is idempotent.
            let mut again = u;
            again.union_with(&b);
            prop_assert_eq!(again, u);
        }
    }
}
