//! Offline stand-in for the `proptest` property-testing crate.
//!
//! The build environment has no crates.io access, so this workspace-local
//! package shadows the real crate with a deterministic re-implementation
//! of the API subset the workspace's tests use:
//!
//! - the [`proptest!`] macro (with optional `#![proptest_config(...)]`),
//! - [`prop_assert!`] / [`prop_assert_eq!`] (panic instead of returning
//!   `Err`, which is equivalent for test outcomes),
//! - range strategies (`0u64..50`, `1u16..=128`), [`strategy::Just`],
//!   [`arbitrary::any`], `.prop_map(...)`, [`prop_oneof!`] with optional
//!   weights, and [`collection::vec`].
//!
//! Cases are generated from a seed derived from the test's module path and
//! case index, so failures reproduce exactly run-to-run. There is no
//! shrinking: a failing case panics with its inputs' `Debug` form via the
//! standard assert message instead.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Deterministic case generation: config and per-case RNG.
pub mod test_runner {
    /// Tuning knobs mirroring `proptest::test_runner::ProptestConfig`.
    ///
    /// Only `cases` is honoured; construct with struct-update syntax as
    /// with the real crate: `ProptestConfig { cases: 12, ..Default::default() }`.
    #[derive(Clone, Debug)]
    pub struct ProptestConfig {
        /// Number of random cases each property runs.
        pub cases: u32,
    }

    impl Default for ProptestConfig {
        fn default() -> Self {
            // The real default is 256; whole-network simulations make that
            // expensive, so the stub trades volume for wall-clock time.
            ProptestConfig { cases: 32 }
        }
    }

    /// A SplitMix64 stream seeded from `(test name, case index)`.
    #[derive(Clone, Debug)]
    pub struct TestRng {
        state: u64,
    }

    impl TestRng {
        /// Creates the stream for one case of one property.
        pub fn for_case(test_name: &str, case: u32) -> Self {
            // FNV-1a over the fully qualified test name keeps distinct
            // properties on distinct streams.
            let mut h: u64 = 0xcbf2_9ce4_8422_2325;
            for b in test_name.bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            TestRng {
                state: h ^ (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
            }
        }

        /// Next raw 64-bit value.
        pub fn next_u64(&mut self) -> u64 {
            self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// Uniform value in `[lo, hi)`.
        ///
        /// # Panics
        ///
        /// Panics if `lo >= hi`.
        pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
            assert!(lo < hi, "empty range [{lo}, {hi})");
            let span = (hi - lo) as u128;
            lo + ((self.next_u64() as u128 * span) >> 64) as u64
        }
    }
}

/// Value-generation strategies.
pub mod strategy {
    use crate::test_runner::TestRng;
    use std::ops::{Range, RangeInclusive};

    /// A recipe for generating random values of one type.
    pub trait Strategy {
        /// The generated type.
        type Value;

        /// Draws one value from `rng`.
        fn generate(&self, rng: &mut TestRng) -> Self::Value;

        /// Maps generated values through `f`.
        fn prop_map<T, F>(self, f: F) -> Map<Self, F>
        where
            Self: Sized,
            F: Fn(Self::Value) -> T,
        {
            Map { inner: self, f }
        }
    }

    impl<T> Strategy for Box<dyn Strategy<Value = T>> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            (**self).generate(rng)
        }
    }

    /// Always yields a clone of the wrapped value.
    #[derive(Clone, Debug)]
    pub struct Just<T>(pub T);

    impl<T: Clone> Strategy for Just<T> {
        type Value = T;

        fn generate(&self, _rng: &mut TestRng) -> T {
            self.0.clone()
        }
    }

    /// Strategy returned by [`Strategy::prop_map`].
    #[derive(Clone, Debug)]
    pub struct Map<S, F> {
        pub(crate) inner: S,
        pub(crate) f: F,
    }

    impl<S, F, T> Strategy for Map<S, F>
    where
        S: Strategy,
        F: Fn(S::Value) -> T,
    {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            (self.f)(self.inner.generate(rng))
        }
    }

    macro_rules! impl_range_strategy {
        ($($t:ty),*) => {$(
            impl Strategy for Range<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    rng.range_u64(self.start as u64, self.end as u64) as $t
                }
            }

            impl Strategy for RangeInclusive<$t> {
                type Value = $t;

                fn generate(&self, rng: &mut TestRng) -> $t {
                    // `end + 1` would overflow at the type's max; the stub
                    // never needs full-width inclusive ranges.
                    rng.range_u64(*self.start() as u64, *self.end() as u64 + 1) as $t
                }
            }
        )*};
    }

    impl_range_strategy!(u8, u16, u32, u64, usize);

    /// The point a draw `unit` in `[0, 1]` picks between `start` and
    /// `end`: finite whenever both are.
    fn lerp(start: f64, end: f64, unit: f64) -> f64 {
        let width = end - start;
        if width.is_finite() {
            start + unit * width
        } else {
            // The width overflows only when start < 0 < end, so neither
            // term does.
            start * (1.0 - unit) + end * unit
        }
    }

    impl Strategy for Range<f64> {
        type Value = f64;

        fn generate(&self, rng: &mut TestRng) -> f64 {
            let unit = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
            let x = lerp(self.start, self.end, unit);
            // Rounding can carry a point at the top of a narrow range onto
            // `end`; an empty range yields `start`.
            if x < self.end {
                x
            } else {
                self.end.next_down().max(self.start)
            }
        }
    }

    impl Strategy for RangeInclusive<f64> {
        type Value = f64;

        fn generate(&self, rng: &mut TestRng) -> f64 {
            // 2^53 inclusive steps across the range; close enough to the
            // real crate's behaviour for test generation.
            let unit = (rng.next_u64() >> 11) as f64 / ((1u64 << 53) - 1) as f64;
            lerp(*self.start(), *self.end(), unit).min(*self.end())
        }
    }

    macro_rules! impl_tuple_strategy {
        ($($name:ident),*) => {
            impl<$($name: Strategy),*> Strategy for ($($name,)*) {
                type Value = ($($name::Value,)*);

                #[allow(non_snake_case)]
                fn generate(&self, rng: &mut TestRng) -> Self::Value {
                    let ($($name,)*) = self;
                    ($($name.generate(rng),)*)
                }
            }
        };
    }

    impl_tuple_strategy!(A, B);
    impl_tuple_strategy!(A, B, C);
    impl_tuple_strategy!(A, B, C, D);

    /// Weighted choice between boxed alternatives ([`crate::prop_oneof!`]).
    pub struct Union<T> {
        arms: Vec<(u32, Box<dyn Strategy<Value = T>>)>,
    }

    impl<T> std::fmt::Debug for Union<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("Union")
                .field("arms", &self.arms.len())
                .finish()
        }
    }

    impl<T> Union<T> {
        /// Builds a union from `(weight, strategy)` arms.
        ///
        /// # Panics
        ///
        /// Panics if `arms` is empty or all weights are zero.
        pub fn new(arms: Vec<(u32, Box<dyn Strategy<Value = T>>)>) -> Self {
            let total: u64 = arms.iter().map(|(w, _)| *w as u64).sum();
            assert!(total > 0, "prop_oneof! needs at least one weighted arm");
            Union { arms }
        }
    }

    /// Boxes a strategy for storage in a [`Union`].
    pub fn boxed<S>(s: S) -> Box<dyn Strategy<Value = S::Value>>
    where
        S: Strategy + 'static,
    {
        Box::new(s)
    }

    impl<T> Strategy for Union<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            let total: u64 = self.arms.iter().map(|(w, _)| *w as u64).sum();
            let mut pick = rng.range_u64(0, total);
            for (w, s) in &self.arms {
                if pick < *w as u64 {
                    return s.generate(rng);
                }
                pick -= *w as u64;
            }
            unreachable!("weighted pick within total")
        }
    }
}

/// `any::<T>()` support.
pub mod arbitrary {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::marker::PhantomData;

    /// Types with a canonical full-range generator.
    pub trait Arbitrary {
        /// Draws an unconstrained value.
        fn arbitrary(rng: &mut TestRng) -> Self;
    }

    impl Arbitrary for bool {
        fn arbitrary(rng: &mut TestRng) -> bool {
            rng.next_u64() & 1 == 1
        }
    }

    macro_rules! impl_arbitrary_uint {
        ($($t:ty),*) => {$(
            impl Arbitrary for $t {
                fn arbitrary(rng: &mut TestRng) -> $t {
                    rng.next_u64() as $t
                }
            }
        )*};
    }

    impl_arbitrary_uint!(u8, u16, u32, u64, usize);

    impl Arbitrary for u128 {
        fn arbitrary(rng: &mut TestRng) -> u128 {
            ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128
        }
    }

    /// Strategy yielding arbitrary values of `T`.
    #[derive(Clone, Debug)]
    pub struct AnyStrategy<T>(PhantomData<T>);

    impl<T: Arbitrary> Strategy for AnyStrategy<T> {
        type Value = T;

        fn generate(&self, rng: &mut TestRng) -> T {
            T::arbitrary(rng)
        }
    }

    /// The full-range strategy for `T`, as `proptest::prelude::any`.
    pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
        AnyStrategy(PhantomData)
    }
}

/// Collection strategies.
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;
    use std::ops::Range;

    /// Strategy for `Vec`s with random length and elements.
    #[derive(Clone, Debug)]
    pub struct VecStrategy<S> {
        elem: S,
        len: Range<usize>,
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;

        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = rng.range_u64(self.len.start as u64, self.len.end as u64) as usize;
            (0..n).map(|_| self.elem.generate(rng)).collect()
        }
    }

    /// A vector of `len` elements drawn from `elem`.
    pub fn vec<S: Strategy>(elem: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty length range");
        VecStrategy { elem, len }
    }
}

/// Everything tests normally import, as `proptest::prelude::*`.
pub mod prelude {
    pub use crate::arbitrary::{any, Arbitrary};
    pub use crate::strategy::{Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_oneof, proptest};
}

/// Asserts a property-level condition (panics on failure, like `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => { assert!($cond) };
    ($cond:expr, $($fmt:tt)+) => { assert!($cond, $($fmt)+) };
}

/// Asserts property-level equality (panics on failure, like `assert_eq!`).
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr) => { assert_eq!($a, $b) };
    ($a:expr, $b:expr, $($fmt:tt)+) => { assert_eq!($a, $b, $($fmt)+) };
}

/// Weighted (or unweighted) choice between strategies for one value type.
#[macro_export]
macro_rules! prop_oneof {
    ($($w:expr => $s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $(($w as u32, $crate::strategy::boxed($s))),+
        ])
    };
    ($($s:expr),+ $(,)?) => {
        $crate::prop_oneof!($(1 => $s),+)
    };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { .. }`
/// becomes a `#[test]` running `config.cases` deterministic cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_impl! { ($cfg) $($rest)* }
    };
    ($($rest:tt)*) => {
        $crate::__proptest_impl! {
            ($crate::test_runner::ProptestConfig::default()) $($rest)*
        }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (($cfg:expr) $($(#[$meta:meta])* fn $name:ident(
        $($arg:ident in $strat:expr),+ $(,)?
    ) $body:block)*) => {$(
        $(#[$meta])*
        fn $name() {
            let __config: $crate::test_runner::ProptestConfig = $cfg;
            for __case in 0..__config.cases {
                let mut __rng = $crate::test_runner::TestRng::for_case(
                    concat!(module_path!(), "::", stringify!($name)),
                    __case,
                );
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut __rng);)+
                $body
            }
        }
    )*};
}

#[cfg(test)]
// The tests deliberately exercise real-proptest idioms (`..Default::default()`
// in the config, manual range assertions) that clippy would rewrite.
#[allow(clippy::needless_update, clippy::manual_range_contains)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_inclusive_and_exclusive() {
        let mut rng = crate::test_runner::TestRng::for_case("t", 0);
        for _ in 0..200 {
            let v = (3u64..7).generate(&mut rng);
            assert!((3..7).contains(&v));
            let w = (1u16..=128).generate(&mut rng);
            assert!((1..=128).contains(&w));
        }
    }

    #[test]
    fn float_ranges_stay_finite_and_in_bounds() {
        let mut rng = crate::test_runner::TestRng::for_case("f", 0);
        let (one, above) = (1.0, f64::next_up(1.0));
        let (lo, hi) = (-f64::MAX, f64::MAX);
        for _ in 0..1_000 {
            assert_eq!((one..above).generate(&mut rng), one);
            let x = (lo..hi).generate(&mut rng);
            assert!(x.is_finite() && lo <= x && x < hi, "{x}");
            let y = (lo..=hi).generate(&mut rng);
            assert!(y.is_finite() && lo <= y && y <= hi, "{y}");
        }
    }

    #[test]
    fn oneof_honours_weights() {
        let mut rng = crate::test_runner::TestRng::for_case("w", 1);
        let s = prop_oneof![9 => Just(true), 1 => Just(false)];
        let hits = (0..1_000).filter(|_| s.generate(&mut rng)).count();
        assert!(hits > 800, "got {hits} hits for weight 9:1");
    }

    #[test]
    fn vec_lengths_in_range() {
        let mut rng = crate::test_runner::TestRng::for_case("v", 2);
        let s = crate::collection::vec(0u8..10, 2..5);
        for _ in 0..100 {
            let v = s.generate(&mut rng);
            assert!((2..5).contains(&v.len()));
            assert!(v.iter().all(|&x| x < 10));
        }
    }

    #[test]
    fn cases_are_deterministic() {
        let a: Vec<u64> = (0..8)
            .map(|c| crate::test_runner::TestRng::for_case("d", c).next_u64())
            .collect();
        let b: Vec<u64> = (0..8)
            .map(|c| crate::test_runner::TestRng::for_case("d", c).next_u64())
            .collect();
        assert_eq!(a, b);
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

        /// The macro itself: bindings, config, and mapped strategies work.
        #[test]
        fn macro_round_trip(n in 1usize..5, flag in any::<bool>(), v in (0u64..9).prop_map(|x| x * 2)) {
            prop_assert!(n >= 1 && n < 5);
            prop_assert_eq!(v % 2, 0);
            let _ = flag;
        }
    }
}
