//! A seeded property runner: the workspace's property tests draw their
//! cases from [`SimRng`], the same generator a simulation run draws from.

use crate::SimRng;
use std::panic::{self, AssertUnwindSafe};

/// Runs `property` on `cases` cases of the property `name`.
///
/// Case `k` draws from `SimRng::new(seed)`, where `seed` is
/// `SimRng::new(fnv1a(name)).derive(k).seed()`: a pure function of
/// `(name, k)`, so every run, thread and harness sees the same cases. If
/// a case panics, the runner panics again with the property's name, the
/// case index and the seed in front of the original message; passing
/// that seed to [`replay`] re-runs just that case. There is no
/// shrinker: a failing case reports the inputs its own assertion prints.
///
/// # Example
///
/// ```
/// mnp_sim::check("addition_commutes", 16, |rng| {
///     let (a, b) = (rng.next_u32() as u64, rng.next_u32() as u64);
///     assert_eq!(a + b, b + a);
/// });
/// ```
pub fn check(name: &str, cases: u32, mut property: impl FnMut(&mut SimRng)) {
    let root = SimRng::new(fnv1a(name));
    for case in 0..cases {
        let seed = root.derive(u64::from(case)).seed();
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| replay(seed, &mut property)));
        if let Err(payload) = outcome {
            let message = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("non-string panic payload");
            panic!(
                "property `{name}` failed at case {case} of {cases} (seed {seed:#018x}; \
                 re-run it alone with `mnp_sim::replay({seed:#018x}, ..)`): {message}"
            );
        }
    }
}

/// Runs `property` once on the case whose seed a failing [`check`]
/// reported, drawing exactly what that case drew.
pub fn replay(seed: u64, property: impl FnOnce(&mut SimRng)) {
    property(&mut SimRng::new(seed))
}

/// FNV-1a over the property's name.
fn fnv1a(name: &str) -> u64 {
    name.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first two draws of each of `cases` cases of `name`.
    fn streams(name: &str, cases: u32) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        check(name, cases, |rng| {
            out.push((rng.next_u64(), rng.next_u64()))
        });
        out
    }

    /// The message `run` panics with.
    fn failure_of(run: impl FnOnce()) -> String {
        let payload = panic::catch_unwind(AssertUnwindSafe(run)).expect_err("the run panics");
        payload.downcast_ref::<String>().expect("a message").clone()
    }

    #[test]
    fn case_streams_are_a_function_of_name_and_case() {
        let a = streams("some_property", 8);
        assert_eq!(a, streams("some_property", 8));
        assert_eq!(
            a[..4],
            streams("some_property", 4),
            "case k ignores `cases`"
        );
        let distinct: std::collections::BTreeSet<_> = a.iter().collect();
        assert_eq!(distinct.len(), a.len(), "cases draw different streams");
        let b = streams("other_property", 8);
        assert!(
            a.iter().zip(&b).all(|(x, y)| x != y),
            "names draw different streams"
        );
    }

    #[test]
    fn the_property_runs_exactly_cases_times() {
        for cases in [0, 1, 7, 32] {
            let mut runs = 0;
            check("counted", cases, |_| runs += 1);
            assert_eq!(runs, cases);
        }
    }

    #[test]
    fn a_failure_names_the_property_the_case_and_the_seed_and_replays() {
        let mut seen = Vec::new();
        let message = failure_of(|| {
            check("fails_on_case_three", 10, |rng| {
                seen.push((rng.seed(), rng.next_u64()));
                assert!(seen.len() < 4, "boom at draw {}", seen[seen.len() - 1].1);
            })
        });
        assert_eq!(seen.len(), 4, "the runner stops at the failing case");
        let (seed, draw) = seen[3];
        for part in [
            "`fails_on_case_three` failed at case 3 of 10".to_string(),
            format!("seed {seed:#018x}"),
            format!("mnp_sim::replay({seed:#018x}, ..)"),
            format!("boom at draw {draw}"),
        ] {
            assert!(message.contains(&part), "{part:?} missing from {message:?}");
        }
        replay(seed, |rng| assert_eq!(rng.next_u64(), draw));
        // A panic with a literal message carries a `&str`; it is kept too.
        let message = failure_of(|| check("plain_panic", 1, |_| panic!("literal")));
        assert!(message.ends_with(": literal"), "{message}");
    }
}
