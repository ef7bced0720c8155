//! Offline stand-in for the `proptest` crate.
//!
//! The build environment has no crates.io access, so the real proptest
//! cannot be fetched; this shim is substituted via `[patch.crates-io]`
//! in the workspace manifest. It implements the API subset this
//! repository's property tests use — `proptest!`, `prop_assert*!`,
//! `prop_oneof!`, `any::<T>()`, integer-range and regex-literal
//! strategies, tuples, `Just`, `prop_map` and `collection::vec` — on
//! top of a deterministic SplitMix64 generator. There is no shrinking:
//! a failing case panics with the generated inputs Debug-printed by the
//! assertion itself.

pub mod strategy;
pub mod test_runner;

/// Value-generation strategies (subset of `proptest::collection`).
pub mod collection {
    use crate::strategy::Strategy;
    use crate::test_runner::TestRng;

    /// Size specification for [`vec()`]: a fixed size or a range.
    pub trait SizeRange {
        /// Draws a length from the range.
        fn pick(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn pick(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for std::ops::Range<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            if self.is_empty() {
                self.start
            } else {
                self.start + rng.below((self.end - self.start) as u64) as usize
            }
        }
    }

    impl SizeRange for std::ops::RangeInclusive<usize> {
        fn pick(&self, rng: &mut TestRng) -> usize {
            let (lo, hi) = (*self.start(), *self.end());
            lo + rng.below((hi - lo + 1) as u64) as usize
        }
    }

    /// Strategy for `Vec<T>` with element strategy `S` and length drawn
    /// from `R`.
    pub struct VecStrategy<S, R> {
        element: S,
        size: R,
    }

    /// Generates vectors whose elements come from `element` and whose
    /// length is drawn from `size`.
    pub fn vec<S: Strategy, R: SizeRange>(element: S, size: R) -> VecStrategy<S, R> {
        VecStrategy { element, size }
    }

    impl<S: Strategy, R: SizeRange> Strategy for VecStrategy<S, R> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.size.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The usual glob-import surface.
pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::test_runner::ProptestConfig;
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_oneof, proptest};
}

/// Asserts a condition inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert {
    ($($t:tt)*) => { assert!($($t)*) };
}

/// Asserts equality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($t:tt)*) => { assert_eq!($($t)*) };
}

/// Asserts inequality inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($t:tt)*) => { assert_ne!($($t)*) };
}

/// Picks uniformly among the given strategies (all must share one value
/// type). Weighted arms are not supported.
#[macro_export]
macro_rules! prop_oneof {
    ($($s:expr),+ $(,)?) => {
        $crate::strategy::Union::new(vec![
            $($crate::strategy::Strategy::boxed($s)),+
        ])
    };
}

/// Declares property tests: each `fn name(arg in strategy, ...) { .. }`
/// becomes a `#[test]` that runs the body over `cases` generated
/// inputs (seeded deterministically from the test name).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@funcs ($cfg); $($rest)*);
    };
    (@funcs ($cfg:expr);) => {};
    (@funcs ($cfg:expr);
        $(#[$meta:meta])*
        fn $name:ident($($arg:ident in $strat:expr),* $(,)?) $body:block
        $($rest:tt)*
    ) => {
        $(#[$meta])*
        fn $name() {
            let config: $crate::test_runner::ProptestConfig = $cfg;
            let mut rng = $crate::test_runner::TestRng::from_name(stringify!($name));
            for _case in 0..config.cases {
                $(let $arg = $crate::strategy::Strategy::generate(&($strat), &mut rng);)*
                $body
            }
        }
        $crate::proptest!(@funcs ($cfg); $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@funcs ($crate::test_runner::ProptestConfig::default()); $($rest)*);
    };
}
