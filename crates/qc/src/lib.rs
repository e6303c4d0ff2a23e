//! `lasagne-qc` — the workspace's in-tree, std-only, deterministic
//! property-testing harness.
//!
//! This container builds fully offline; no crates.io dependency is
//! available. Everything the translator's correctness story needs from
//! `proptest` is therefore reimplemented here, small and
//! deterministic:
//!
//! * [`rng`] — splitmix64 / xoshiro256** PRNGs;
//! * [`strategy`] + [`collection`] — a `Strategy` combinator layer
//!   (integer ranges, [`strategy::Just`], [`strategy::any`], tuples,
//!   weighted [`prop_oneof!`], `prop_map`, `prop_filter`, `vec`);
//! * [`shrink`] — greedy *integrated* shrinking over the recorded choice
//!   tape, so mapped/filtered/one-of strategies shrink with no
//!   per-strategy code;
//! * [`regress`] — persisted-seed regression files (and ingestion of the
//!   legacy `*.proptest-regressions` files);
//! * [`runner`] — the case loop behind the [`properties!`] macro.
//!
//! # Writing a property
//!
//! ```
//! use lasagne_qc::prelude::*;
//! use lasagne_qc::collection;
//!
//! fn small_even() -> impl Strategy<Value = u32> {
//!     (0u32..500).prop_map(|n| n * 2)
//! }
//!
//! properties! {
//!     config = Config::with_cases(256);
//!
//!     fn sums_commute(xs in collection::vec(small_even(), 0..16), y in small_even()) {
//!         let a: u64 = xs.iter().map(|v| u64::from(*v) + u64::from(y)).sum();
//!         let b: u64 = xs.iter().map(|v| u64::from(*v)).sum::<u64>()
//!             + u64::from(y) * xs.len() as u64;
//!         prop_assert_eq!(a, b, "sum mismatch for {} elements", xs.len());
//!     }
//! }
//! # fn main() {}
//! ```
//!
//! Every run is reproducible: cases derive from a fixed default seed (or
//! `LASAGNE_QC_SEED`), failures shrink to a minimal counterexample, and
//! the failing seed is persisted to `tests/<suite>.qc-regressions` for
//! replay on every subsequent run.

#![warn(missing_docs)]

pub mod collection;
pub mod regress;
pub mod rng;
pub mod runner;
pub mod shrink;
pub mod source;
pub mod strategy;

/// Configuration for one property (the `config = …;` line of
/// [`properties!`]).
#[derive(Debug, Clone)]
pub struct Config {
    /// Accepted cases to run (rejections do not count).
    pub cases: u32,
    /// Base seed; per-property and per-case seeds derive from it.
    /// Overridable at run time with `LASAGNE_QC_SEED`.
    pub seed: u64,
    /// Property-evaluation budget for shrinking one failure.
    pub max_shrink_evals: usize,
    /// Whether failures persist their seed to the regression file
    /// (`LASAGNE_QC_NO_PERSIST` disables at run time).
    pub persist: bool,
}

/// The workspace-wide default seed. Arbitrary but fixed: results must be
/// identical across machines and runs.
pub const DEFAULT_SEED: u64 = 0x1a5a_67e5_eed5_0001;

impl Default for Config {
    fn default() -> Config {
        Config {
            cases: 256,
            seed: DEFAULT_SEED,
            max_shrink_evals: 2048,
            persist: true,
        }
    }
}

impl Config {
    /// The default configuration with the given case count.
    pub fn with_cases(cases: u32) -> Config {
        Config {
            cases,
            ..Config::default()
        }
    }
}

/// Declares deterministic property tests.
///
/// Each `fn name(binder in strategy, …) { body }` expands to a `#[test]`
/// that runs the body over generated inputs via [`runner::run`]. The body
/// may use [`prop_assert!`], [`prop_assert_eq!`], [`prop_assert_ne!`],
/// [`prop_assume!`], and `?` on [`runner::CaseResult`]s. The leading
/// `config = expr;` line is optional and defaults to [`Config::default`].
#[macro_export]
macro_rules! properties {
    (
        config = $cfg:expr;
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        )+
    ) => {
        $(
            $(#[$meta])*
            #[test]
            fn $name() {
                $crate::runner::run(
                    $crate::runner::TestInfo {
                        name: concat!(module_path!(), "::", stringify!($name)),
                        manifest_dir: env!("CARGO_MANIFEST_DIR"),
                        source_file: file!(),
                    },
                    $cfg,
                    ($($strat,)+),
                    |($($arg,)+)| {
                        $body
                        ::core::result::Result::Ok(())
                    },
                );
            }
        )+
    };
    ( $($rest:tt)+ ) => {
        $crate::properties! { config = $crate::Config::default(); $($rest)+ }
    };
}

/// Weighted or unweighted choice between strategies producing the same
/// value type: `prop_oneof![a, b]` or `prop_oneof![3 => a, 1 => b]`.
/// Shrinking prefers earlier alternatives — order simple-to-complex.
#[macro_export]
macro_rules! prop_oneof {
    ($($weight:literal => $strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(::std::vec![
            $(($weight as u32, $crate::strategy::StrategyExt::boxed($strat)),)+
        ])
    };
    ($($strat:expr),+ $(,)?) => {
        $crate::strategy::OneOf::new(::std::vec![
            $((1u32, $crate::strategy::StrategyExt::boxed($strat)),)+
        ])
    };
}

/// Fails the current case (with an optional formatted message) unless the
/// condition holds. Usable in any function returning
/// [`runner::CaseResult`].
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::runner::TestCaseError::fail(
                ::std::format!(
                    "assertion failed: {} at {}:{}",
                    stringify!($cond), file!(), line!()
                ),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return ::core::result::Result::Err($crate::runner::TestCaseError::fail(
                ::std::format!(
                    "assertion failed: {} ({}) at {}:{}",
                    stringify!($cond), ::std::format!($($fmt)+), file!(), line!()
                ),
            ));
        }
    };
}

/// Fails the current case unless the two expressions compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l == *r, "`{:?}` != `{:?}`", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l == *r,
            "`{:?}` != `{:?}`: {}", l, r, ::std::format!($($fmt)+)
        );
    }};
}

/// Fails the current case if the two expressions compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(*l != *r, "`{:?}` == `{:?}`", l, r);
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (l, r) = (&$left, &$right);
        $crate::prop_assert!(
            *l != *r,
            "`{:?}` == `{:?}`: {}", l, r, ::std::format!($($fmt)+)
        );
    }};
}

/// Skips the current case (without counting it) unless the precondition
/// holds — the moral equivalent of `proptest`'s `prop_assume!`.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !$cond {
            return ::core::result::Result::Err($crate::runner::TestCaseError::reject(
                ::std::concat!("assumption not met: ", stringify!($cond)),
            ));
        }
    };
}

/// The glob-import surface property suites use:
/// `use lasagne_qc::prelude::*;`.
pub mod prelude {
    pub use crate::runner::{CaseResult, TestCaseError};
    pub use crate::strategy::{any, BoxedStrategy, Just, Strategy, StrategyExt};
    pub use crate::Config;
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, prop_oneof, properties,
    };
}
