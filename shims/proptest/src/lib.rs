//! Offline shim for the subset of `proptest` this workspace uses.
//!
//! crates.io is unreachable in the build environment, so this crate
//! reimplements the surface the property-test suites rely on:
//!
//! * the [`Strategy`](strategy::Strategy) trait with `prop_map`, `prop_flat_map`, `boxed`;
//! * range / tuple / [`Just`](strategy::Just) / `any::<T>()` strategies;
//! * [`collection::vec`] and [`collection::btree_map`];
//! * the [`proptest!`] macro (including `#![proptest_config(..)]`),
//!   plus `prop_assert!`, `prop_assert_eq!`, `prop_assert_ne!` and
//!   `prop_assume!`.
//!
//! Semantics differ from real proptest in one deliberate way: there is no
//! shrinking. Cases are generated from a deterministic per-case seed
//! (override the base seed with `PROPTEST_SHIM_SEED`), and a failing case
//! panics with its case number and seed so it can be replayed.

pub mod arbitrary;
pub mod collection;
pub mod strategy;
pub mod test_runner;

pub mod prelude {
    //! Glob-import surface mirroring `proptest::prelude`.
    pub use crate::arbitrary::any;
    pub use crate::strategy::{BoxedStrategy, Just, Strategy};
    pub use crate::test_runner::{ProptestConfig, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};
}

/// The `proptest!` macro: wraps `fn name(pat in strategy, ...) { body }`
/// items into `#[test]` functions that run many sampled cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@impl ($cfg); $($rest)*);
    };
    (@impl ($cfg:expr); $($(#[$meta:meta])* fn $name:ident($($pat:pat_param in $strat:expr),+ $(,)?) $body:block)*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::test_runner::ProptestConfig = $cfg;
                $crate::test_runner::run_cases(&config, stringify!($name), |__shim_rng| {
                    $(let $pat = $crate::strategy::Strategy::sample(&($strat), __shim_rng);)+
                    let mut __shim_case = move || -> ::std::result::Result<(), $crate::test_runner::TestCaseError> {
                        $body
                        #[allow(unreachable_code)]
                        ::std::result::Result::Ok(())
                    };
                    __shim_case()
                });
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@impl ($crate::test_runner::ProptestConfig::default()); $($rest)*);
    };
}

/// Fails the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                ["assertion failed: ", stringify!($cond)].concat(),
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(
                format!($($fmt)+),
            ));
        }
    };
}

/// Fails the current case unless the two values compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (__shim_l, __shim_r) = (&$lhs, &$rhs);
        if !(*__shim_l == *__shim_r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{} == {}`\n  left: `{:?}`\n right: `{:?}`",
                stringify!($lhs),
                stringify!($rhs),
                __shim_l,
                __shim_r
            )));
        }
    }};
    ($lhs:expr, $rhs:expr, $($fmt:tt)+) => {{
        let (__shim_l, __shim_r) = (&$lhs, &$rhs);
        if !(*__shim_l == *__shim_r) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "{}\n  left: `{:?}`\n right: `{:?}`",
                format!($($fmt)+),
                __shim_l,
                __shim_r
            )));
        }
    }};
}

/// Fails the current case if the two values compare equal.
#[macro_export]
macro_rules! prop_assert_ne {
    ($lhs:expr, $rhs:expr $(,)?) => {{
        let (__shim_l, __shim_r) = (&$lhs, &$rhs);
        if *__shim_l == *__shim_r {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::fail(format!(
                "assertion failed: `{} != {}`\n  both: `{:?}`",
                stringify!($lhs),
                stringify!($rhs),
                __shim_l
            )));
        }
    }};
}

/// Rejects (skips) the current case unless the condition holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::test_runner::TestCaseError::reject(
                stringify!($cond),
            ));
        }
    };
}
