//! In-repo test substrate for the DPCopula workspace, replacing the
//! external `proptest` and `criterion` dependencies so the tier-1 verify
//! (`cargo build --release && cargo test -q`) runs with zero registry
//! access.
//!
//! * [`prop`] — seeded property-based testing: generator combinators,
//!   halving-based shrinking, and a failure report that prints the exact
//!   seed reproducing the counterexample;
//! * [`bench`](mod@bench) — a micro-benchmark harness with warmup, N timed
//!   iterations and a min/median/p95 report, API-shaped like Criterion
//!   so the existing `benches/*.rs` files ported mechanically.
//!
//! Both are driven by [`rngkit`], so every randomized test in the
//! workspace inherits the same reproducibility discipline as the DP
//! mechanisms under test.

#![warn(missing_docs)]

pub mod bench;
pub mod prop;

/// Declares property tests. Each entry becomes a `#[test]` that draws
/// `TESTKIT_CASES` random inputs (default 64), checks the body on each,
/// and shrinks + reports the reproducing seed on failure.
///
/// ```
/// testkit::property_tests! {
///     fn reverse_is_involutive(v in testkit::prop::vec(0u32..100, 0..20)) {
///         let mut w = v.clone();
///         w.reverse();
///         w.reverse();
///         testkit::prop_assert_eq!(v, w);
///     }
/// }
/// ```
#[macro_export]
macro_rules! property_tests {
    ($(
        $(#[doc = $doc:expr])*
        fn $name:ident($($arg:pat in $gen:expr),+ $(,)?) $body:block
    )*) => {$(
        $(#[doc = $doc])*
        #[test]
        fn $name() {
            let cfg = $crate::prop::Config::from_env();
            let gen = $crate::prop::IntoGen::into_gen(($($gen,)+));
            $crate::prop::run(
                concat!(module_path!(), "::", stringify!($name)),
                &cfg,
                gen,
                |__input| {
                    #[allow(unused_variables)]
                    let ($($arg,)+) = __input.clone();
                    $body
                    Ok(())
                },
            );
        }
    )*};
}

/// Property-scoped assertion: fails the current case (triggering
/// shrinking) instead of aborting the whole test binary.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !$cond {
            return Err(format!(
                "assertion failed at {}:{}: {}",
                file!(), line!(), stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return Err(format!(
                "assertion failed at {}:{}: {}",
                file!(), line!(), format!($($fmt)+)
            ));
        }
    };
}

/// Property-scoped equality assertion; see [`prop_assert!`].
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return Err(format!(
                "assertion failed at {}:{}: {:?} != {:?}",
                file!(),
                line!(),
                l,
                r
            ));
        }
    }};
}

/// Declares the benchmark registration function, Criterion-style:
/// `criterion_group!(benches, bench_a, bench_b)` produces a function
/// `benches()` that runs every target against a fresh
/// [`bench::Criterion`].
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::bench::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Declares the benchmark binary's `main`, Criterion-style.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
