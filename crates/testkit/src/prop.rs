//! Seeded property-based testing with shrinking — the in-repo
//! replacement for the `proptest` dependency.
//!
//! A property test draws random inputs from a [`Gen`], checks an
//! invariant on each, and on failure (a) shrinks the input to a smaller
//! counterexample by halving numeric values and truncating collections,
//! and (b) prints the *case seed* that regenerates the failing input, so
//! any red CI run reproduces locally with
//!
//! ```text
//! TESTKIT_SEED=<printed seed> cargo test -p <crate> <test name>
//! ```
//!
//! Tests are written with the [`property_tests!`](crate::property_tests)
//! macro and the [`prop_assert!`](crate::prop_assert) /
//! [`prop_assert_eq!`](crate::prop_assert_eq) assertion macros:
//!
//! ```
//! testkit::property_tests! {
//!     fn addition_commutes(a in -1000i64..1000, b in -1000i64..1000) {
//!         testkit::prop_assert_eq!(a + b, b + a);
//!     }
//! }
//! ```
//!
//! Environment knobs: `TESTKIT_CASES` (cases per property, default 64),
//! `TESTKIT_SEED` (run exactly one case with that seed).

use rngkit::rngs::StdRng;
use rngkit::{Rng, RngCore, SeedableRng, SplitMix64};
use std::fmt::Debug;
use std::ops::{Range, RangeInclusive};
use std::rc::Rc;

/// A shrinker: proposes smaller variants of a failing input (empty
/// `Vec` for "cannot shrink").
type Shrinker<T> = Rc<dyn Fn(&T) -> Vec<T>>;

/// A generator of test inputs: a sampling function plus a shrinker that
/// proposes smaller variants of a failing input.
pub struct Gen<T> {
    sample: Rc<dyn Fn(&mut StdRng) -> T>,
    shrink: Shrinker<T>,
}

impl<T> Clone for Gen<T> {
    fn clone(&self) -> Self {
        Self {
            sample: Rc::clone(&self.sample),
            shrink: Rc::clone(&self.shrink),
        }
    }
}

impl<T: 'static> Gen<T> {
    /// Builds a generator from a sampling closure and a shrinking
    /// closure (return an empty `Vec` for "cannot shrink").
    pub fn new(
        sample: impl Fn(&mut StdRng) -> T + 'static,
        shrink: impl Fn(&T) -> Vec<T> + 'static,
    ) -> Self {
        Self {
            sample: Rc::new(sample),
            shrink: Rc::new(shrink),
        }
    }

    /// Draws one value.
    pub fn sample(&self, rng: &mut StdRng) -> T {
        (self.sample)(rng)
    }

    /// Proposes smaller variants of `value`, most aggressive first.
    pub fn shrink(&self, value: &T) -> Vec<T> {
        (self.shrink)(value)
    }

    /// Maps generated values through `f`. Shrinking is disabled (there
    /// is no inverse to shrink through).
    pub fn map<U: 'static>(self, f: impl Fn(T) -> U + 'static) -> Gen<U> {
        let sample = self.sample;
        Gen::new(move |rng| f(sample(rng)), |_| Vec::new())
    }

    /// Makes a dependent generator: draws from `self`, then from the
    /// generator `f` builds from that value — the tool for "a domain,
    /// then columns over that domain" inputs. Shrinking is disabled.
    pub fn flat_map<U: 'static>(self, f: impl Fn(T) -> Gen<U> + 'static) -> Gen<U> {
        let sample = self.sample;
        Gen::new(move |rng| f(sample(rng)).sample(rng), |_| Vec::new())
    }
}

/// Types convertible into a [`Gen`]: ranges, tuples of convertibles, and
/// `Gen` itself. This is what the right-hand side of `x in ...` inside
/// [`property_tests!`](crate::property_tests) accepts.
pub trait IntoGen<T> {
    /// Performs the conversion.
    fn into_gen(self) -> Gen<T>;
}

impl<T> IntoGen<T> for Gen<T> {
    fn into_gen(self) -> Gen<T> {
        self
    }
}

/// A generator that always yields `value`.
pub fn just<T: Clone + 'static>(value: T) -> Gen<T> {
    Gen::new(move |_| value.clone(), |_| Vec::new())
}

macro_rules! impl_int_into_gen {
    ($($ty:ty),+ $(,)?) => {$(
        impl IntoGen<$ty> for Range<$ty> {
            fn into_gen(self) -> Gen<$ty> {
                let (lo, hi) = (self.start, self.end);
                Gen::new(
                    move |rng| rng.gen_range(lo..hi),
                    move |&v| {
                        // Halve the distance to the lower bound.
                        let mut out = Vec::new();
                        if v != lo {
                            out.push(lo);
                            let half = lo + (v - lo) / 2;
                            if half != lo && half != v {
                                out.push(half);
                            }
                            out.push(v - 1);
                        }
                        out
                    },
                )
            }
        }

        impl IntoGen<$ty> for RangeInclusive<$ty> {
            fn into_gen(self) -> Gen<$ty> {
                let (lo, hi) = (*self.start(), *self.end());
                Gen::new(
                    move |rng| rng.gen_range(lo..=hi),
                    move |&v| {
                        let mut out = Vec::new();
                        if v != lo {
                            out.push(lo);
                            let half = lo + (v - lo) / 2;
                            if half != lo && half != v {
                                out.push(half);
                            }
                            out.push(v - 1);
                        }
                        out
                    },
                )
            }
        }
    )+};
}

impl_int_into_gen!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! impl_float_into_gen {
    ($($ty:ty),+ $(,)?) => {$(
        impl IntoGen<$ty> for Range<$ty> {
            fn into_gen(self) -> Gen<$ty> {
                let (lo, hi) = (self.start, self.end);
                Gen::new(
                    move |rng| rng.gen_range(lo..hi),
                    move |&v| {
                        // Halving shrink toward the lower bound; also try
                        // zero when the range straddles it.
                        let mut out = Vec::new();
                        if lo < 0.0 && hi > 0.0 && v != 0.0 {
                            out.push(0.0);
                        }
                        if (v - lo).abs() > 1e-9 * (1.0 + lo.abs()) {
                            out.push(lo);
                            out.push(lo + (v - lo) / 2.0);
                        }
                        out
                    },
                )
            }
        }
    )+};
}

impl_float_into_gen!(f32, f64);

// Tuples of `IntoGen`s become tuple-valued generators — the entry point
// used by `property_tests!` for multi-argument properties. Shrinking is
// componentwise: each candidate changes exactly one position.
macro_rules! impl_tuple_of_intogen {
    ($(($($T:ident $G:ident . $idx:tt),+))+) => {$(
        impl<$($T: Clone + 'static, $G: IntoGen<$T>),+> IntoGen<($($T,)+)> for ($($G,)+) {
            fn into_gen(self) -> Gen<($($T,)+)> {
                let shrink_gens = ($(self.$idx.into_gen(),)+);
                let sample_gens = shrink_gens.clone();
                Gen::new(
                    move |rng| ($(sample_gens.$idx.sample(rng),)+),
                    move |v| {
                        let mut out: Vec<($($T,)+)> = Vec::new();
                        $(
                            for cand in shrink_gens.$idx.shrink(&v.$idx) {
                                let mut t = v.clone();
                                t.$idx = cand;
                                out.push(t);
                            }
                        )+
                        out
                    },
                )
            }
        }
    )+};
}

impl_tuple_of_intogen! {
    (T0 G0.0)
    (T0 G0.0, T1 G1.1)
    (T0 G0.0, T1 G1.1, T2 G2.2)
    (T0 G0.0, T1 G1.1, T2 G2.2, T3 G3.3)
    (T0 G0.0, T1 G1.1, T2 G2.2, T3 G3.3, T4 G4.4)
}

/// Length specification for [`vec()`]: an exact `usize` or a range.
pub trait IntoLenRange {
    /// Returns `(min, max)` inclusive bounds.
    fn bounds(self) -> (usize, usize);
}

impl IntoLenRange for usize {
    fn bounds(self) -> (usize, usize) {
        (self, self)
    }
}

impl IntoLenRange for Range<usize> {
    fn bounds(self) -> (usize, usize) {
        assert!(self.start < self.end, "empty length range");
        (self.start, self.end - 1)
    }
}

impl IntoLenRange for RangeInclusive<usize> {
    fn bounds(self) -> (usize, usize) {
        (*self.start(), *self.end())
    }
}

/// Generates a `Vec` whose length is drawn from `len` and whose elements
/// are drawn from `elem` — the counterpart of `proptest`'s
/// `collection::vec`. Shrinks by truncating toward the minimum length,
/// then by shrinking individual elements.
pub fn vec<T, G, L>(elem: G, len: L) -> Gen<Vec<T>>
where
    T: Clone + 'static,
    G: IntoGen<T>,
    L: IntoLenRange,
{
    let elem = elem.into_gen();
    let (min_len, max_len) = len.bounds();
    let sample_elem = elem.clone();
    Gen::new(
        move |rng| {
            let n = rng.gen_range(min_len..=max_len);
            (0..n).map(|_| sample_elem.sample(rng)).collect()
        },
        move |v: &Vec<T>| {
            let mut out: Vec<Vec<T>> = Vec::new();
            if v.len() / 2 >= min_len && v.len() > min_len {
                out.push(v[..v.len() / 2].to_vec());
            }
            if v.len() > min_len {
                out.push(v[..v.len() - 1].to_vec());
            }
            for (i, item) in v.iter().enumerate() {
                if let Some(cand) = elem.shrink(item).into_iter().next() {
                    let mut smaller = v.clone();
                    smaller[i] = cand;
                    out.push(smaller);
                }
            }
            out
        },
    )
}

/// Runner configuration, read from the environment.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    /// Number of random cases per property (`TESTKIT_CASES`, default 64).
    pub cases: u64,
    /// Upper bound on shrink-candidate evaluations after a failure.
    pub max_shrink_evals: u32,
    /// Run exactly one case with this seed (`TESTKIT_SEED`).
    pub seed: Option<u64>,
}

impl Config {
    /// Reads `TESTKIT_CASES` and `TESTKIT_SEED` from the environment.
    pub fn from_env() -> Self {
        let parse = |name: &str| std::env::var(name).ok().and_then(|v| v.parse::<u64>().ok());
        Self {
            cases: parse("TESTKIT_CASES").unwrap_or(64),
            max_shrink_evals: 1000,
            seed: parse("TESTKIT_SEED"),
        }
    }
}

/// Stable 64-bit FNV-1a hash of the test name — the default base seed,
/// so each property explores its own deterministic stream and a red test
/// stays red on re-run.
fn name_seed(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Runs `prop` against `cfg.cases` inputs drawn from `gen`; on failure,
/// shrinks the input and panics with the counterexample and the
/// reproducing seed.
pub fn run<T, F>(name: &str, cfg: &Config, gen: Gen<T>, prop: F)
where
    T: Debug + Clone + 'static,
    F: Fn(&T) -> Result<(), String>,
{
    let case_seeds: Vec<u64> = match cfg.seed {
        Some(s) => vec![s],
        None => {
            let mut sm = SplitMix64::new(name_seed(name));
            (0..cfg.cases).map(|_| sm.next_u64()).collect()
        }
    };

    for (case, &seed) in case_seeds.iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed);
        let input = gen.sample(&mut rng);
        if let Err(msg) = prop(&input) {
            let (shrunk, err, evals) =
                shrink_failure(&gen, input, msg, &prop, cfg.max_shrink_evals);
            panic!(
                "property `{name}` failed at case {case}/{total}\n\
                 \u{20}   error: {err}\n\
                 \u{20}   input (after {evals} shrink evals): {shrunk:?}\n\
                 \u{20}   reproduce with: TESTKIT_SEED={seed} cargo test {short}\n",
                total = case_seeds.len(),
                short = name.rsplit("::").next().unwrap_or(name),
            );
        }
    }
}

/// Greedily walks the shrink tree: keep the first candidate that still
/// fails, stop when no candidate fails or the evaluation budget runs out.
fn shrink_failure<T, F>(
    gen: &Gen<T>,
    mut current: T,
    mut err: String,
    prop: &F,
    budget: u32,
) -> (T, String, u32)
where
    T: Debug + Clone + 'static,
    F: Fn(&T) -> Result<(), String>,
{
    let mut evals = 0u32;
    'outer: loop {
        for cand in gen.shrink(&current) {
            if evals >= budget {
                break 'outer;
            }
            evals += 1;
            if let Err(msg) = prop(&cand) {
                current = cand;
                err = msg;
                continue 'outer;
            }
        }
        break;
    }
    (current, err, evals)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg() -> Config {
        Config {
            cases: 64,
            max_shrink_evals: 1000,
            seed: None,
        }
    }

    #[test]
    fn passing_property_runs_all_cases() {
        let seen = std::cell::Cell::new(0u32);
        run(
            "t::always_true",
            &test_cfg(),
            (0u32..100).into_gen(),
            |_| {
                seen.set(seen.get() + 1);
                Ok(())
            },
        );
        assert_eq!(seen.get(), 64);
    }

    #[test]
    fn failing_property_shrinks_to_boundary() {
        // Property "v < 50" fails for v >= 50; halving shrink must land
        // exactly on the smallest counterexample, 50.
        let result = std::panic::catch_unwind(|| {
            run("t::lt_fifty", &test_cfg(), (0u32..1000).into_gen(), |&v| {
                if v < 50 {
                    Ok(())
                } else {
                    Err(format!("{v} not < 50"))
                }
            });
        });
        let msg = *result.unwrap_err().downcast::<String>().unwrap();
        assert!(msg.contains("input (after"), "message was: {msg}");
        assert!(msg.contains(": 50\n"), "expected shrink to 50, got: {msg}");
        assert!(msg.contains("TESTKIT_SEED="), "message was: {msg}");
    }

    #[test]
    fn explicit_seed_reproduces_input() {
        let capture = |cfg: &Config| {
            let got = std::cell::Cell::new(0u64);
            run("t::capture", cfg, (0u64..u64::MAX).into_gen(), |&v| {
                got.set(v);
                Ok(())
            });
            got.get()
        };
        let with_seed = Config {
            seed: Some(777),
            ..test_cfg()
        };
        assert_eq!(capture(&with_seed), capture(&with_seed));
    }

    #[test]
    fn vec_generator_respects_length_bounds() {
        let g = vec(0.0f64..1.0, 3..10);
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..200 {
            let v = g.sample(&mut rng);
            assert!((3..10).contains(&v.len()));
            assert!(v.iter().all(|&x| (0.0..1.0).contains(&x)));
        }
    }

    #[test]
    fn vec_shrink_never_violates_min_length() {
        let g = vec(0u32..10, 2..6);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..100 {
            let v = g.sample(&mut rng);
            for cand in g.shrink(&v) {
                assert!(cand.len() >= 2, "shrunk below min: {cand:?}");
            }
        }
    }

    #[test]
    fn tuple_generator_shrinks_componentwise() {
        let g = (0u32..100, 0u32..100).into_gen();
        let cands = g.shrink(&(40, 60));
        assert!(cands.iter().any(|&(a, b)| a < 40 && b == 60));
        assert!(cands.iter().any(|&(a, b)| a == 40 && b < 60));
    }

    #[test]
    fn flat_map_builds_dependent_inputs() {
        let g = (1usize..5).into_gen().flat_map(|n| vec(0u32..10, n));
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let v = g.sample(&mut rng);
            assert!((1..5).contains(&v.len()));
        }
    }

    // Exercises the macro end-to-end: this expands to a regular `#[test]`
    // that runs with the rest of the suite.
    crate::property_tests! {
        fn macro_assertions_compile_and_fire(a in -50i32..50, b in -50i32..50) {
            crate::prop_assert!(a + b == b + a);
            crate::prop_assert_eq!(a + b, b + a);
        }
    }
}
