//! A small property-based testing harness (std-only).
//!
//! The workspace's invariant tests were written for an external
//! property-testing crate; this module provides the same workflow
//! hermetically: seeded case generation, a configurable case count,
//! greedy shrinking of counterexamples (halving numbers toward the
//! range floor, truncating vectors), and seed reporting so any failure
//! reproduces exactly.
//!
//! Environment variables:
//!
//! - `HYPEREAR_PROP_CASES` — cases per property (default 64, or what
//!   [`check_cases`] names).
//! - `HYPEREAR_PROP_SEED` — base seed; case 0 uses it verbatim, so a
//!   reported failing seed reruns as case 0.
//! - `HYPEREAR_PROP_MAX_SHRINKS` — shrink-step budget (default 1024).
//!
//! ```
//! use hyperear_util::prop::{self, f64_range};
//! use hyperear_util::prop_assert;
//!
//! prop::check("abs_is_nonnegative", f64_range(-10.0, 10.0), |&x| {
//!     prop_assert!(x.abs() >= 0.0, "abs({x}) was negative");
//!     prop::pass()
//! });
//! ```

use crate::rng::{fnv1a, splitmix64_next, Xoshiro256pp};
use std::fmt::Debug;

/// The outcome of running a property on one generated case.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CaseOutcome {
    /// The property held.
    Pass,
    /// The case was rejected by a precondition (does not count toward
    /// the case budget).
    Discard,
    /// The property was falsified.
    Fail(String),
}

/// The passing outcome — properties end with `prop::pass()`.
#[must_use]
pub fn pass() -> CaseOutcome {
    CaseOutcome::Pass
}

/// Asserts a condition inside a property, failing the case with a
/// formatted message (the condition source is included automatically).
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        if !$cond {
            return $crate::prop::CaseOutcome::Fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            ));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !$cond {
            return $crate::prop::CaseOutcome::Fail(format!(
                "assertion failed: {} — {}",
                stringify!($cond),
                format!($($fmt)+)
            ));
        }
    };
}

/// Asserts equality inside a property.
#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr) => {{
        let (l, r) = (&$left, &$right);
        if l != r {
            return $crate::prop::CaseOutcome::Fail(format!(
                "assertion failed: {} == {} (left: {:?}, right: {:?})",
                stringify!($left),
                stringify!($right),
                l,
                r
            ));
        }
    }};
}

/// Rejects a case that does not meet a precondition; the harness draws
/// a replacement case instead.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !$cond {
            return $crate::prop::CaseOutcome::Discard;
        }
    };
}

/// Source of randomness handed to strategies.
#[derive(Debug, Clone)]
pub struct Gen {
    rng: Xoshiro256pp,
}

impl Gen {
    /// A generator for the given case seed.
    #[must_use]
    pub(crate) fn from_seed(seed: u64) -> Self {
        Gen {
            rng: Xoshiro256pp::seed_from_u64(seed),
        }
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn f64_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.rng.next_f64()
    }

    /// Uniform `usize` in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        assert!(hi > lo, "empty usize range {lo}..{hi}");
        lo + self.rng.next_below((hi - lo) as u64) as usize
    }

    /// A fair coin flip.
    pub fn bool(&mut self) -> bool {
        self.rng.next_u64() & 1 == 1
    }
}

/// A generation + shrinking recipe for one input type.
pub trait Strategy {
    /// The generated input type.
    type Value: Clone + Debug;

    /// Draws one case.
    fn generate(&self, g: &mut Gen) -> Self::Value;

    /// Simpler candidate replacements for a failing value, simplest
    /// first. An empty vector means fully shrunk.
    fn shrink(&self, v: &Self::Value) -> Vec<Self::Value>;
}

/// Uniform `f64` in `[lo, hi)`, shrinking by halving toward `lo`
/// (and toward `0` when the range spans it).
///
/// # Panics
///
/// Panics if the range is empty (`lo >= hi`).
#[must_use]
pub fn f64_range(lo: f64, hi: f64) -> F64Range {
    assert!(lo < hi, "empty f64 range {lo}..{hi}");
    F64Range { lo, hi }
}

/// See [`f64_range`].
#[derive(Debug, Clone, Copy)]
pub struct F64Range {
    lo: f64,
    hi: f64,
}

impl Strategy for F64Range {
    type Value = f64;

    fn generate(&self, g: &mut Gen) -> f64 {
        g.f64_in(self.lo, self.hi)
    }

    #[allow(clippy::float_cmp)] // exact candidate dedup, not tolerance math
    fn shrink(&self, &v: &f64) -> Vec<f64> {
        let mut out = Vec::new();
        // The simplest point of the range: zero when available, else lo.
        let floor = if self.lo <= 0.0 && 0.0 < self.hi {
            0.0
        } else {
            self.lo
        };
        if v != floor {
            out.push(floor);
            // A ladder of fractions of the excess: halving first, then
            // progressively gentler cuts so greedy descent converges to
            // within ~7% of the smallest failing value.
            for keep in [0.5, 0.75, 0.875, 0.9375] {
                let cand = floor + (v - floor) * keep;
                if cand != v && cand != floor {
                    out.push(cand);
                }
            }
        }
        out
    }
}

/// Uniform `usize` in `[lo, hi)`, shrinking by halving toward `lo`.
///
/// # Panics
///
/// Panics if the range is empty (`lo >= hi`).
#[must_use]
pub fn usize_range(lo: usize, hi: usize) -> UsizeRange {
    assert!(lo < hi, "empty usize range {lo}..{hi}");
    UsizeRange { lo, hi }
}

/// See [`usize_range`].
#[derive(Debug, Clone, Copy)]
pub struct UsizeRange {
    lo: usize,
    hi: usize,
}

impl Strategy for UsizeRange {
    type Value = usize;

    fn generate(&self, g: &mut Gen) -> usize {
        g.usize_in(self.lo, self.hi)
    }

    fn shrink(&self, &v: &usize) -> Vec<usize> {
        let mut out = Vec::new();
        if v > self.lo {
            out.push(self.lo);
            let excess = v - self.lo;
            // Halving first, then gentler cuts (see `F64Range::shrink`),
            // finishing with the decrement so integers reach the exact
            // boundary.
            for cand in [
                self.lo + excess / 2,
                self.lo + excess * 3 / 4,
                self.lo + excess * 7 / 8,
                v - 1,
            ] {
                if cand != v && cand != self.lo && !out.contains(&cand) {
                    out.push(cand);
                }
            }
        }
        out
    }
}

/// A fair boolean, shrinking `true` → `false`.
#[must_use]
pub fn bool_any() -> BoolAny {
    BoolAny
}

/// See [`bool_any`].
#[derive(Debug, Clone, Copy)]
pub struct BoolAny;

impl Strategy for BoolAny {
    type Value = bool;

    fn generate(&self, g: &mut Gen) -> bool {
        g.bool()
    }

    fn shrink(&self, &v: &bool) -> Vec<bool> {
        if v {
            vec![false]
        } else {
            Vec::new()
        }
    }
}

/// A vector of `elem` values with length in `[min_len, max_len)`,
/// shrinking by truncation first, then element-wise.
///
/// # Panics
///
/// Panics if the length range is empty (`min_len >= max_len`).
#[must_use]
pub fn vec_of<S: Strategy>(elem: S, min_len: usize, max_len: usize) -> VecOf<S> {
    assert!(min_len < max_len, "empty length range {min_len}..{max_len}");
    VecOf {
        elem,
        min_len,
        max_len,
    }
}

/// Shorthand for the workspace's most common input: a signal vector of
/// samples in `[lo, hi)`.
#[must_use]
pub fn vec_f64(lo: f64, hi: f64, min_len: usize, max_len: usize) -> VecOf<F64Range> {
    vec_of(f64_range(lo, hi), min_len, max_len)
}

/// See [`vec_of`].
#[derive(Debug, Clone, Copy)]
pub struct VecOf<S> {
    elem: S,
    min_len: usize,
    max_len: usize,
}

impl<S: Strategy> Strategy for VecOf<S> {
    type Value = Vec<S::Value>;

    fn generate(&self, g: &mut Gen) -> Vec<S::Value> {
        let len = g.usize_in(self.min_len, self.max_len);
        (0..len).map(|_| self.elem.generate(g)).collect()
    }

    fn shrink(&self, v: &Vec<S::Value>) -> Vec<Vec<S::Value>> {
        let mut out = Vec::new();
        // Length shrinks: the minimum, then half the excess.
        if v.len() > self.min_len {
            out.push(v[..self.min_len].to_vec());
            let half = self.min_len + (v.len() - self.min_len) / 2;
            if half != v.len() && half != self.min_len {
                out.push(v[..half].to_vec());
            }
        }
        // Element shrinks: each position's simplest replacement.
        for (i, x) in v.iter().enumerate() {
            if let Some(simpler) = self.elem.shrink(x).into_iter().next() {
                let mut copy = v.clone();
                copy[i] = simpler;
                out.push(copy);
            }
        }
        out
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);

            fn generate(&self, g: &mut Gen) -> Self::Value {
                ($(self.$idx.generate(g),)+)
            }

            fn shrink(&self, v: &Self::Value) -> Vec<Self::Value> {
                let mut out = Vec::new();
                $(
                    for cand in self.$idx.shrink(&v.$idx) {
                        let mut copy = v.clone();
                        copy.$idx = cand;
                        out.push(copy);
                    }
                )+
                out
            }
        }
    };
}

impl_tuple_strategy!(A: 0, B: 1);
impl_tuple_strategy!(A: 0, B: 1, C: 2);
impl_tuple_strategy!(A: 0, B: 1, C: 2, D: 3);

/// Harness configuration; [`Config::from_env`] is what [`check`] uses.
#[derive(Debug, Clone)]
pub(crate) struct Config {
    /// Passing cases required per property.
    pub cases: usize,
    /// Base seed override (`None` = derived from the property name).
    pub base_seed: Option<u64>,
    /// Total shrink-candidate evaluations allowed per failure.
    pub max_shrinks: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            cases: 64,
            base_seed: None,
            max_shrinks: 1024,
        }
    }
}

impl Config {
    /// Reads `HYPEREAR_PROP_CASES`, `HYPEREAR_PROP_SEED`, and
    /// `HYPEREAR_PROP_MAX_SHRINKS`; malformed values fall back to the
    /// defaults, with `cases` cases.
    #[must_use]
    pub(crate) fn from_env(cases: usize) -> Self {
        let mut c = Config {
            cases: cases.max(1),
            ..Config::default()
        };
        if let Ok(v) = std::env::var("HYPEREAR_PROP_CASES") {
            if let Ok(n) = v.trim().parse::<usize>() {
                c.cases = n.max(1);
            }
        }
        if let Ok(v) = std::env::var("HYPEREAR_PROP_SEED") {
            let t = v.trim();
            let parsed = t.strip_prefix("0x").map_or_else(
                || t.parse::<u64>().ok(),
                |h| u64::from_str_radix(h, 16).ok(),
            );
            c.base_seed = parsed;
        }
        if let Ok(v) = std::env::var("HYPEREAR_PROP_MAX_SHRINKS") {
            if let Ok(n) = v.trim().parse::<usize>() {
                c.max_shrinks = n;
            }
        }
        c
    }
}

/// A falsified property, with everything needed to reproduce it.
#[derive(Debug, Clone)]
pub(crate) struct Falsified<V> {
    /// Which case failed (0-based).
    pub case_index: usize,
    /// The exact seed of the failing case.
    pub case_seed: u64,
    /// The input as originally generated.
    pub original: V,
    /// The input after shrinking.
    pub shrunk: V,
    /// How many successful shrink steps were applied.
    pub shrink_steps: usize,
    /// The failure message (of the shrunk input).
    pub message: String,
}

impl<V: Debug> Falsified<V> {
    /// The full report the panic carries.
    #[must_use]
    pub(crate) fn report(&self, name: &str) -> String {
        format!(
            "property `{name}` falsified at case {} (seed 0x{:016x})\n  \
             failure: {}\n  shrunk input ({} steps): {:?}\n  original input: {:?}\n  \
             rerun this case with HYPEREAR_PROP_SEED=0x{:016x} (it becomes case 0)",
            self.case_index,
            self.case_seed,
            self.message,
            self.shrink_steps,
            self.shrunk,
            self.original,
            self.case_seed,
        )
    }
}

/// The seed of case `index` under `base`: case 0 is `base` itself so a
/// reported seed reruns directly; later cases are splitmix64-derived.
#[must_use]
pub(crate) fn case_seed(base: u64, index: usize) -> u64 {
    if index == 0 {
        base
    } else {
        let mut state = base ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        splitmix64_next(&mut state)
    }
}

/// Runs a property and returns the shrunk counterexample instead of
/// panicking — the non-panicking core of [`check`], also used by the
/// harness's own self-tests.
///
/// # Errors
///
/// Returns [`Falsified`] describing the (shrunk) counterexample.
///
/// # Panics
///
/// Panics if the property discards more than 16× the configured case
/// count — a sign the precondition rejects nearly everything.
pub(crate) fn run<S, F>(
    config: &Config,
    name: &str,
    strategy: &S,
    property: F,
) -> Result<(), Box<Falsified<S::Value>>>
where
    S: Strategy,
    F: Fn(&S::Value) -> CaseOutcome,
{
    let base = config.base_seed.unwrap_or_else(|| fnv1a(name));
    let mut passed = 0usize;
    let mut discards = 0usize;
    let mut index = 0usize;
    // A generous discard allowance: preconditions are cheap filters,
    // not generators, so runaway rejection is a bug worth surfacing.
    let max_discards = 16 * config.cases.max(1);
    while passed < config.cases {
        let seed = case_seed(base, index);
        let mut g = Gen::from_seed(seed);
        let value = strategy.generate(&mut g);
        match property(&value) {
            CaseOutcome::Pass => passed += 1,
            CaseOutcome::Discard => {
                discards += 1;
                assert!(
                    discards <= max_discards,
                    "property `{name}`: {discards} cases discarded before \
                     {} passed — loosen the precondition or narrow the strategy",
                    config.cases
                );
            }
            CaseOutcome::Fail(message) => {
                let f = shrink_failure(config, seed, index, strategy, &property, value, message);
                return Err(Box::new(f));
            }
        }
        index += 1;
    }
    Ok(())
}

fn shrink_failure<S, F>(
    config: &Config,
    case_seed: u64,
    case_index: usize,
    strategy: &S,
    property: &F,
    original: S::Value,
    message: String,
) -> Falsified<S::Value>
where
    S: Strategy,
    F: Fn(&S::Value) -> CaseOutcome,
{
    let mut current = original.clone();
    let mut current_msg = message;
    let mut steps = 0usize;
    let mut budget = config.max_shrinks;
    'outer: while budget > 0 {
        for cand in strategy.shrink(&current) {
            if budget == 0 {
                break 'outer;
            }
            budget -= 1;
            if let CaseOutcome::Fail(msg) = property(&cand) {
                current = cand;
                current_msg = msg;
                steps += 1;
                continue 'outer;
            }
        }
        break; // No candidate still fails: locally minimal.
    }
    Falsified {
        case_index,
        case_seed,
        original,
        shrunk: current,
        shrink_steps: steps,
        message: current_msg,
    }
}

/// Checks a property over the configured cases (`HYPEREAR_PROP_CASES`,
/// `HYPEREAR_PROP_SEED`, `HYPEREAR_PROP_MAX_SHRINKS`), panicking with a
/// seed-bearing report on the first (shrunk) counterexample.
///
/// # Panics
///
/// Panics if the property is falsified; the message includes the case
/// seed, the shrunk and original inputs, and rerun instructions.
pub fn check<S, F>(name: &str, strategy: S, property: F)
where
    S: Strategy,
    F: Fn(&S::Value) -> CaseOutcome,
{
    check_cases(name, Config::default().cases, strategy, property);
}

/// [`check`] over `cases` cases unless `HYPEREAR_PROP_CASES` sets the
/// count: for properties whose every case is costly (a simulated
/// session, say), so a routine run checks a few and a long run sets
/// the variable.
///
/// # Panics
///
/// Panics if the property is falsified, as [`check`] does.
#[allow(clippy::needless_pass_by_value)] // by-value keeps call sites free of `&` on inline tuples
pub fn check_cases<S, F>(name: &str, cases: usize, strategy: S, property: F)
where
    S: Strategy,
    F: Fn(&S::Value) -> CaseOutcome,
{
    let config = Config::from_env(cases);
    if let Err(f) = run(&config, name, &strategy, property) {
        let report = f.report(name);
        // Also emit to stdout: `cargo test` shows captured output for
        // failed tests, keeping the seed visible in CI logs.
        println!("{report}");
        panic!("{report}");
    }
}

#[cfg(test)]
#[allow(clippy::float_cmp)] // tests assert exact generated/shrunk values
mod tests {
    use super::*;

    fn quiet_config() -> Config {
        Config {
            cases: 64,
            base_seed: Some(0xdead_beef),
            max_shrinks: 1024,
        }
    }

    #[test]
    fn passing_property_runs_all_cases() {
        let count = std::cell::Cell::new(0usize);
        let r = run(&quiet_config(), "always_true", &f64_range(0.0, 1.0), |_| {
            count.set(count.get() + 1);
            pass()
        });
        assert!(r.is_ok());
        assert_eq!(count.get(), 64);
    }

    #[test]
    fn deterministic_across_runs() {
        let collect = || {
            let seen = std::cell::RefCell::new(Vec::new());
            let _ = run(&quiet_config(), "collect", &f64_range(-1.0, 1.0), |&x| {
                seen.borrow_mut().push(x);
                pass()
            });
            seen.into_inner()
        };
        assert_eq!(collect(), collect());
    }

    #[test]
    fn failing_seed_reruns_as_case_zero() {
        // Find a failing case under one base seed...
        let config = quiet_config();
        let strat = f64_range(0.0, 100.0);
        let f = run(&config, "gt", &strat, |&x| {
            if x > 90.0 {
                CaseOutcome::Fail("too big".into())
            } else {
                pass()
            }
        })
        .unwrap_err();
        // ...then rerun with the reported seed: case 0 regenerates the
        // exact same original input.
        let replay = Config {
            base_seed: Some(f.case_seed),
            ..quiet_config()
        };
        let g = run(&replay, "gt", &strat, |&x| {
            if x > 90.0 {
                CaseOutcome::Fail("too big".into())
            } else {
                pass()
            }
        })
        .unwrap_err();
        assert_eq!(g.case_index, 0);
        assert_eq!(g.original, f.original);
    }

    #[test]
    fn shrinking_halves_scalars_to_the_boundary() {
        // Fails for x ≥ 10: the minimal counterexample is near 10.
        let f = run(&quiet_config(), "ge_ten", &f64_range(0.0, 100.0), |&x| {
            if x >= 10.0 {
                CaseOutcome::Fail(format!("{x} >= 10"))
            } else {
                pass()
            }
        })
        .unwrap_err();
        assert!(f.shrunk >= 10.0, "shrunk {} no longer fails", f.shrunk);
        assert!(
            f.shrunk <= f.original,
            "shrunk {} above original {}",
            f.shrunk,
            f.original
        );
        assert!(f.shrunk < 10.8, "under-shrunk: {}", f.shrunk);
        assert!(f.report("ge_ten").contains("HYPEREAR_PROP_SEED=0x"));
    }

    #[test]
    fn shrinking_truncates_vectors() {
        // Fails whenever the vector is non-trivial; minimal length is 1.
        let f = run(
            &quiet_config(),
            "any_vec",
            &vec_f64(-1.0, 1.0, 1, 64),
            |v: &Vec<f64>| {
                if v.iter().any(|x| x.abs() > 0.0) {
                    CaseOutcome::Fail("nonzero".into())
                } else {
                    pass()
                }
            },
        )
        .unwrap_err();
        assert!(f.shrunk.len() <= 2, "under-shrunk: {:?}", f.shrunk);
    }

    #[test]
    fn tuples_shrink_componentwise() {
        let strat = (usize_range(0, 100), usize_range(0, 100));
        let f = run(&quiet_config(), "sum_small", &strat, |&(a, b)| {
            if a + b >= 50 {
                CaseOutcome::Fail("sum too big".into())
            } else {
                pass()
            }
        })
        .unwrap_err();
        let (a, b) = f.shrunk;
        assert!(a + b >= 50);
        // One side should have collapsed to (or near) its floor.
        assert!(a.min(b) <= 25, "under-shrunk: ({a}, {b})");
    }

    #[test]
    fn discards_do_not_count_as_cases() {
        let passed = std::cell::Cell::new(0usize);
        let r = run(
            &quiet_config(),
            "half_discarded",
            &f64_range(0.0, 1.0),
            |&x| {
                if x < 0.5 {
                    CaseOutcome::Discard
                } else {
                    passed.set(passed.get() + 1);
                    pass()
                }
            },
        );
        assert!(r.is_ok());
        assert_eq!(passed.get(), 64);
    }

    #[test]
    #[should_panic(expected = "falsified")]
    fn check_panics_with_seed_report() {
        check("always_false", bool_any(), |_| {
            CaseOutcome::Fail("no".into())
        });
    }

    #[test]
    fn bool_shrinks_to_false() {
        assert_eq!(bool_any().shrink(&true), vec![false]);
        assert!(bool_any().shrink(&false).is_empty());
    }
}
