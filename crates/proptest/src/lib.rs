//! Offline vendored mini property-testing harness.
//!
//! The build environment has no access to crates.io, so this crate
//! re-implements the slice of the `proptest` API this workspace's test
//! suites use: the [`proptest!`] macro (with optional
//! `#![proptest_config(..)]`), [`Strategy`] over ranges / tuples /
//! [`collection::vec`] / [`any`], `prop_filter`, `prop_map`, and the
//! `prop_assert*` / [`prop_assume!`] macros.
//!
//! Differences from upstream: cases are generated from a fixed per-test
//! seed (derived from the test name) so runs are deterministic, and there
//! is **no shrinking** — a failing case reports the values via the
//! assertion message instead. For the physics-invariant style tests in
//! this repository that trade-off is fine, and it keeps the harness a few
//! hundred dependency-free lines.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::ops::{Range, RangeInclusive};

/// Outcome of one generated test case: rejection (via [`prop_assume!`])
/// retries with a fresh case, failure aborts the test.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    /// The case did not satisfy an assumption; try another.
    Reject(String),
    /// The property failed.
    Fail(String),
}

impl TestCaseError {
    /// A failing case with the given message.
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    /// A rejected (assumption-violating) case.
    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TestCaseError::Reject(m) => write!(f, "rejected: {m}"),
            TestCaseError::Fail(m) => write!(f, "failed: {m}"),
        }
    }
}

/// Per-test configuration (`#![proptest_config(..)]`).
#[derive(Debug, Clone, Copy)]
pub struct ProptestConfig {
    /// Number of accepted cases to run per test.
    pub cases: u32,
    /// Maximum rejected cases (from [`prop_assume!`] / `prop_filter`)
    /// tolerated before the test errors out.
    pub max_global_rejects: u32,
}

impl Default for ProptestConfig {
    fn default() -> Self {
        Self {
            cases: 64,
            max_global_rejects: 4096,
        }
    }
}

impl ProptestConfig {
    /// A configuration running `cases` accepted cases.
    pub fn with_cases(cases: u32) -> Self {
        Self {
            cases,
            ..Self::default()
        }
    }
}

/// Deterministic case generator (SplitMix64).
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed a generator; test names are hashed into seeds by [`proptest!`].
    pub fn new(seed: u64) -> Self {
        Self {
            state: seed ^ 0x5DEE_CE66_D1CE_B00C,
        }
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform sample in `[0, 1)`.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }
}

/// FNV-1a hash used to derive per-test seeds from test names.
pub fn seed_from_name(name: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in name.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A source of random values of one type.
pub trait Strategy {
    /// The type of generated values.
    type Value;

    /// Generate one value.
    fn sample(&self, rng: &mut TestRng) -> Self::Value;

    /// Keep only values satisfying `pred`; others are rejected (counted
    /// against `max_global_rejects`).
    fn prop_filter<F>(self, whence: &'static str, pred: F) -> Filter<Self, F>
    where
        Self: Sized,
        F: Fn(&Self::Value) -> bool,
    {
        Filter {
            inner: self,
            whence,
            pred,
        }
    }

    /// Transform generated values.
    fn prop_map<F, U>(self, f: F) -> Map<Self, F>
    where
        Self: Sized,
        F: Fn(Self::Value) -> U,
    {
        Map { inner: self, f }
    }
}

/// See [`Strategy::prop_filter`].
#[derive(Debug, Clone)]
pub struct Filter<S, F> {
    inner: S,
    whence: &'static str,
    pred: F,
}

impl<S: Strategy, F: Fn(&S::Value) -> bool> Strategy for Filter<S, F> {
    type Value = S::Value;

    fn sample(&self, rng: &mut TestRng) -> S::Value {
        // Local rejection sampling: overwhelmingly likely to terminate for
        // the mild filters used in practice; bail out loudly otherwise.
        for _ in 0..10_000 {
            let v = self.inner.sample(rng);
            if (self.pred)(&v) {
                return v;
            }
        }
        panic!(
            "prop_filter({}) rejected 10000 consecutive samples",
            self.whence
        );
    }
}

/// See [`Strategy::prop_map`].
#[derive(Debug, Clone)]
pub struct Map<S, F> {
    inner: S,
    f: F,
}

impl<S: Strategy, U, F: Fn(S::Value) -> U> Strategy for Map<S, F> {
    type Value = U;

    fn sample(&self, rng: &mut TestRng) -> U {
        (self.f)(self.inner.sample(rng))
    }
}

/// A strategy that always yields a clone of one value.
#[derive(Debug, Clone)]
pub struct Just<T>(pub T);

impl<T: Clone> Strategy for Just<T> {
    type Value = T;

    fn sample(&self, _rng: &mut TestRng) -> T {
        self.0.clone()
    }
}

macro_rules! impl_int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty range strategy");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn sample(&self, rng: &mut TestRng) -> $t {
                assert!(self.start() <= self.end(), "empty range strategy");
                let span = (*self.end() as i128 - *self.start() as i128 + 1) as u64;
                (*self.start() as i128 + rng.below(span) as i128) as $t
            }
        }
    )*};
}
impl_int_range_strategy!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Strategy for Range<f64> {
    type Value = f64;

    fn sample(&self, rng: &mut TestRng) -> f64 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (self.end - self.start) * rng.unit_f64()
    }
}

impl Strategy for Range<f32> {
    type Value = f32;

    fn sample(&self, rng: &mut TestRng) -> f32 {
        assert!(self.start < self.end, "empty range strategy");
        self.start + (self.end - self.start) * rng.unit_f64() as f32
    }
}

macro_rules! impl_tuple_strategy {
    ($($name:ident),+) => {
        impl<$($name: Strategy),+> Strategy for ($($name,)+) {
            type Value = ($($name::Value,)+);
            #[allow(non_snake_case)]
            fn sample(&self, rng: &mut TestRng) -> Self::Value {
                let ($($name,)+) = self;
                ($($name.sample(rng),)+)
            }
        }
    };
}
impl_tuple_strategy!(A);
impl_tuple_strategy!(A, B);
impl_tuple_strategy!(A, B, C);
impl_tuple_strategy!(A, B, C, D);
impl_tuple_strategy!(A, B, C, D, E);
impl_tuple_strategy!(A, B, C, D, E, F);
impl_tuple_strategy!(A, B, C, D, E, F, G);
impl_tuple_strategy!(A, B, C, D, E, F, G, H);

/// Types with a canonical whole-domain strategy (used via [`any`]).
pub trait Arbitrary: Sized {
    /// Generate one arbitrary value.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() >> 63 == 1
    }
}

macro_rules! impl_arbitrary_int {
    ($($t:ty),*) => {$(
        impl Arbitrary for $t {
            fn arbitrary(rng: &mut TestRng) -> $t {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_arbitrary_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Finite, wide-dynamic-range values (upstream generates specials
        // too; the tests here assume finite inputs).
        let mag = (rng.unit_f64() * 600.0 - 300.0).exp2();
        if rng.next_u64() >> 63 == 1 {
            -mag
        } else {
            mag
        }
    }
}

/// The strategy returned by [`any`].
#[derive(Debug, Clone, Copy, Default)]
pub struct AnyStrategy<T> {
    _marker: std::marker::PhantomData<T>,
}

impl<T: Arbitrary> Strategy for AnyStrategy<T> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// A strategy over the whole domain of `T`.
pub fn any<T: Arbitrary>() -> AnyStrategy<T> {
    AnyStrategy {
        _marker: std::marker::PhantomData,
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Length specification for [`vec()`]: a fixed size or a size range.
    pub trait SizeRange {
        /// Draw a length.
        fn sample_len(&self, rng: &mut TestRng) -> usize;
    }

    impl SizeRange for usize {
        fn sample_len(&self, _rng: &mut TestRng) -> usize {
            *self
        }
    }

    impl SizeRange for Range<usize> {
        fn sample_len(&self, rng: &mut TestRng) -> usize {
            assert!(self.start < self.end, "empty vec size range");
            self.start + rng.below((self.end - self.start) as u64) as usize
        }
    }

    /// See [`vec()`].
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S, L> {
        elem: S,
        len: L,
    }

    impl<S: Strategy, L: SizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;

        fn sample(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.sample_len(rng);
            (0..n).map(|_| self.elem.sample(rng)).collect()
        }
    }

    /// A strategy producing `Vec`s whose elements come from `elem` and
    /// whose length comes from `len` (a `usize` or `Range<usize>`).
    pub fn vec<S: Strategy, L: SizeRange>(elem: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { elem, len }
    }
}

/// The common imports test modules glob in.
pub mod prelude {
    pub use crate::collection;
    pub use crate::{
        any, prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest, Just,
        ProptestConfig, Strategy, TestCaseError,
    };

    /// Upstream-compatible alias so `prop::collection::vec(..)` works.
    pub mod prop {
        pub use crate::collection;
    }
}

/// Runs the generated cases for one `proptest!` test function. Not part of
/// the public API surface users write against; the macro calls it.
pub fn run_cases(
    name: &str,
    config: ProptestConfig,
    mut case: impl FnMut(&mut TestRng) -> Result<(), TestCaseError>,
) {
    let mut rng = TestRng::new(seed_from_name(name));
    let mut accepted = 0u32;
    let mut rejected = 0u32;
    while accepted < config.cases {
        match case(&mut rng) {
            Ok(()) => accepted += 1,
            Err(TestCaseError::Reject(_)) => {
                rejected += 1;
                if rejected > config.max_global_rejects {
                    panic!(
                        "{name}: too many rejected cases ({rejected}) — \
                         weaken the prop_assume!/prop_filter conditions"
                    );
                }
            }
            Err(TestCaseError::Fail(msg)) => {
                panic!("{name}: case {accepted} failed: {msg}")
            }
        }
    }
}

/// Define property tests: each `fn name(args in strategies) { body }`
/// becomes a `#[test]` running [`ProptestConfig::cases`] generated cases.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::proptest!(@cfg ($cfg); $($rest)*);
    };
    (@cfg ($cfg:expr); $(
        $(#[$meta:meta])*
        fn $name:ident ( $( $arg:pat in $strat:expr ),* $(,)? ) $body:block
    )*) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config: $crate::ProptestConfig = $cfg;
                $crate::run_cases(stringify!($name), config, |__proptest_rng| {
                    $(let $arg = $crate::Strategy::sample(&($strat), __proptest_rng);)*
                    let __proptest_result: ::std::result::Result<(), $crate::TestCaseError> =
                        (|| { $body ::std::result::Result::Ok(()) })();
                    __proptest_result
                });
            }
        )*
    };
    ($($rest:tt)*) => {
        $crate::proptest!(@cfg ($crate::ProptestConfig::default()); $($rest)*);
    };
}

/// Fail the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)));
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)+)));
        }
    };
}

/// Fail the current case unless `a == b`.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a == b,
            "assertion failed: `{} == {}` ({:?} vs {:?})",
            stringify!($a),
            stringify!($b),
            a,
            b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)+) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, $($fmt)+);
    }};
}

/// Fail the current case unless `a != b`.
#[macro_export]
macro_rules! prop_assert_ne {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a != b,
            "assertion failed: `{} != {}` (both {:?})",
            stringify!($a),
            stringify!($b),
            a
        );
    }};
}

/// Reject the current case (it does not count toward the case budget)
/// unless `cond` holds.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::reject(stringify!($cond)));
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    #[test]
    fn ranges_respect_bounds() {
        let mut rng = crate::TestRng::new(1);
        for _ in 0..1000 {
            let v = (10u32..20).sample(&mut rng);
            assert!((10..20).contains(&v));
            let f = (-2.0f64..3.0).sample(&mut rng);
            assert!((-2.0..3.0).contains(&f));
            let i = (1u8..=255).sample(&mut rng);
            assert!(i >= 1);
        }
    }

    #[test]
    fn vec_strategy_sizes() {
        let mut rng = crate::TestRng::new(2);
        for _ in 0..100 {
            let v = collection::vec(any::<u8>(), 3..7).sample(&mut rng);
            assert!((3..7).contains(&v.len()));
        }
    }

    proptest! {
        #[test]
        fn macro_smoke(x in 0.0f64..1.0, n in 1u32..10, flag in any::<bool>()) {
            prop_assert!((0.0..1.0).contains(&x));
            prop_assert!((1..10).contains(&n));
            let _ = flag;
            prop_assert_eq!(n, n);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        #[test]
        fn config_and_assume(x in 0u64..100) {
            prop_assume!(x % 2 == 0);
            prop_assert!(x % 2 == 0);
        }
    }

    #[test]
    #[should_panic(expected = "case")]
    fn failing_property_panics() {
        crate::run_cases("always_fails", ProptestConfig::with_cases(4), |_| {
            Err(TestCaseError::fail("nope"))
        });
    }
}
