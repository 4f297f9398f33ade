//! Offline vendored stand-in for the `rand` crate.
//!
//! The build environment for this repository has no network access to
//! crates.io, so this crate provides the small slice of the `rand` 0.9 API
//! the workspace actually uses: [`rngs::StdRng`], [`SeedableRng::seed_from_u64`],
//! and the [`Rng`] convenience methods `random::<f64>()`, `random::<bool>()`
//! and `random_range(..)`.
//!
//! The generator is xoshiro256++ seeded through SplitMix64 — a different
//! (but statistically excellent) stream than upstream `StdRng` (ChaCha12).
//! Everything in this workspace derives determinism from explicit seeds,
//! not from a particular upstream stream, so the substitution is safe.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::Range;

/// Types constructible from a 64-bit seed.
pub trait SeedableRng: Sized {
    /// Create a generator from a 64-bit seed.
    fn seed_from_u64(seed: u64) -> Self;
}

/// Sampling interface for random generators.
pub trait Rng: RngCore {
    /// Sample a value of type `T` from its standard distribution
    /// (`f64` uniform in `[0, 1)`, `bool` fair coin, integers uniform
    /// over their full range).
    fn random<T: StandardUniform>(&mut self) -> T {
        T::sample(self)
    }

    /// Sample uniformly from a half-open range.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    fn random_range<T: UniformSampled>(&mut self, range: Range<T>) -> T {
        T::sample_range(self, range)
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// The raw 64-bit word source behind [`Rng`].
pub trait RngCore {
    /// The next 64 uniformly random bits.
    fn next_u64(&mut self) -> u64;
}

/// Types with a standard (full-range / unit-interval) distribution.
pub trait StandardUniform: Sized {
    /// Draw one sample from `rng`.
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl StandardUniform for f64 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        // 53 uniform mantissa bits in [0, 1), as upstream rand does.
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl StandardUniform for f32 {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        (rng.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }
}

impl StandardUniform for bool {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
        rng.next_u64() >> 63 == 1
    }
}

macro_rules! impl_standard_int {
    ($($t:ty),*) => {$(
        impl StandardUniform for $t {
            fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self {
                rng.next_u64() as $t
            }
        }
    )*};
}
impl_standard_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

/// Types samplable uniformly from a `Range`.
pub trait UniformSampled: Sized {
    /// Draw one sample from `range` using `rng`.
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self;
}

macro_rules! impl_uniform_int {
    ($($t:ty),*) => {$(
        impl UniformSampled for $t {
            fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
                assert!(range.start < range.end, "cannot sample empty range");
                let span = (range.end as i128 - range.start as i128) as u128;
                // Lemire's multiply-shift map: unbiased enough for
                // simulation work, and branch-free.
                let v = ((rng.next_u64() as u128 * span) >> 64) as i128;
                (range.start as i128 + v) as $t
            }
        }
    )*};
}
impl_uniform_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl UniformSampled for f64 {
    fn sample_range<R: RngCore + ?Sized>(rng: &mut R, range: Range<Self>) -> Self {
        assert!(range.start < range.end, "cannot sample empty range");
        range.start + (range.end - range.start) * f64::sample(rng)
    }
}

/// SplitMix64 — used to expand one 64-bit seed into generator state.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Concrete generators.
pub mod rngs {
    use super::{splitmix64, RngCore, SeedableRng};

    /// The workspace's standard generator: xoshiro256++.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct StdRng {
        s: [u64; 4],
    }

    impl SeedableRng for StdRng {
        fn seed_from_u64(seed: u64) -> Self {
            let mut sm = seed;
            let mut s = [0u64; 4];
            for w in &mut s {
                *w = splitmix64(&mut sm);
            }
            // A zero state would be a fixed point; SplitMix64 cannot emit
            // four zeros in a row, but keep the guard for clarity.
            if s == [0; 4] {
                s[0] = 0x9E37_79B9_7F4A_7C15;
            }
            Self { s }
        }
    }

    impl RngCore for StdRng {
        fn next_u64(&mut self) -> u64 {
            let s = &mut self.s;
            let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
            let t = s[1] << 17;
            s[2] ^= s[0];
            s[3] ^= s[1];
            s[1] ^= s[2];
            s[0] ^= s[3];
            s[2] ^= t;
            s[3] = s[3].rotate_left(45);
            result
        }
    }
}

#[cfg(test)]
mod tests {
    use super::rngs::StdRng;
    use super::{Rng, SeedableRng};

    #[test]
    fn seeding_is_deterministic() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..64 {
            assert_eq!(a.random::<f64>(), b.random::<f64>());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StdRng::seed_from_u64(1);
        let mut b = StdRng::seed_from_u64(2);
        let same = (0..64)
            .filter(|_| a.random::<f64>() == b.random::<f64>())
            .count();
        assert!(same < 4);
    }

    #[test]
    fn unit_interval() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let x: f64 = rng.random();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn range_bounds_hold() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut seen = [false; 7];
        for _ in 0..10_000 {
            let i = rng.random_range(0usize..7);
            seen[i] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn bool_is_fair() {
        let mut rng = StdRng::seed_from_u64(11);
        let heads = (0..100_000).filter(|_| rng.random::<bool>()).count();
        assert!((heads as f64 / 1e5 - 0.5).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = rng.random_range(3u32..3);
    }
}
