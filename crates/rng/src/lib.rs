//! # ads-rng — a small, self-contained, seedable PRNG
//!
//! The workload generators need nothing more from a random source than
//! deterministic replay from a `u64` seed and uniform draws over ranges,
//! so this crate provides exactly that with zero dependencies: a
//! xoshiro256** generator seeded through SplitMix64, with a `gen_range`
//! surface mirroring the subset of `rand` the repository used.
//!
//! Not cryptographic; statistical quality is ample for synthetic data.
//!
//! ```
//! use ads_rng::StdRng;
//! let mut a = StdRng::seed_from_u64(42);
//! let mut b = StdRng::seed_from_u64(42);
//! assert_eq!(a.gen_range(0..1_000_000i64), b.gen_range(0..1_000_000i64));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::ops::{Range, RangeInclusive};

/// A deterministic xoshiro256** generator.
///
/// The name matches the `rand` type it replaces so call sites read the
/// same; the algorithm differs (and so do the streams), which only matters
/// to code asserting on exact generated values — none does.
#[derive(Debug, Clone)]
pub struct StdRng {
    s: [u64; 4],
}

impl StdRng {
    /// Seeds the full 256-bit state from one `u64` via SplitMix64, as the
    /// xoshiro reference implementation recommends.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut next_sm = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        StdRng {
            s: [next_sm(), next_sm(), next_sm(), next_sm()],
        }
    }

    /// The next raw 64-bit output.
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let out = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        out
    }

    /// A uniform draw below `bound` (Lemire's multiply-shift; the bias is
    /// below 2^-64 per draw, immaterial for workload synthesis).
    #[inline]
    fn below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform draw from `range`.
    ///
    /// # Panics
    /// Panics when the range is empty, matching `rand`'s contract.
    #[inline]
    pub fn gen_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }
}

/// Range shapes [`StdRng::gen_range`] accepts.
pub trait SampleRange {
    /// The drawn value's type.
    type Output;
    /// Draws one uniform value from the range.
    fn sample(self, rng: &mut StdRng) -> Self::Output;
}

macro_rules! impl_int_sample {
    ($($t:ty),*) => {$(
        impl SampleRange for Range<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "gen_range on empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + rng.below(span) as i128) as $t
            }
        }
        impl SampleRange for RangeInclusive<$t> {
            type Output = $t;
            #[inline]
            fn sample(self, rng: &mut StdRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "gen_range on empty range");
                let span = (hi as i128 - lo as i128) as u128 + 1;
                if span > u64::MAX as u128 {
                    return rng.next_u64() as $t;
                }
                (lo as i128 + rng.below(span as u64) as i128) as $t
            }
        }
    )*};
}

impl_int_sample!(i32, i64, u32, u64, usize, isize);

impl SampleRange for Range<f64> {
    type Output = f64;
    #[inline]
    fn sample(self, rng: &mut StdRng) -> f64 {
        assert!(self.start < self.end, "gen_range on empty range");
        self.start + (self.end - self.start) * rng.unit_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..32).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = StdRng::seed_from_u64(7);
            (0..32).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut r = StdRng::seed_from_u64(8);
        assert_ne!(a[0], r.next_u64());
    }

    #[test]
    fn ranges_stay_in_bounds() {
        let mut r = StdRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let v = r.gen_range(-50i64..1000);
            assert!((-50..1000).contains(&v));
            let u = r.gen_range(3usize..=7);
            assert!((3..=7).contains(&u));
            let f = r.gen_range(0.25f64..0.75);
            assert!((0.25..0.75).contains(&f));
        }
    }

    #[test]
    fn roughly_uniform() {
        let mut r = StdRng::seed_from_u64(42);
        let n = 100_000;
        let below = (0..n)
            .filter(|_| r.gen_range(0i64..1_000_000) < 500_000)
            .count();
        let frac = below as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.01, "{frac}");
    }

    #[test]
    fn inclusive_hits_endpoints() {
        let mut r = StdRng::seed_from_u64(3);
        let mut seen = [false; 3];
        for _ in 0..1000 {
            seen[r.gen_range(0usize..=2)] = true;
        }
        assert_eq!(seen, [true; 3]);
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        StdRng::seed_from_u64(0).gen_range(5i64..5);
    }
}
