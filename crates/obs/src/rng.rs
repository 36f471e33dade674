//! The workspace's one pseudo-random generator, SplitMix64 (Steele,
//! Lea & Flood, OOPSLA 2014; the seeding generator of
//! `java.util.SplittableRandom` and of xoshiro): one `u64` of state,
//! two multiplications per draw, full 2^64 period, reproducible and
//! well-mixed. It draws the corpus, fuzz and load generators, the chaos
//! fault sets and the serve client's retry jitter, and lives beside
//! [`fnv1a`](crate::fnv1a) in the dependency-free root so every crate
//! can reach it.

use std::ops::Range;

/// SplitMix64: a 64-bit state advanced by a Weyl sequence and finalized
/// with an avalanche mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// The Weyl increment each draw adds to the state (the golden
    /// ratio in 64-bit fixed point). A generator seeded `k * GAMMA` past
    /// another is that one advanced by `k` draws.
    pub const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

    /// Creates a generator from a 64-bit seed. Identical seeds produce
    /// identical streams; nearby seeds produce uncorrelated streams
    /// (the finalizer avalanches every input bit).
    pub fn seed_from_u64(seed: u64) -> SplitMix64 {
        SplitMix64 { state: seed }
    }

    /// The next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(Self::GAMMA);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform draw from a half-open range, e.g. `rng.random_range(0..n)`
    /// or `rng.random_range(0.0..1.0)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn random_range<R: SampleRange>(&mut self, range: R) -> R::Output {
        range.sample(self)
    }
}

/// Ranges [`SplitMix64::random_range`] can sample from.
pub trait SampleRange {
    /// The sampled value's type.
    type Output;
    /// Draws one uniform value from the range.
    fn sample(self, rng: &mut SplitMix64) -> Self::Output;
}

impl SampleRange for Range<usize> {
    type Output = usize;
    fn sample(self, rng: &mut SplitMix64) -> usize {
        assert!(self.start < self.end, "empty range");
        let span = (self.end - self.start) as u64;
        // Multiply-shift range reduction (Lemire); the corpus draws from
        // tiny ranges, so the negligible bias of the plain product is fine.
        let hi = ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64;
        self.start + hi as usize
    }
}

impl SampleRange for Range<u64> {
    type Output = u64;
    fn sample(self, rng: &mut SplitMix64) -> u64 {
        assert!(self.start < self.end, "empty range");
        let span = self.end - self.start;
        let hi = ((u128::from(rng.next_u64()) * u128::from(span)) >> 64) as u64;
        self.start + hi
    }
}

impl SampleRange for Range<f64> {
    type Output = f64;
    fn sample(self, rng: &mut SplitMix64) -> f64 {
        assert!(self.start < self.end, "empty range");
        // 53 uniform mantissa bits in [0, 1).
        let unit = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
        self.start + unit * (self.end - self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SplitMix64::seed_from_u64(42);
        let mut b = SplitMix64::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn known_splitmix64_vector() {
        // Reference outputs for seed 1234567 from the published
        // SplitMix64 test vectors.
        let mut rng = SplitMix64::seed_from_u64(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
        // The chaos fault sets and every seeded corpus are draws from
        // this stream; a changed generator changes all of them.
        let mut rng = SplitMix64::seed_from_u64(0);
        assert_eq!(rng.next_u64(), 0xE220_A839_7B1D_CDAF);
        assert_eq!(rng.next_u64(), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(rng.next_u64(), 0x06C4_5D18_8009_454F);
    }

    #[test]
    fn usize_range_stays_in_bounds() {
        let mut rng = SplitMix64::seed_from_u64(7);
        let mut seen = [false; 5];
        for _ in 0..200 {
            let v = rng.random_range(2..7usize);
            assert!((2..7).contains(&v));
            seen[v - 2] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of a small range appear");
    }

    #[test]
    fn f64_range_stays_in_bounds_and_spreads() {
        let mut rng = SplitMix64::seed_from_u64(9);
        let mut below = 0;
        for _ in 0..1000 {
            let v = rng.random_range(0.0..1.0);
            assert!((0.0..1.0).contains(&v));
            if v < 0.5 {
                below += 1;
            }
        }
        assert!((300..700).contains(&below), "median badly off: {below}/1000");
    }

    #[test]
    fn zero_seed_is_not_degenerate() {
        let mut rng = SplitMix64::seed_from_u64(0);
        let a = rng.next_u64();
        let b = rng.next_u64();
        assert_ne!(a, 0);
        assert_ne!(a, b);
    }
}
