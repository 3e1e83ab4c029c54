//! A small deterministic pseudo-random number generator.
//!
//! The workspace is built to compile with no external dependencies, so
//! every component that needs reproducible randomness — the fault plan,
//! the open-loop traffic source, the thread-mapping generators, the
//! randomized tests — shares this SplitMix64 generator. It is *not*
//! cryptographic; it is fast, has a 64-bit state, passes the statistical
//! bar a simulator needs, and — crucially — produces identical streams
//! on every platform for a given seed.

/// A seedable SplitMix64 generator.
///
/// # Examples
///
/// ```
/// use commloc_net::DetRng;
///
/// let mut a = DetRng::new(42);
/// let mut b = DetRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetRng {
    state: u64,
}

impl DetRng {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn new(seed: u64) -> Self {
        // Avoid the all-zeros fixed point of a raw counter start by mixing
        // the seed once.
        let mut rng = Self { state: seed };
        let _ = rng.next_u64();
        rng
    }

    /// The next 64 uniformly distributed bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform float in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 top bits -> [0, 1) with full double precision.
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform index in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn index(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "empty range");
        // Multiply-shift rejection-free mapping; bias is negligible for
        // the simulator's bounds (far below 2^32).
        ((self.next_u64() as u128 * bound as u128) >> 64) as usize
    }

    /// A uniform value in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the range is empty.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty range");
        lo + ((self.next_u64() as u128 * (hi - lo) as u128) >> 64) as u64
    }

    /// A uniform float in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.index(i + 1);
            slice.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = DetRng::new(7);
            (0..16).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = DetRng::new(7);
            (0..16).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c = DetRng::new(8).next_u64();
        assert_ne!(a[0], c);
    }

    #[test]
    fn floats_land_in_unit_interval() {
        let mut r = DetRng::new(1);
        for _ in 0..1000 {
            let f = r.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn index_respects_bound() {
        let mut r = DetRng::new(3);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[r.index(5)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values reachable");
    }

    #[test]
    fn chance_tracks_probability() {
        let mut r = DetRng::new(9);
        let hits = (0..10_000).filter(|_| r.chance(0.25)).count();
        assert!((2200..2800).contains(&hits), "hits = {hits}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut r = DetRng::new(4);
        let mut v: Vec<usize> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(v, (0..50).collect::<Vec<_>>(), "shuffle moved something");
    }
}
