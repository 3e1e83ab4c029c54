//! Host-speed calibration: every timed operation is paired with a run of
//! a fixed calibration kernel taken right before it, and reported in
//! *calibrated seconds* — its measured duration scaled by
//! `REFERENCE_S / kernel duration`, i.e. the time it would have taken on
//! this host while the kernel runs in exactly `REFERENCE_S`.
//!
//! Why: a shared 2-vCPU host (2.0 GHz Xeon, neighbours on the same
//! machine) drifts between speeds for seconds to minutes at a time, and
//! the drift is in the caches, memory, branch predictors and execution
//! units the neighbours share, not in the clock. In six 12-second runs a few seconds apart, timing each
//! operation beside candidate kernels, the medians of a dense 8×8 window
//! ranged over 26.5–39.0 ms raw, a 4×4 fault window over 17.2–29.0 ms
//! and a `mapping_suite` call over 47.7–76.0 ms. Their ratios to a pure
//! ALU loop spread about as much as raw time (the ALU loop barely slows);
//! to one 8 MiB random-access loop, ±6%, ±11% and ±11%; to random access
//! over 2 and 8 MiB plus `HashMap` and `BTreeMap` updates and a sort,
//! ±2.7%, ±7.6% and ±6%. That mix still missed the serve daemon's hot
//! path (a compute-bound mapping search: 9–14% spread over ten runs), so
//! the kernel also runs a small permutation hill-climb, which brought
//! `serve_session`'s latencies to 3–4%. The kernel is the benchmark's
//! own code, so a change to the simulator never moves it.

use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::time::Instant;

/// Keys in each calibration map (filled at construction, so the
/// kernel's footprint is fixed).
const MAP_KEYS: u64 = 1 << 16;
/// Kernel runs one reading takes the median of.
const READING_RUNS: usize = 5;
/// The kernel duration calibrated seconds are normalized to (about one
/// kernel run on a 2 GHz Xeon with the host quiet).
pub const REFERENCE_S: f64 = 0.0075;

/// The calibration kernel and its latest reading.
#[derive(Debug)]
pub struct Clock {
    small: Vec<u64>,
    large: Vec<u64>,
    hash: HashMap<u64, u64>,
    tree: BTreeMap<u64, u64>,
    state: u64,
    reading: f64,
    /// Every kernel duration measured, in seconds.
    pub kernel: Vec<f64>,
}

impl Default for Clock {
    fn default() -> Self {
        let mut clock = Self {
            // 2 MiB fits a core's L2; 8 MiB is twice it.
            small: vec![1; (2 << 20) / 8],
            large: vec![1; (8 << 20) / 8],
            hash: (0..MAP_KEYS).map(|k| (k, k)).collect(),
            tree: (0..MAP_KEYS).map(|k| (k, k)).collect(),
            state: 0x9E37_79B9_7F4A_7C15,
            reading: REFERENCE_S,
            kernel: Vec::new(),
        };
        clock.calibrate();
        clock
    }
}

impl Clock {
    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// Random read-modify-writes over `buf`.
    fn scatter(&mut self, large: bool, accesses: u64) -> u64 {
        let mut acc = 0u64;
        for _ in 0..accesses {
            let x = self.next();
            let buf = if large {
                &mut self.large
            } else {
                &mut self.small
            };
            let i = (x % buf.len() as u64) as usize;
            acc = acc.wrapping_add(buf[i]);
            buf[i] = acc ^ x;
        }
        acc
    }

    /// Swap-and-score iterations over a 64-node ring permutation: small,
    /// branchy, compute-bound work like a mapping search.
    fn hill_climb(&mut self, iterations: u64) -> u64 {
        let mut perm: [u8; 64] = std::array::from_fn(|i| i as u8);
        let score = |p: &[u8; 64]| -> u64 {
            (0..64)
                .map(|i| {
                    let d = p[i].abs_diff(p[(i + 1) % 64]);
                    u64::from(d.min(64 - d))
                })
                .sum()
        };
        let mut best = score(&perm);
        for _ in 0..iterations {
            let x = self.next();
            let (a, b) = ((x % 64) as usize, ((x >> 8) % 64) as usize);
            perm.swap(a, b);
            let s = score(&perm);
            if s > best {
                best = s;
            } else {
                perm.swap(a, b);
            }
        }
        best
    }

    /// One kernel run, recorded in [`Clock::kernel`].
    fn kernel_once(&mut self) {
        let start = Instant::now();
        let mut acc = self.scatter(false, 60_000);
        acc ^= self.scatter(true, 100_000);
        for _ in 0..40_000 {
            let x = self.next();
            if let Some(v) = self.hash.get_mut(&(x % MAP_KEYS)) {
                *v ^= x;
                acc = acc.wrapping_add(*v);
            }
        }
        for _ in 0..20_000 {
            let x = self.next();
            if let Some(v) = self.tree.get_mut(&(x % MAP_KEYS)) {
                *v ^= x;
                acc = acc.wrapping_add(*v);
            }
        }
        acc ^= self.hill_climb(15_000);
        let mut keys: Vec<u32> = (0..40_000).map(|_| self.next() as u32).collect();
        keys.sort_unstable();
        acc ^= u64::from(keys[keys.len() / 2]);
        black_box(acc);
        self.kernel.push(start.elapsed().as_secs_f64());
    }

    /// Runs the kernel once and takes a fresh reading: the median of the
    /// last [`READING_RUNS`] kernel runs, which follows the host's drift
    /// (seconds or longer) without one run's noise.
    pub fn calibrate(&mut self) {
        self.kernel_once();
        let recent = &self.kernel[self.kernel.len().saturating_sub(READING_RUNS)..];
        self.reading = crate::stats::median(recent).expect("at least one kernel run");
    }

    /// Runs `f` and returns its output, its raw duration and its
    /// calibrated duration (seconds) against the latest reading.
    pub fn time<R>(&self, f: impl FnOnce() -> R) -> (R, f64, f64) {
        let start = Instant::now();
        let out = f();
        let raw = start.elapsed().as_secs_f64();
        (out, raw, self.calibrated(raw))
    }

    /// `raw` seconds expressed in calibrated seconds.
    pub fn calibrated(&self, raw: f64) -> f64 {
        raw * REFERENCE_S / self.reading
    }
}
