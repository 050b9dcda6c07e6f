//! Deterministic, splittable random number generation.
//!
//! Every stochastic component in the workspace is seeded explicitly so that
//! any experiment can be replayed exactly. The generator is `xoshiro256**`
//! (Blackman & Vigna), seeded through SplitMix64 as its authors recommend.
//! Parallel work (parallel sweeps, per-tree bootstraps) never shares a
//! generator: [`seed_stream`] derives independent child seeds instead.

/// SplitMix64 step — used both to expand seeds and to derive child seeds.
#[inline]
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derive the `index`-th independent child seed from a parent seed.
///
/// Used to hand each parallel task (a `simcore::par` job, a forest tree, a
/// simulated server) its own generator without any cross-task coupling.
#[inline]
pub fn seed_stream(parent: u64, index: u64) -> u64 {
    // Mix the index in with a distinct odd constant before running SplitMix
    // so that (parent, 0) and (parent+1, 0) do not collide with (parent, 1).
    let mut s = parent ^ index.wrapping_mul(0xA076_1D64_78BD_642F);
    let a = splitmix64(&mut s);
    let b = splitmix64(&mut s);
    a ^ b.rotate_left(17)
}

/// `xoshiro256**` pseudo-random generator.
///
/// Small (32 bytes of state), fast, and with a 2^256-1 period — far more than
/// any sweep here needs.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

impl SimRng {
    /// Create a generator from a 64-bit seed (expanded via SplitMix64).
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // xoshiro must not be seeded with all zeros; SplitMix64 of any seed
        // cannot produce four zero outputs in a row, but guard anyway.
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15;
        }
        Self { s }
    }

    /// Derive an independent child generator (see [`seed_stream`]).
    pub fn split(&mut self, index: u64) -> SimRng {
        SimRng::new(seed_stream(self.next_u64_raw(), index))
    }

    /// The raw xoshiro256** state words — read-only, for checkpoint records
    /// that fingerprint "where in its stream" a generator is. Two generators
    /// with equal state produce identical futures.
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    #[inline]
    fn next_u64_raw(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64_raw() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `usize` in `[0, n)`. Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "index range must be non-empty");
        // Multiply-shift bounded generation (Lemire); bias is negligible for
        // the ranges used here (n << 2^64) and determinism is what matters.
        ((self.next_u64_raw() as u128 * n as u128) >> 64) as usize
    }

    /// Bernoulli trial with probability `p` of `true`.
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `[0, n)` (partial Fisher–Yates).
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        let k = k.min(n);
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.index(n - i);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }

    /// Uniform `u64`.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.next_u64_raw()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..100).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams from different seeds should diverge");
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = SimRng::new(7);
        for _ in 0..10_000 {
            let x = rng.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn f64_mean_near_half() {
        let mut rng = SimRng::new(9);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} too far from 0.5");
    }

    #[test]
    fn index_covers_range() {
        let mut rng = SimRng::new(3);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            seen[rng.index(10)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn split_streams_independent() {
        let mut parent = SimRng::new(5);
        let mut c1 = parent.split(0);
        let mut c2 = parent.split(1);
        let same = (0..100).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 2);
    }

    #[test]
    fn seed_stream_distinct_per_index() {
        let seeds: Vec<u64> = (0..100).map(|i| seed_stream(123, i)).collect();
        let mut dedup = seeds.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), seeds.len());
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut rng = SimRng::new(11);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct_and_bounded() {
        let mut rng = SimRng::new(13);
        let sample = rng.sample_indices(100, 20);
        assert_eq!(sample.len(), 20);
        let mut s = sample.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 20);
        assert!(sample.iter().all(|&i| i < 100));
    }

    #[test]
    fn sample_indices_k_larger_than_n() {
        let mut rng = SimRng::new(17);
        let sample = rng.sample_indices(5, 50);
        assert_eq!(sample.len(), 5);
    }

    #[test]
    fn state_fingerprints_stream_position() {
        let mut a = SimRng::new(42);
        let b = SimRng::new(42);
        assert_eq!(a.state(), b.state());
        a.next_u64();
        assert_ne!(a.state(), b.state(), "state advances with the stream");
        // Reading state never perturbs the stream.
        let mut c = SimRng::new(42);
        let _ = c.state();
        let mut d = SimRng::new(42);
        assert_eq!(c.next_u64(), d.next_u64());
    }
}
