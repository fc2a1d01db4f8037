//! The benchmark's own seeded generator.
//!
//! Inputs must depend on `--seed` alone, never on code under test, so
//! the op streams do not use the repository's `rand` stand-in: a later
//! change to it would silently change what the benchmark measures.

/// SplitMix64: tiny, well distributed, and every seed (0 included) is a
/// valid state.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one named purpose (`"pool"`,
    /// `"conn1"`, …), so adding a consumer never shifts another's draws.
    pub fn fork(seed: u64, purpose: &str) -> Rng {
        // FNV-1a over the label, mixed into the seed.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in purpose.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut r = Rng(seed ^ h);
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be non-zero.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.unit() * (hi - lo)
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup: rank `k` is drawn
/// with probability proportional to `1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        assert!(n > 0, "Zipf over an empty pool");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let draw = |seed| {
            let mut r = Rng::fork(seed, "ops");
            let z = Zipf::new(256, 1.0);
            (0..64).map(|_| z.sample(&mut r)).collect::<Vec<_>>()
        };
        assert_eq!(draw(42), draw(42));
        assert_ne!(draw(42), draw(7));
    }

    #[test]
    fn forks_are_independent_of_each_other() {
        let a = Rng::fork(42, "pool").next_u64();
        let b = Rng::fork(42, "ops").next_u64();
        assert_ne!(a, b);
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let z = Zipf::new(100, 1.0);
        let mut r = Rng(1);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[9] && counts[9] > counts[99]);
        // Rank 0 carries 1/H(100) ≈ 19 % of the mass.
        let share = counts[0] as f64 / 20_000.0;
        assert!((0.16..0.23).contains(&share), "rank-0 share {share}");
    }

    #[test]
    fn below_and_range_respect_their_bounds() {
        let mut r = Rng(9);
        for _ in 0..1000 {
            assert!(r.below(7) < 7);
            let x = r.range(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
        }
    }
}
