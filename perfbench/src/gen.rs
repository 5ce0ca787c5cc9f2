//! Seeded input generators. They live here, not in `bess-bench`'s workload
//! module or `third_party/rand`, so that nothing outside the benchmark's
//! own directory can change the inputs a seed produces.

/// xoshiro256** seeded through splitmix64.
#[derive(Clone)]
pub struct Rng([u64; 4]);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        Rng([next(), next(), next(), next()])
    }

    /// An independent stream for `(seed, workload, client)`.
    pub fn stream(seed: u64, workload: &str, client: u64) -> Rng {
        let mut d = Digest::new();
        d.mix(seed);
        d.mix_bytes(workload.as_bytes());
        d.mix(client);
        Rng::new(d.value())
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.0;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be nonzero. The modulo bias is below
    /// 2^-40 for every `n` the workloads use.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn chance(&mut self, percent: u64) -> bool {
        self.below(100) < percent
    }

    /// Log-uniform integer in `[lo, hi]`: every octave is equally likely.
    pub fn log_uniform(&mut self, lo: u64, hi: u64) -> u64 {
        log_uniform_at(lo, hi, self.unit())
    }
}

/// The log-uniform distribution over `[lo, hi]` at `u` in `[0, 1)` of its
/// cumulative distribution.
pub fn log_uniform_at(lo: u64, hi: u64, u: f64) -> u64 {
    let (l, h) = ((lo as f64).ln(), (hi as f64 + 1.0).ln());
    let v = (l + u * (h - l)).exp() as u64;
    v.clamp(lo, hi)
}

/// Zipf-distributed indices over `[0, n)` with skew `theta`, by inverting
/// the exact cumulative distribution.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        let mut cdf: Vec<f64> = (1..=n).map(|i| (i as f64).powf(-theta)).collect();
        let total: f64 = cdf.iter().sum();
        let mut acc = 0.0;
        for w in &mut cdf {
            acc += *w / total;
            *w = acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// A fixed pseudo-random permutation of `[0, n)`, so that the hot end of a
/// zipf distribution is scattered over the key space instead of sitting on
/// the first pages.
pub fn permutation(n: usize, rng: &mut Rng) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    for i in (1..n).rev() {
        p.swap(i, rng.below(i as u64 + 1) as usize);
    }
    p
}

/// FNV-1a over generated inputs. Two runs with the same seed print the
/// same digest whatever the thread interleaving was.
#[derive(Clone, Copy)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Digest {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn mix(&mut self, v: u64) {
        self.mix_bytes(&v.to_le_bytes());
    }

    pub fn mix_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_streams_differ() {
        let mut a = Rng::stream(7, "w", 0);
        let mut b = Rng::stream(7, "w", 0);
        let mut c = Rng::stream(7, "w", 1);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert_eq!(xs, (0..8).map(|_| b.next_u64()).collect::<Vec<_>>());
        assert_ne!(xs, (0..8).map(|_| c.next_u64()).collect::<Vec<_>>());
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = Rng::new(42);
        let mut top10 = 0;
        for _ in 0..10_000 {
            let s = z.sample(&mut rng);
            assert!(s < 1000);
            top10 += usize::from(s < 10);
        }
        assert!((3000..5000).contains(&top10), "top-10 drew {top10}/10000");
    }

    #[test]
    fn log_uniform_covers_every_octave() {
        let mut rng = Rng::new(1);
        let mut octaves = [0u32; 9];
        for _ in 0..9000 {
            let v = rng.log_uniform(4096, 1 << 20);
            assert!((4096..=1 << 20).contains(&v));
            octaves[((v / 4096).ilog2() as usize).min(8)] += 1;
        }
        assert!(octaves[..8].iter().all(|&c| c > 800), "{octaves:?}");
    }

    #[test]
    fn permutation_is_one() {
        let mut p = permutation(1000, &mut Rng::new(3));
        p.sort_unstable();
        assert!(p.iter().enumerate().all(|(i, &v)| i as u32 == v));
    }
}
