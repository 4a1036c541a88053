//! Deterministic, site-indexed parallel random numbers.
//!
//! Bit-reproducibility across machine decompositions (§4's five-day re-run
//! test) requires that the random number consumed at lattice site *x* be a
//! function of the global site index and the draw count only — never of
//! which node owns the site or of thread scheduling. [`SiteRng`] is a
//! counter-based generator: each (seed, site) pair gets an independent,
//! splittable stream.

/// SplitMix64 finalizer — a strong 64-bit mixing function.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// A deterministic per-site random stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SiteRng {
    key: u64,
    counter: u64,
}

impl SiteRng {
    /// Stream for global site `site` under master seed `seed`.
    pub fn new(seed: u64, site: u64) -> SiteRng {
        SiteRng {
            key: mix(seed ^ mix(site.wrapping_mul(0xA24BAED4963EE407))),
            counter: 0,
        }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let v = mix(self.key ^ mix(self.counter));
        self.counter += 1;
        v
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        // 53 random mantissa bits.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `(0, 1]` — safe as a logarithm argument.
    pub fn uniform_open(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Standard normal via Box–Muller (uses two draws).
    pub fn normal(&mut self) -> f64 {
        let u1 = self.uniform_open();
        let u2 = self.uniform();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic() {
        let mut a = SiteRng::new(42, 7);
        let mut b = SiteRng::new(42, 7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_sites_differ() {
        let mut a = SiteRng::new(42, 7);
        let mut b = SiteRng::new(42, 8);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SiteRng::new(1, 0);
        let mut b = SiteRng::new(2, 0);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_in_range_and_spread() {
        let mut r = SiteRng::new(123, 0);
        let mut sum = 0.0;
        const N: usize = 10_000;
        for _ in 0..N {
            let u = r.uniform();
            assert!((0.0..1.0).contains(&u));
            sum += u;
        }
        let mean = sum / N as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }

    #[test]
    fn uniform_open_never_zero() {
        let mut r = SiteRng::new(55, 0);
        for _ in 0..10_000 {
            assert!(r.uniform_open() > 0.0);
        }
    }

    #[test]
    fn normal_moments() {
        let mut r = SiteRng::new(7, 0);
        const N: usize = 20_000;
        let mut sum = 0.0;
        let mut sq = 0.0;
        for _ in 0..N {
            let x = r.normal();
            sum += x;
            sq += x * x;
        }
        let mean = sum / N as f64;
        let var = sq / N as f64 - mean * mean;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }
}
