//! Deterministic pseudo-random number generation.
//!
//! The workspace builds hermetically with no external crates, so the
//! simulator and the property-test harness share this small generator:
//! xoshiro256++ (Blackman & Vigna) seeded through splitmix64, the
//! standard pairing — splitmix64 decorrelates low-entropy seeds
//! (0, 1, 2, …) into well-mixed xoshiro state.
//!
//! The stream is stable across platforms and releases: tests and
//! experiments that record a seed reproduce bit-identical runs.

/// One splitmix64 output for the given state, advancing it.
///
/// Useful on its own for hashing a seed hierarchy (experiment id →
/// trial index → sub-system) into decorrelated child seeds.
pub(crate) fn splitmix64_next(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// xoshiro256++ — a small, fast, high-quality 256-bit PRNG.
///
/// # Example
///
/// ```
/// use hyperear_util::rng::Xoshiro256pp;
///
/// let mut a = Xoshiro256pp::seed_from_u64(42);
/// let mut b = Xoshiro256pp::seed_from_u64(42);
/// assert_eq!(a.next_f64(), b.next_f64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seeds the generator from a 64-bit value via splitmix64.
    #[must_use]
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64_next(&mut sm),
            splitmix64_next(&mut sm),
            splitmix64_next(&mut sm),
            splitmix64_next(&mut sm),
        ];
        Xoshiro256pp { s }
    }

    /// The next 64 uniformly random bits.
    pub(crate) fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
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
    pub fn next_f64(&mut self) -> f64 {
        // Take the top 53 bits — xoshiro's low bits are its weakest.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)` by Lemire-style rejection (unbiased).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn next_below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_below range must be non-empty");
        // Rejection sampling over the largest multiple of n.
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let v = self.next_u64();
            if v < zone {
                return v % n;
            }
        }
    }

    /// Derives an independent child generator by hashing a label into
    /// a fresh seed drawn from this stream (FNV-1a over the label).
    #[must_use]
    pub fn fork(&mut self, label: &str) -> Xoshiro256pp {
        let base = self.next_u64();
        Xoshiro256pp::seed_from_u64(base ^ fnv1a(label))
    }
}

/// FNV-1a hash of a string — stable across platforms, used to mix
/// labels into seed material.
#[must_use]
pub(crate) fn fnv1a(text: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_reference_vectors() {
        // xoshiro256++ with s = [1, 2, 3, 4]: the opening outputs are
        // small enough to verify by hand against the update rule —
        // rotl(1+4, 23)+1 = 41943041, then rotl(7+6·2^45, 23)+7.
        let mut g = Xoshiro256pp { s: [1, 2, 3, 4] };
        assert_eq!(g.next_u64(), 41_943_041);
        assert_eq!(g.next_u64(), 58_720_359);
    }

    #[test]
    fn splitmix_reference_vector() {
        // splitmix64(0) opening outputs from the reference implementation.
        let mut s = 0u64;
        assert_eq!(splitmix64_next(&mut s), 0xe220_a839_7b1d_cdaf);
        assert_eq!(splitmix64_next(&mut s), 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(splitmix64_next(&mut s), 0x06c4_5d18_8009_454f);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Xoshiro256pp::seed_from_u64(7);
        let mut b = Xoshiro256pp::seed_from_u64(7);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut g = Xoshiro256pp::seed_from_u64(3);
        for _ in 0..10_000 {
            let x = g.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_is_in_range_and_hits_all_residues() {
        let mut g = Xoshiro256pp::seed_from_u64(11);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let v = g.next_below(7) as usize;
            assert!(v < 7);
            seen[v] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn next_below_zero_panics() {
        Xoshiro256pp::seed_from_u64(0).next_below(0);
    }

    #[test]
    fn forks_diverge_by_label() {
        let mut a = Xoshiro256pp::seed_from_u64(5);
        let mut b = Xoshiro256pp::seed_from_u64(5);
        let mut fa = a.fork("noise");
        let mut fb = b.fork("imu");
        let same = (0..32).filter(|_| fa.next_u64() == fb.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn uniformity_coarse_chi_square() {
        // 16 buckets, 160k draws: each bucket within 3% of expectation.
        let mut g = Xoshiro256pp::seed_from_u64(2024);
        let mut buckets = [0u32; 16];
        let n = 160_000;
        for _ in 0..n {
            buckets[(g.next_f64() * 16.0) as usize] += 1;
        }
        for b in buckets {
            let frac = f64::from(b) / f64::from(n);
            assert!((frac - 1.0 / 16.0).abs() < 0.003, "bucket fraction {frac}");
        }
    }
}
