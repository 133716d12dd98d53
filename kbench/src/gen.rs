//! Seeded input generation: a splitmix64 stream and self-checking
//! payload patterns.
//!
//! The benchmark owns its generator instead of borrowing the program's
//! `Pcg`, so a change to the program's RNG cannot change the inputs.

/// splitmix64: tiny, fast, and good enough for workload shaping.
pub struct Rng(u64);

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 finaliser: a bijective 64-bit mix.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// An independent stream for `(seed, stream)`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(mix(seed ^ mix(stream.wrapping_add(GOLDEN))))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Shuffles `v` uniformly (Fisher–Yates).
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// Exponentially distributed gap with the given mean, in ns.
    pub fn exp_ns(&mut self, mean_ns: f64) -> u64 {
        (-(1.0 - self.unit()).ln() * mean_ns) as u64
    }
}

/// Word `i` of the pattern keyed by `key`.
fn word(key: u64, i: usize) -> u64 {
    key.wrapping_add((i as u64).wrapping_mul(GOLDEN))
}

/// Fills `buf` with the pattern keyed by `key`.
pub fn fill(buf: &mut [u8], key: u64) {
    let mut chunks = buf.chunks_exact_mut(8);
    for (i, c) in chunks.by_ref().enumerate() {
        c.copy_from_slice(&word(key, i).to_le_bytes());
    }
    let n = buf.len() / 8;
    let tail = buf.len() % 8;
    let last = word(key, n).to_le_bytes();
    buf[n * 8..].copy_from_slice(&last[..tail]);
}

/// Whether `buf` holds exactly the pattern keyed by `key`.
pub fn matches(buf: &[u8], key: u64) -> bool {
    let mut chunks = buf.chunks_exact(8);
    for (i, c) in chunks.by_ref().enumerate() {
        if c != word(key, i).to_le_bytes() {
            return false;
        }
    }
    let n = buf.len() / 8;
    chunks.remainder() == &word(key, n).to_le_bytes()[..buf.len() % 8]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pattern_round_trips_and_detects_corruption() {
        for len in [0, 7, 8, 64, 4096, 16387] {
            let mut p = vec![0u8; len];
            fill(&mut p, 42);
            assert!(matches(&p, 42));
            if len > 0 {
                assert!(!matches(&p, 43));
                p[len / 2] ^= 1;
                assert!(!matches(&p, 42));
            }
        }
    }

    #[test]
    fn streams_are_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(1, 2).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(1, 2).next_u64(), Rng::new(1, 3).next_u64());
        assert_ne!(Rng::new(1, 2).next_u64(), Rng::new(2, 2).next_u64());
    }
}
