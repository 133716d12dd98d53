//! Exact order statistics over the benchmark's own samples, and the
//! process's memory high-water mark.

/// Exact quantiles of a sample set (nearest rank on a sorted copy).
pub struct Quantile(Vec<u64>);

impl Quantile {
    pub fn new(samples: &[u64]) -> Quantile {
        let mut v = samples.to_vec();
        v.sort_unstable();
        Quantile(v)
    }

    /// Index of the `q`-quantile: the smallest rank covering a share
    /// `q` of the samples.
    fn rank(&self, q: f64) -> usize {
        ((q * self.0.len() as f64).ceil() as usize).clamp(1, self.0.len().max(1)) - 1
    }

    /// The `q`-quantile, or 0 without samples.
    pub fn at(&self, q: f64) -> u64 {
        self.0.get(self.rank(q)).copied().unwrap_or(0)
    }

    /// Samples strictly above the `q`-quantile's rank.
    pub fn beyond(&self, q: f64) -> usize {
        self.0.len().saturating_sub(self.rank(q) + 1)
    }
}

/// Median of `v` (mean of the middle pair for even counts), 0 if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The process's resident-set high-water mark (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM is reported");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let q = Quantile::new(&(1..=1000).rev().collect::<Vec<u64>>());
        assert_eq!(q.at(0.5), 500);
        assert_eq!(q.at(0.99), 990);
        assert_eq!(q.at(0.999), 999);
        assert_eq!(q.beyond(0.99), 10);
        assert_eq!(q.beyond(0.999), 1);
        assert_eq!(Quantile::new(&[]).at(0.5), 0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
