//! Order statistics and the seeded input permutation.

/// Median of a non-empty sample (mean of the two middle values when the
/// count is even).
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Smallest value of a non-empty sample.
pub fn min(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "minimum of an empty sample");
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Nearest-rank percentile `p` (0–100] of a non-empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Percentiles a tail metric may report, highest first.
pub const TAIL_LADDER: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0];

/// The highest ladder percentile with at least ten runs beyond it among
/// `runs` — fixed by the input set's size, so every run of a workload
/// reports the same percentile. Below 20 runs no percentile from the
/// median up qualifies, and the tail is the slowest run (100).
pub fn tail_percentile(runs: usize) -> f64 {
    TAIL_LADDER
        .into_iter()
        .find(|p| runs as f64 * (1.0 - p / 100.0) >= 10.0)
        .unwrap_or(100.0)
}

/// SplitMix64 of `a` keyed by `b`: the benchmark's one source of derived
/// seeds, so a workload seed fixes every generated input.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fisher–Yates shuffle driven by [`mix`] — the seeded run order.
pub fn shuffle<T>(v: &mut [T], seed: u64) {
    for i in (1..v.len()).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 99.0), 99.0);
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(tail_percentile(3499), 99.5);
        assert_eq!(tail_percentile(454), 95.0);
        assert_eq!(tail_percentile(600), 98.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(16), 100.0);
    }

    #[test]
    fn shuffles_are_seeded_permutations() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        assert_eq!(a, b);
        let mut c: Vec<u32> = (0..50).collect();
        shuffle(&mut c, 8);
        assert_ne!(a, c);
        c.sort_unstable();
        assert_eq!(c, (0..50).collect::<Vec<u32>>());
    }
}
