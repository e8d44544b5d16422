//! Order statistics and the virtual-outcome digest.

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let s = sorted(values);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// First and third quartiles by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method),
/// so the spread printed here matches the one the acceptance check computes.
/// Needs at least two values.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let s = sorted(values);
    let n = s.len() as f64;
    let at = |q: f64| {
        // Position of the q-quantile on the 1-based ranks 1..=n, clamped
        // to the data as Python clamps it.
        let pos = (q * (n + 1.0)).clamp(1.0, n);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        let hi = (lo + 1).min(s.len());
        s[lo - 1] + frac * (s[hi - 1] - s[lo - 1])
    };
    (at(0.25), at(0.75))
}

/// The tail rule: the highest whole percentile of `values` that still has
/// at least ten samples strictly above it in rank order. Returns
/// `(percentile, value)`, or `None` with fewer than eleven samples.
/// Percentile `p` is the nearest-rank value: the `ceil(p/100 · n)`-th
/// smallest sample.
pub fn tail(values: &[f64]) -> Option<(u32, f64)> {
    const BEYOND: usize = 10;
    let s = sorted(values);
    let n = s.len();
    if n <= BEYOND {
        return None;
    }
    (1..=100u32).rev().find_map(|p| {
        let rank = (p as usize * n).div_ceil(100).max(1);
        (n - rank >= BEYOND).then(|| (p, s[rank - 1]))
    })
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// FNV-1a over the virtual outcomes of a pass, in operation order.
/// Bit-level: two runs share a digest only if every duration bit, message
/// count, byte count and iteration count matched.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    pub fn push(&mut self, word: u64) {
        for b in word.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// `x` rounded to `digits` significant decimal digits, as text.
pub fn sig_digits(x: f64, digits: usize) -> String {
    format!("{:.*e}", digits.saturating_sub(1), x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), (1.5, 4.5));
        // Two samples clamp to the data: [1.0, 2.0] -> [1.0, 1.5, 2.0]
        assert_eq!(quartiles(&[1.0, 2.0]), (1.0, 2.0));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        // 11 samples: only the smallest has ten beyond it; p9 is the
        // highest percentile whose nearest rank is 1.
        let v: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail(&v), Some((9, 1.0)));
        // 100 samples: p90 is the 90th value, ten values lie above it.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), Some((90, 90.0)));
        // 1000 samples: p99 has exactly ten above it.
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(tail(&v), Some((99, 990.0)));
    }

    #[test]
    fn digest_is_order_sensitive_and_stable() {
        let mut a = Digest::default();
        a.push(1);
        a.push(2);
        let mut b = Digest::default();
        b.push(2);
        b.push(1);
        assert_ne!(a, b);
        // Pinned value (FNV-1a 64 over the little-endian bytes of 1 then
        // 2): a change to the hash would silently break every digest
        // comparison against earlier runs.
        assert_eq!(a.hex(), "7717980363c8e066");
    }

    #[test]
    fn sig_digits_rounds() {
        assert_eq!(sig_digits(0.762369123, 6), "7.62369e-1");
        assert_eq!(sig_digits(12345678.0, 6), "1.23457e7");
    }
}
