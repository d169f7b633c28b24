//! Summary statistics with the benchmark's reporting rules: medians,
//! a tail percentile only where at least ten samples lie beyond it, and
//! ratios that always carry their base.

/// Samples that must lie beyond a percentile before it is reported.
pub const TAIL_BEYOND: usize = 10;

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle samples when `xs` has even length.
/// `NaN` for no samples, which the report refuses to print.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// A nearest-rank percentile and how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub pct: f64,
    pub value: f64,
    pub beyond: usize,
}

/// Nearest-rank `pct`-th percentile: the sample at 1-based rank
/// `ceil(pct/100 · n)`, with the samples ranked above it counted as
/// beyond it.
pub fn percentile(xs: &[f64], pct: f64) -> Option<Percentile> {
    let v = sorted(xs);
    let n = v.len();
    if n == 0 || !(0.0..=100.0).contains(&pct) {
        return None;
    }
    let rank = ((pct / 100.0 * n as f64).ceil() as usize).clamp(1, n);
    Some(Percentile { pct, value: v[rank - 1], beyond: n - rank })
}

/// `pct`-th percentile, only if at least [`TAIL_BEYOND`] samples lie
/// beyond it.
pub fn valid_percentile(xs: &[f64], pct: f64) -> Option<Percentile> {
    percentile(xs, pct).filter(|p| p.beyond >= TAIL_BEYOND)
}

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: the sample at rank `n - 10`, reported as percentile
/// `100 · (n - 10) / n`. `None` below 11 samples.
pub fn tail(xs: &[f64]) -> Option<Percentile> {
    let n = xs.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let rank = n - TAIL_BEYOND;
    let v = sorted(xs);
    Some(Percentile {
        pct: 100.0 * rank as f64 / n as f64,
        value: v[rank - 1],
        beyond: TAIL_BEYOND,
    })
}

/// A ratio kept together with its numerator and denominator, so every
/// printed ratio shows its base.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    pub num: f64,
    pub den: f64,
}

impl Ratio {
    pub fn new(num: f64, den: f64) -> Self {
        Ratio { num, den }
    }

    /// `num / den`; `NaN` for a zero base, which the report refuses.
    pub fn value(&self) -> f64 {
        if self.den == 0.0 {
            f64::NAN
        } else {
            self.num / self.den
        }
    }

    /// How the ratio is printed: value, then its base.
    pub fn describe(&self, num_label: &str, den_label: &str) -> String {
        format!("{:.4} = {num_label} {} / {den_label} {}", self.value(), self.num, self.den)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn tail_is_highest_percentile_with_ten_beyond() {
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&xs).unwrap();
        assert_eq!(t.beyond, 10);
        assert_eq!(t.value, 990.0);
        assert_eq!(t.pct, 99.0);
        // p99 of 1000 samples has exactly ten beyond it; of 999, nine.
        assert_eq!(valid_percentile(&xs, 99.0).unwrap().value, 990.0);
        assert!(valid_percentile(&xs[..999], 99.0).is_none());
    }

    #[test]
    fn tail_needs_eleven_samples() {
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert!(tail(&xs[..10]).is_none());
        let t = tail(&xs).unwrap();
        assert_eq!((t.value, t.beyond), (1.0, 10));
        let ys: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&ys).unwrap();
        assert_eq!((t.value, t.pct), (30.0, 75.0));
    }

    #[test]
    fn percentile_counts_samples_beyond() {
        let xs: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        let p = percentile(&xs, 50.0).unwrap();
        assert_eq!((p.value, p.beyond), (10.0, 10));
        assert_eq!(percentile(&xs, 100.0).unwrap().beyond, 0);
        assert!(percentile(&xs, 101.0).is_none());
    }

    #[test]
    fn ratio_reports_its_base() {
        let r = Ratio::new(3.0, 4.0);
        assert_eq!(r.value(), 0.75);
        assert_eq!(r.describe("hits", "lookups"), "0.7500 = hits 3 / lookups 4");
        assert!(Ratio::new(1.0, 0.0).value().is_nan());
    }
}
