//! Order statistics over measured samples.

/// The `p`-quantile (`0 < p < 1`) of `samples` by the Harrell–Davis
/// estimator: a weighted mean of all order statistics, the `i`-th weighted
/// by the probability that a `Beta(p(n+1), (1-p)(n+1))` variable falls in
/// `[i/n, (i+1)/n)`. Every sample contributes, so the estimate moves less
/// with the noise of the few samples next to the rank than a single order
/// statistic does. Samples too few for the weights (`p(n+1) < 1` or
/// `(1-p)(n+1) < 1`) fall back to linear interpolation between ranks.
/// `NaN` for an empty slice.
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let (a, b) = (p * (n + 1) as f64, (1.0 - p) * (n + 1) as f64);
    if n == 0 || a < 1.0 || b < 1.0 {
        return interpolated(&sorted, p);
    }
    // Beta density up to its constant, scaled to 1 at its mode; the
    // weights are normalised by their sum, so the constant cancels.
    let ln_density = |x: f64| (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln();
    let mode = if a + b > 2.0 {
        (a - 1.0) / (a + b - 2.0)
    } else {
        0.5
    };
    let peak = ln_density(mode.clamp(1e-12, 1.0 - 1e-12));
    let density = |x: f64| {
        if x <= 0.0 || x >= 1.0 {
            0.0
        } else {
            (ln_density(x) - peak).exp()
        }
    };
    // Simpson's rule with `PANELS` panels per order statistic.
    const PANELS: usize = 16;
    let (mut weighted, mut total) = (0.0, 0.0);
    for (i, x) in sorted.iter().enumerate() {
        let lo = i as f64 / n as f64;
        let h = 1.0 / (n * PANELS) as f64;
        let mut w = density(lo) + density(lo + h * PANELS as f64);
        for k in 1..PANELS {
            w += density(lo + h * k as f64) * if k % 2 == 1 { 4.0 } else { 2.0 };
        }
        weighted += w * x;
        total += w;
    }
    weighted / total
}

/// Linear interpolation between the two ranks closest to `p` of sorted
/// samples.
fn interpolated(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `num / den`, or 0 when nothing was attempted (`den == 0`).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harrell_davis_matches_its_expectation_on_ranks() {
        // On the ranks 1..=n the estimate is sum(i * w_i) ≈ n p + 1/2.
        let ranks: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((quantile(&ranks, 0.9) - 90.5).abs() < 0.05);
        assert!((median(&ranks) - 50.5).abs() < 1e-9, "symmetric weights");
        let mut shuffled = ranks.clone();
        shuffled.reverse();
        assert_eq!(median(&shuffled), median(&ranks), "order does not matter");
        assert!((median(&[7.0; 9]) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn small_samples_interpolate_between_ranks() {
        assert_eq!(quantile(&[4.0, 1.0, 3.0], 0.9), 3.8, "(1-p)(n+1) < 1");
        assert_eq!(median(&[2.0]), 2.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn ratio_of_nothing_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 4.0), 0.75);
    }
}
