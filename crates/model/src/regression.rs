//! Regression machinery: OLS, two-segment piecewise, log-linear.
//!
//! These are what turn the methodology's raw measurements into the paper's
//! formulas: Figure 6's scatter → the piecewise Formula 6 (including
//! *finding* the ≈ 1425-element breakpoint), Figure 7's speed-ups → the
//! logarithmic Formula 7.

/// An ordinary-least-squares line `y = intercept + slope·x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Intercept.
    pub intercept: f64,
    /// Slope.
    pub slope: f64,
    /// Coefficient of determination on the fitted data.
    pub r2: f64,
    /// Number of points fitted.
    pub n: usize,
    /// Standard error of the slope (0 for a perfect fit or n ≤ 2).
    pub slope_se: f64,
    /// Standard error of the intercept.
    pub intercept_se: f64,
}

impl LinearFit {
    /// Evaluates the fitted line.
    pub fn predict(&self, x: f64) -> f64 {
        self.intercept + self.slope * x
    }

    /// Approximate 95 % confidence interval for the slope (±1.96 SE —
    /// adequate for the n ≥ 30 samples the calibration procedures use).
    pub fn slope_ci95(&self) -> (f64, f64) {
        (
            self.slope - 1.96 * self.slope_se,
            self.slope + 1.96 * self.slope_se,
        )
    }

    /// Approximate 95 % confidence interval for the intercept.
    pub fn intercept_ci95(&self) -> (f64, f64) {
        (
            self.intercept - 1.96 * self.intercept_se,
            self.intercept + 1.96 * self.intercept_se,
        )
    }

    /// True when zero lies outside the slope's 95 % interval — i.e. the
    /// measured dependence on `x` is statistically real.
    pub fn slope_is_significant(&self) -> bool {
        let (lo, hi) = self.slope_ci95();
        lo > 0.0 || hi < 0.0
    }
}

/// Fits `y = a + b·x` by least squares. Returns `None` for fewer than two
/// points or zero x-variance.
pub fn fit_linear(xs: &[f64], ys: &[f64]) -> Option<LinearFit> {
    assert_eq!(xs.len(), ys.len(), "mismatched sample lengths");
    let n = xs.len();
    if n < 2 {
        return None;
    }
    let nf = n as f64;
    let mean_x = xs.iter().sum::<f64>() / nf;
    let mean_y = ys.iter().sum::<f64>() / nf;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        sxx += (x - mean_x) * (x - mean_x);
        sxy += (x - mean_x) * (y - mean_y);
        syy += (y - mean_y) * (y - mean_y);
    }
    if sxx == 0.0 {
        return None;
    }
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r2 = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    // Residual variance → coefficient standard errors.
    let (slope_se, intercept_se) = if n > 2 {
        let sse: f64 = xs
            .iter()
            .zip(ys)
            .map(|(&x, &y)| {
                let e = y - (intercept + slope * x);
                e * e
            })
            .sum();
        let sigma2 = sse / (n - 2) as f64;
        let slope_se = (sigma2 / sxx).sqrt();
        let intercept_se = (sigma2 * (1.0 / nf + mean_x * mean_x / sxx)).sqrt();
        (slope_se, intercept_se)
    } else {
        (0.0, 0.0)
    };
    Some(LinearFit {
        intercept,
        slope,
        r2,
        n,
        slope_se,
        intercept_se,
    })
}

/// Residual sums of squares of a linear fit over the given points:
/// `(absolute, relative)`, the second with every residual divided by the
/// observed `|y|` it misses.
fn sse(fit: &LinearFit, xs: &[f64], ys: &[f64]) -> (f64, f64) {
    xs.iter().zip(ys).fold((0.0, 0.0), |(abs, rel), (&x, &y)| {
        let e = y - fit.predict(x);
        let r = e / y.abs().max(f64::MIN_POSITIVE);
        (abs + e * e, rel + r * r)
    })
}

/// A two-segment piecewise-linear fit with a free breakpoint — the shape of
/// Formula 6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PiecewiseFit {
    /// Points with `x ≤ breakpoint` follow `below`; the rest follow `above`.
    pub breakpoint: f64,
    /// The left segment.
    pub below: LinearFit,
    /// The right segment.
    pub above: LinearFit,
    /// Total residual sum of squares.
    pub sse: f64,
}

impl PiecewiseFit {
    /// Evaluates the piecewise model.
    pub fn predict(&self, x: f64) -> f64 {
        if x <= self.breakpoint {
            self.below.predict(x)
        } else {
            self.above.predict(x)
        }
    }

    /// The discontinuity jump at the breakpoint (above − below).
    pub fn jump(&self) -> f64 {
        self.above.predict(self.breakpoint) - self.below.predict(self.breakpoint)
    }
}

/// Fits a two-segment piecewise line, scanning every candidate breakpoint
/// between distinct x values. Each side is an ordinary least-squares line;
/// the split kept is the one with the smallest total *relative* squared
/// error (residual over observed `y`). Measured response times carry noise
/// proportional to their size, so under absolute error a handful of large
/// noisy rows split off as their own segment can outweigh a real knee among
/// the small ones; relative error weighs every row's miss against its own
/// magnitude. Requires at least 3 points on each side of a valid split;
/// returns `None` if no split qualifies.
pub fn fit_piecewise(xs: &[f64], ys: &[f64]) -> Option<PiecewiseFit> {
    assert_eq!(xs.len(), ys.len(), "mismatched sample lengths");
    if xs.len() < 6 {
        return None;
    }
    // Sort points by x once.
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| xs[a].partial_cmp(&xs[b]).expect("NaN x"));
    let sx: Vec<f64> = idx.iter().map(|&i| xs[i]).collect();
    let sy: Vec<f64> = idx.iter().map(|&i| ys[i]).collect();

    let mut best: Option<PiecewiseFit> = None;
    let mut best_rel = f64::INFINITY;
    for split in 3..=(sx.len() - 3) {
        // Skip splits inside runs of identical x.
        if sx[split - 1] == sx[split] {
            continue;
        }
        let (lx, rx) = sx.split_at(split);
        let (ly, ry) = sy.split_at(split);
        let (Some(below), Some(above)) = (fit_linear(lx, ly), fit_linear(rx, ry)) else {
            continue;
        };
        let (l_abs, l_rel) = sse(&below, lx, ly);
        let (r_abs, r_rel) = sse(&above, rx, ry);
        if best.is_none() || l_rel + r_rel < best_rel {
            best_rel = l_rel + r_rel;
            best = Some(PiecewiseFit {
                breakpoint: 0.5 * (sx[split - 1] + sx[split]),
                below,
                above,
                sse: l_abs + r_abs,
            });
        }
    }
    best
}

/// A log-linear fit `y = a + b·ln x` — the shape of Formula 7.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogLinearFit {
    /// Intercept `a`.
    pub a: f64,
    /// Log coefficient `b`.
    pub b: f64,
    /// R² in log-x space.
    pub r2: f64,
    /// Number of points fitted.
    pub n: usize,
}

impl LogLinearFit {
    /// Evaluates `a + b·ln x` (x clamped to ≥ 1).
    pub fn predict(&self, x: f64) -> f64 {
        self.a + self.b * x.max(1.0).ln()
    }
}

/// Fits `y = a + b·ln x`; points with `x ≤ 0` are rejected by assertion.
pub fn fit_loglinear(xs: &[f64], ys: &[f64]) -> Option<LogLinearFit> {
    assert!(
        xs.iter().all(|&x| x > 0.0),
        "log-linear fit needs positive x"
    );
    let lx: Vec<f64> = xs.iter().map(|&x| x.ln()).collect();
    fit_linear(&lx, ys).map(|f| LogLinearFit {
        a: f.intercept,
        b: f.slope,
        r2: f.r2,
        n: f.n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_fit_recovers_exact_line() {
        let xs: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 2.5 + 0.75 * x).collect();
        let f = fit_linear(&xs, &ys).unwrap();
        assert!((f.intercept - 2.5).abs() < 1e-9);
        assert!((f.slope - 0.75).abs() < 1e-9);
        assert!((f.r2 - 1.0).abs() < 1e-9);
        assert_eq!(f.n, 50);
    }

    #[test]
    fn linear_fit_handles_noise() {
        // Deterministic pseudo-noise.
        let xs: Vec<f64> = (0..200).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| 1.0 + 2.0 * x + ((i * 2_654_435_761) % 1000) as f64 / 1000.0 - 0.5)
            .collect();
        let f = fit_linear(&xs, &ys).unwrap();
        assert!((f.slope - 2.0).abs() < 0.01, "{}", f.slope);
        assert!(f.r2 > 0.99);
    }

    #[test]
    fn degenerate_linear_inputs() {
        assert!(fit_linear(&[], &[]).is_none());
        assert!(fit_linear(&[1.0], &[2.0]).is_none());
        assert!(fit_linear(&[3.0, 3.0, 3.0], &[1.0, 2.0, 3.0]).is_none());
    }

    #[test]
    fn piecewise_recovers_formula6_shape() {
        // Generate data from the paper's Formula 6 and check the fitter
        // finds the 1425 breakpoint and both segments.
        let xs: Vec<f64> = (1..=100).map(|i| i as f64 * 100.0).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&s| {
                if s > 1425.0 {
                    0.773 + 0.0439 * s
                } else {
                    1.163 + 0.0387 * s
                }
            })
            .collect();
        let f = fit_piecewise(&xs, &ys).unwrap();
        assert!(
            (f.breakpoint - 1425.0).abs() < 150.0,
            "breakpoint {}",
            f.breakpoint
        );
        assert!((f.below.slope - 0.0387).abs() < 0.002, "{:?}", f.below);
        assert!((f.above.slope - 0.0439).abs() < 0.002, "{:?}", f.above);
        assert!((f.below.intercept - 1.163).abs() < 1.0);
        assert!((f.above.intercept - 0.773).abs() < 1.0);
        assert!(f.jump() > 0.0, "index overhead jump missing");
    }

    #[test]
    fn piecewise_needs_enough_points() {
        let xs = [1.0, 2.0, 3.0, 4.0, 5.0];
        let ys = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert!(fit_piecewise(&xs, &ys).is_none());
    }

    #[test]
    fn piecewise_predict_uses_correct_segment() {
        let xs: Vec<f64> = (1..=60).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs
            .iter()
            .map(|&x| if x <= 30.0 { x } else { 100.0 + 2.0 * x })
            .collect();
        let f = fit_piecewise(&xs, &ys).unwrap();
        assert!((f.predict(10.0) - 10.0).abs() < 1e-6);
        assert!((f.predict(50.0) - 200.0).abs() < 1e-6);
    }

    #[test]
    fn standard_errors_shrink_with_sample_size_and_noise() {
        // Deterministic pseudo-noise around a known line.
        let noisy = |n: usize, amp: f64| -> LinearFit {
            let xs: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let ys: Vec<f64> = xs
                .iter()
                .enumerate()
                .map(|(i, &x)| {
                    2.0 + 3.0 * x + amp * ((((i * 2_654_435_761) % 1000) as f64 / 500.0) - 1.0)
                })
                .collect();
            fit_linear(&xs, &ys).unwrap()
        };
        let small_noisy = noisy(20, 5.0);
        let big_noisy = noisy(500, 5.0);
        let big_quiet = noisy(500, 0.5);
        assert!(big_noisy.slope_se < small_noisy.slope_se);
        assert!(big_quiet.slope_se < big_noisy.slope_se);
        // The true slope (3.0) lies inside every 95 % interval here.
        for f in [small_noisy, big_noisy, big_quiet] {
            let (lo, hi) = f.slope_ci95();
            assert!(lo <= 3.0 && 3.0 <= hi, "CI [{lo}, {hi}] misses truth");
            assert!(f.slope_is_significant());
        }
        // A perfect fit has zero standard errors.
        let xs: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| 1.0 + x).collect();
        let exact = fit_linear(&xs, &ys).unwrap();
        assert!(exact.slope_se < 1e-9);
        assert!(exact.intercept_se < 1e-9);
    }

    #[test]
    fn flat_noisy_slope_is_not_significant() {
        let xs: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let ys: Vec<f64> = (0..100)
            .map(|i| 5.0 + ((((i * 2_654_435_761usize) % 1000) as f64 / 500.0) - 1.0) * 10.0)
            .collect();
        let f = fit_linear(&xs, &ys).unwrap();
        assert!(
            !f.slope_is_significant(),
            "noise produced a 'significant' slope: {f:?}"
        );
    }

    #[test]
    fn loglinear_recovers_formula7() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64 * 100.0).collect();
        let ys: Vec<f64> = xs.iter().map(|&s| 12.562 - 1.084 * s.ln()).collect();
        let f = fit_loglinear(&xs, &ys).unwrap();
        assert!((f.a - 12.562).abs() < 1e-6);
        assert!((f.b + 1.084).abs() < 1e-6);
        assert!((f.r2 - 1.0).abs() < 1e-9);
        assert!((f.predict(std::f64::consts::E) - (12.562 - 1.084)).abs() < 1e-6);
    }

    #[test]
    #[should_panic(expected = "positive x")]
    fn loglinear_rejects_nonpositive() {
        let _ = fit_loglinear(&[0.0, 1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "mismatched")]
    fn mismatched_lengths_rejected() {
        let _ = fit_linear(&[1.0, 2.0], &[1.0]);
    }
}
