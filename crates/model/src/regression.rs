//! Bayesian multivariate linear regression (Eq. 3 of the paper).
//!
//! With a zero-mean Gaussian prior over the coefficients (precision `λ`) and
//! Gaussian noise, the posterior mean of the coefficient vector is the ridge
//! estimate `β = (XᵀX + λI)⁻¹ Xᵀ y`, which is what we fit here; `λ → 0`
//! recovers ordinary least squares.  The model includes an intercept
//! (the paper's ε term).

use crate::linalg::Matrix;

/// A fitted model.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionFit {
    /// Coefficients, one per feature (the βᵢ of Eq. 3).
    pub coefficients: Vec<f64>,
    /// Intercept (the ε of Eq. 3).
    pub intercept: f64,
    /// Coefficient of determination of the fit on its training data.
    pub r_squared: f64,
}

impl RegressionFit {
    /// Predict the response for one feature vector.
    pub fn predict(&self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), self.coefficients.len());
        self.intercept
            + features
                .iter()
                .zip(&self.coefficients)
                .map(|(x, b)| x * b)
                .sum::<f64>()
    }

    /// Predict and clamp into `[0, 1]` (success rates are probabilities; the
    /// paper's Table IV also reports clamped predictions such as 1.000).
    pub fn predict_rate(&self, features: &[f64]) -> f64 {
        self.predict(features).clamp(0.0, 1.0)
    }
}

/// Bayesian linear regression with a Gaussian (ridge) prior.
#[derive(Debug, Clone, Copy)]
pub struct BayesianLinearRegression {
    /// Prior precision (ridge strength).
    pub prior_precision: f64,
}

impl Default for BayesianLinearRegression {
    fn default() -> Self {
        BayesianLinearRegression {
            prior_precision: 1e-6,
        }
    }
}

impl BayesianLinearRegression {
    /// Create a model with the given prior precision.
    pub fn new(prior_precision: f64) -> Self {
        BayesianLinearRegression { prior_precision }
    }

    /// Fit the model to rows of features and their responses.
    ///
    /// # Panics
    /// Panics if `x` and `y` have different lengths or `x` is empty.
    pub fn fit(&self, x: &[Vec<f64>], y: &[f64]) -> RegressionFit {
        assert_eq!(x.len(), y.len(), "feature/response length mismatch");
        assert!(!x.is_empty(), "cannot fit on an empty data set");
        let n_features = x[0].len();
        // Design matrix with a leading column of ones for the intercept.
        let design: Vec<Vec<f64>> = x
            .iter()
            .map(|row| {
                let mut r = Vec::with_capacity(n_features + 1);
                r.push(1.0);
                r.extend_from_slice(row);
                r
            })
            .collect();
        let xm = Matrix::from_rows(&design);
        let ym = Matrix::column(y);
        let xt = xm.transpose();
        let mut xtx = xt.matmul(&xm);
        xtx.add_diagonal(self.prior_precision);
        let xty = xt.matmul(&ym);
        let beta = xtx
            .solve(&xty)
            .unwrap_or_else(|| {
                // A singular system (collinear features with λ = 0) falls
                // back to a slightly stronger prior rather than failing.
                let mut xtx2 = xt.matmul(&xm);
                xtx2.add_diagonal(self.prior_precision.max(1e-8) * 1e3);
                xtx2.solve(&xty).expect("regularized system is nonsingular")
            })
            .to_vec();
        let intercept = beta[0];
        let coefficients = beta[1..].to_vec();

        // R² on the training data.
        let fit = RegressionFit {
            coefficients,
            intercept,
            r_squared: 0.0,
        };
        let mean_y: f64 = y.iter().sum::<f64>() / y.len() as f64;
        let ss_tot: f64 = y.iter().map(|v| (v - mean_y).powi(2)).sum();
        let ss_res: f64 = x
            .iter()
            .zip(y)
            .map(|(row, &obs)| (obs - fit.predict(row)).powi(2))
            .sum();
        let r_squared = if ss_tot > 0.0 {
            1.0 - ss_res / ss_tot
        } else {
            1.0
        };
        RegressionFit { r_squared, ..fit }
    }

    /// Leave-one-out evaluation: for every sample, fit on the others and
    /// predict it.  Returns `(predicted, relative error)` per sample — the
    /// prediction-error column of Table IV.
    pub fn leave_one_out(&self, x: &[Vec<f64>], y: &[f64]) -> Vec<(f64, f64)> {
        assert_eq!(x.len(), y.len());
        (0..x.len())
            .map(|held_out| {
                let train_x: Vec<Vec<f64>> = x
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != held_out)
                    .map(|(_, row)| row.clone())
                    .collect();
                let train_y: Vec<f64> = y
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| *i != held_out)
                    .map(|(_, v)| *v)
                    .collect();
                let fit = self.fit(&train_x, &train_y);
                let predicted = fit.predict_rate(&x[held_out]);
                let actual = y[held_out];
                let err = if actual.abs() > 1e-12 {
                    (predicted - actual).abs() / actual.abs()
                } else {
                    predicted.abs()
                };
                (predicted, err)
            })
            .collect()
    }
}

/// Standardized regression coefficients (`β·σ_x/σ_y`), the importance metric
/// the paper uses to rank the patterns.
pub fn standardized_coefficients(fit: &RegressionFit, x: &[Vec<f64>], y: &[f64]) -> Vec<f64> {
    let n = x.len() as f64;
    let std = |values: &[f64]| -> f64 {
        let mean = values.iter().sum::<f64>() / n;
        (values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n).sqrt()
    };
    let sy = std(y).max(1e-12);
    (0..fit.coefficients.len())
        .map(|j| {
            let col: Vec<f64> = x.iter().map(|row| row[j]).collect();
            fit.coefficients[j] * std(&col) / sy
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn synthetic(n: usize, noise: f64, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>, Vec<f64>, f64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let true_beta = vec![0.5, -0.3, 0.8];
        let intercept = 0.2;
        let mut x = Vec::new();
        let mut y = Vec::new();
        for _ in 0..n {
            let row: Vec<f64> = (0..3).map(|_| rng.random_range(0.0..1.0)).collect();
            let mut resp = intercept;
            for (v, b) in row.iter().zip(&true_beta) {
                resp += v * b;
            }
            resp += noise * (rng.random_range(-1.0..1.0));
            x.push(row);
            y.push(resp);
        }
        (x, y, true_beta, intercept)
    }

    #[test]
    fn recovers_known_coefficients_without_noise() {
        let (x, y, beta, intercept) = synthetic(40, 0.0, 1);
        let fit = BayesianLinearRegression::default().fit(&x, &y);
        for (est, truth) in fit.coefficients.iter().zip(&beta) {
            assert!((est - truth).abs() < 1e-4, "{est} vs {truth}");
        }
        assert!((fit.intercept - intercept).abs() < 1e-4);
        assert!(fit.r_squared > 0.999_99);
    }

    #[test]
    fn r_squared_degrades_gracefully_with_noise() {
        let (x, y, _, _) = synthetic(60, 0.2, 2);
        let fit = BayesianLinearRegression::default().fit(&x, &y);
        assert!(
            fit.r_squared > 0.4 && fit.r_squared <= 1.0,
            "{}",
            fit.r_squared
        );
    }

    #[test]
    fn leave_one_out_has_small_error_on_clean_data() {
        let (x, y, _, _) = synthetic(30, 0.01, 3);
        let results = BayesianLinearRegression::default().leave_one_out(&x, &y);
        assert_eq!(results.len(), 30);
        let mean_err: f64 = results.iter().map(|(_, e)| e).sum::<f64>() / 30.0;
        assert!(mean_err < 0.2, "mean LOO error {mean_err}");
    }

    #[test]
    fn predictions_are_clamped_to_probability_range() {
        let fit = RegressionFit {
            coefficients: vec![10.0],
            intercept: 0.0,
            r_squared: 1.0,
        };
        assert_eq!(fit.predict_rate(&[1.0]), 1.0);
        assert_eq!(fit.predict_rate(&[-1.0]), 0.0);
        assert!((fit.predict(&[0.05]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn standardized_coefficients_rank_influential_features_first() {
        // y depends strongly on feature 0, weakly on feature 1.
        let mut x = Vec::new();
        let mut y = Vec::new();
        for i in 0..50 {
            let a = (i as f64) / 50.0;
            let b = ((i * 7) % 13) as f64 / 13.0;
            x.push(vec![a, b]);
            y.push(2.0 * a + 0.01 * b);
        }
        let fit = BayesianLinearRegression::default().fit(&x, &y);
        let std = standardized_coefficients(&fit, &x, &y);
        assert!(std[0].abs() > std[1].abs());
    }

    #[test]
    fn collinear_features_fall_back_to_a_stronger_prior() {
        // Two identical columns make XᵀX singular for λ = 0.
        let x: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64, i as f64]).collect();
        let y: Vec<f64> = (0..20).map(|i| 3.0 * i as f64).collect();
        let fit = BayesianLinearRegression::new(0.0).fit(&x, &y);
        // The two coefficients share the weight; predictions still work.
        let pred = fit.predict(&[10.0, 10.0]);
        assert!((pred - 30.0).abs() < 1e-3, "pred {pred}");
    }
}
