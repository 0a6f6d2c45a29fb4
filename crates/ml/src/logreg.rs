//! Weighted logistic regression trained by batch gradient descent.

use crate::error::MlError;
use crate::matrix::Matrix;
use crate::model::{validate_fit_inputs, Classifier};
use crate::scaler::StandardScaler;
use serde::{Deserialize, Serialize};

/// Hyper-parameters for [`LogisticRegression`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogisticRegressionConfig {
    /// Gradient-descent step size.
    pub learning_rate: f64,
    /// Maximum number of full-batch epochs.
    pub max_epochs: usize,
    /// L2 penalty on the non-intercept weights.
    pub l2: f64,
    /// Convergence tolerance on the gradient max-norm.
    pub tol: f64,
    /// Standardize features internally before fitting (recommended; makes
    /// coefficient magnitudes comparable for the Figure-9 importances).
    pub standardize: bool,
}

impl Default for LogisticRegressionConfig {
    fn default() -> Self {
        Self {
            learning_rate: 0.5,
            max_epochs: 2000,
            l2: 1e-4,
            tol: 1e-7,
            standardize: true,
        }
    }
}

impl LogisticRegressionConfig {
    fn validate(&self) -> Result<(), MlError> {
        if !(self.learning_rate > 0.0 && self.learning_rate.is_finite()) {
            return Err(MlError::InvalidHyperparameter(format!(
                "learning_rate must be positive, got {}",
                self.learning_rate
            )));
        }
        if self.max_epochs == 0 {
            return Err(MlError::InvalidHyperparameter(
                "max_epochs must be at least 1".into(),
            ));
        }
        if !(self.l2 >= 0.0 && self.l2.is_finite()) {
            return Err(MlError::InvalidHyperparameter(format!(
                "l2 must be non-negative, got {}",
                self.l2
            )));
        }
        Ok(())
    }
}

/// Binary logistic regression with sample weights and L2 regularization.
///
/// Training is deterministic: weights start at zero and full-batch
/// gradient descent runs until the gradient max-norm drops below `tol` or
/// `max_epochs` is reached. With an intercept and no regularization the
/// converged model satisfies `Σ w·(p − y) = 0`, i.e. it is calibrated *on
/// average* over the training set — the property the paper's Theorem 1
/// bounds ENCE against.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogisticRegression {
    config: LogisticRegressionConfig,
    /// `[intercept, w_1, ..., w_d]` in (possibly standardized) feature space.
    theta: Vec<f64>,
    scaler: Option<StandardScaler>,
    epochs_run: usize,
    converged: bool,
}

/// The logistic function, stable at both extremes: with `e = exp(−|z|)`
/// it is `1/(1+e)` for `z ≥ 0` and `e/(1+e)` below. Only the numerator
/// depends on the sign, so the compiler selects it without a branch —
/// the training loop calls this once per row per epoch, and the sign of
/// `z` is close to random across rows.
#[inline]
fn sigmoid(z: f64) -> f64 {
    let e = (-z.abs()).exp();
    let num = if z >= 0.0 { 1.0 } else { e };
    num / (1.0 + e)
}

impl LogisticRegression {
    /// Creates an unfitted model with the given configuration.
    pub fn new(config: LogisticRegressionConfig) -> Result<Self, MlError> {
        config.validate()?;
        Ok(Self {
            config,
            theta: Vec::new(),
            scaler: None,
            epochs_run: 0,
            converged: false,
        })
    }

    /// Creates an unfitted model with default hyper-parameters.
    pub fn with_defaults() -> Self {
        Self::new(LogisticRegressionConfig::default()).expect("default config is valid")
    }

    /// Intercept term (in standardized space when `standardize` is on).
    pub fn intercept(&self) -> Result<f64, MlError> {
        self.theta.first().copied().ok_or(MlError::NotFitted)
    }

    /// Non-intercept coefficients (in standardized space when
    /// `standardize` is on).
    pub fn coefficients(&self) -> Result<&[f64], MlError> {
        if self.theta.is_empty() {
            return Err(MlError::NotFitted);
        }
        Ok(&self.theta[1..])
    }

    /// Absolute standardized coefficients — the per-feature importance used
    /// by the Figure-9 heatmaps.
    pub fn feature_importances(&self) -> Result<Vec<f64>, MlError> {
        Ok(self.coefficients()?.iter().map(|c| c.abs()).collect())
    }

    /// Number of epochs the last fit ran.
    pub fn epochs_run(&self) -> usize {
        self.epochs_run
    }

    /// Whether the last fit hit the gradient tolerance before `max_epochs`.
    pub fn converged(&self) -> bool {
        self.converged
    }

    fn design(&self, x: &Matrix) -> Result<Matrix, MlError> {
        match &self.scaler {
            Some(s) => s.transform(x),
            None => Ok(x.clone()),
        }
    }
}

impl Classifier for LogisticRegression {
    fn fit(
        &mut self,
        x: &Matrix,
        y: &[bool],
        sample_weight: Option<&[f64]>,
    ) -> Result<(), MlError> {
        let w = validate_fit_inputs(x, y, sample_weight)?;
        let xs = if self.config.standardize {
            let mut scaler = StandardScaler::new();
            let xs = scaler.fit_transform(x)?;
            self.scaler = Some(scaler);
            xs
        } else {
            self.scaler = None;
            x.clone()
        };

        let n = xs.rows();
        let d = xs.cols();
        let sum_w: f64 = w.iter().sum();
        let labels: Vec<f64> = y.iter().map(|&b| f64::from(u8::from(b))).collect();
        // Column-major copy of the design: each epoch's passes below run
        // down contiguous columns. Every per-row sum still adds its terms
        // in the same order as a row-wise loop, so θ is bit-identical to
        // one (the tests keep that loop as an oracle).
        let columns: Vec<f64> = (0..d).flat_map(|j| xs.column(j)).collect();
        let mut theta = vec![0.0f64; d + 1];
        let mut grad = vec![0.0f64; d + 1];
        let mut err = vec![0.0f64; n];
        let mut epochs_run = 0;
        let mut converged = false;

        for _ in 0..self.config.max_epochs {
            epochs_run += 1;
            // z_i − θ0 = Σ_j x_ij·θ_j, folded from −0.0 in column order —
            // exactly `Iterator::sum` over the row.
            err.iter_mut().for_each(|e| *e = -0.0);
            for (col, t) in columns.chunks_exact(n).zip(&theta[1..]) {
                for (e, x) in err.iter_mut().zip(col) {
                    *e += x * t;
                }
            }
            for ((e, label), wi) in err.iter_mut().zip(&labels).zip(&w) {
                *e = (sigmoid(theta[0] + *e) - label) * wi;
            }
            // Each gradient component accumulates its rows in row order.
            grad[0] = err.iter().fold(0.0, |g, e| g + e);
            for (g, col) in grad[1..].iter_mut().zip(columns.chunks_exact(n)) {
                *g = err.iter().zip(col).fold(0.0, |g, (e, x)| g + e * x);
            }
            let mut max_grad: f64 = 0.0;
            for (j, g) in grad.iter_mut().enumerate() {
                *g /= sum_w;
                if j > 0 {
                    *g += self.config.l2 * theta[j];
                }
                max_grad = max_grad.max(g.abs());
            }
            for (t, g) in theta.iter_mut().zip(&grad) {
                *t -= self.config.learning_rate * g;
            }
            if max_grad < self.config.tol {
                converged = true;
                break;
            }
        }

        self.theta = theta;
        self.epochs_run = epochs_run;
        self.converged = converged;
        Ok(())
    }

    fn predict_proba(&self, x: &Matrix) -> Result<Vec<f64>, MlError> {
        if self.theta.is_empty() {
            return Err(MlError::NotFitted);
        }
        if x.cols() + 1 != self.theta.len() {
            return Err(MlError::DimensionMismatch {
                expected: self.theta.len() - 1,
                got: x.cols(),
                what: "feature columns",
            });
        }
        x.ensure_finite()?;
        let xs = self.design(x)?;
        Ok((0..xs.rows())
            .map(|i| {
                let z = self.theta[0]
                    + xs.row(i)
                        .iter()
                        .zip(&self.theta[1..])
                        .map(|(a, b)| a * b)
                        .sum::<f64>();
                sigmoid(z)
            })
            .collect())
    }

    fn is_fitted(&self) -> bool {
        !self.theta.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A linearly separable toy problem in one dimension.
    fn toy() -> (Matrix, Vec<bool>) {
        let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 40.0]).collect();
        let y: Vec<bool> = (0..40).map(|i| i >= 20).collect();
        (Matrix::from_rows(&xs).unwrap(), y)
    }

    #[test]
    fn config_validation() {
        let c = LogisticRegressionConfig {
            learning_rate: 0.0,
            ..LogisticRegressionConfig::default()
        };
        assert!(LogisticRegression::new(c).is_err());
        let c = LogisticRegressionConfig {
            max_epochs: 0,
            ..LogisticRegressionConfig::default()
        };
        assert!(LogisticRegression::new(c).is_err());
        let c = LogisticRegressionConfig {
            l2: -1.0,
            ..LogisticRegressionConfig::default()
        };
        assert!(LogisticRegression::new(c).is_err());
    }

    #[test]
    fn learns_separable_problem() {
        let (x, y) = toy();
        let mut m = LogisticRegression::with_defaults();
        m.fit(&x, &y, None).unwrap();
        let acc = m
            .predict(&x, 0.5)
            .unwrap()
            .iter()
            .zip(&y)
            .filter(|(a, b)| a == b)
            .count() as f64
            / y.len() as f64;
        assert!(acc >= 0.95, "accuracy {acc}");
        // Positive slope: larger x -> higher score.
        assert!(m.coefficients().unwrap()[0] > 0.0);
    }

    #[test]
    fn training_scores_are_calibrated_on_average() {
        // With an intercept, converged logistic regression satisfies
        // mean(score) ~= mean(label) on the training set.
        let (x, y) = toy();
        let cfg = LogisticRegressionConfig {
            max_epochs: 5000,
            l2: 0.0,
            ..LogisticRegressionConfig::default()
        };
        let mut m = LogisticRegression::new(cfg).unwrap();
        m.fit(&x, &y, None).unwrap();
        let scores = m.predict_proba(&x).unwrap();
        let e: f64 = scores.iter().sum::<f64>() / scores.len() as f64;
        let o: f64 = y.iter().filter(|&&b| b).count() as f64 / y.len() as f64;
        assert!((e - o).abs() < 5e-3, "e={e} o={o}");
    }

    #[test]
    fn sample_weights_shift_the_boundary() {
        let (x, y) = toy();
        // Heavily up-weight the negative class: scores should drop.
        let w: Vec<f64> = y.iter().map(|&b| if b { 1.0 } else { 10.0 }).collect();
        let mut unweighted = LogisticRegression::with_defaults();
        unweighted.fit(&x, &y, None).unwrap();
        let mut weighted = LogisticRegression::with_defaults();
        weighted.fit(&x, &y, Some(&w)).unwrap();
        let mean_u: f64 = unweighted.predict_proba(&x).unwrap().iter().sum::<f64>() / 40.0;
        let mean_w: f64 = weighted.predict_proba(&x).unwrap().iter().sum::<f64>() / 40.0;
        assert!(mean_w < mean_u, "weighted {mean_w} unweighted {mean_u}");
    }

    #[test]
    fn deterministic_across_runs() {
        let (x, y) = toy();
        let mut a = LogisticRegression::with_defaults();
        let mut b = LogisticRegression::with_defaults();
        a.fit(&x, &y, None).unwrap();
        b.fit(&x, &y, None).unwrap();
        assert_eq!(a.predict_proba(&x).unwrap(), b.predict_proba(&x).unwrap());
    }

    #[test]
    fn predict_before_fit_errors() {
        let m = LogisticRegression::with_defaults();
        assert!(matches!(
            m.predict_proba(&Matrix::zeros(1, 1)),
            Err(MlError::NotFitted)
        ));
    }

    #[test]
    fn predict_checks_feature_count() {
        let (x, y) = toy();
        let mut m = LogisticRegression::with_defaults();
        m.fit(&x, &y, None).unwrap();
        assert!(m.predict_proba(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn scores_are_probabilities() {
        let (x, y) = toy();
        let mut m = LogisticRegression::with_defaults();
        m.fit(&x, &y, None).unwrap();
        assert!(m
            .predict_proba(&x)
            .unwrap()
            .iter()
            .all(|s| (0.0..=1.0).contains(s)));
    }

    #[test]
    fn single_class_degrades_gracefully() {
        let x = Matrix::from_rows(&[vec![0.1], vec![0.4], vec![0.9]]).unwrap();
        let y = vec![true, true, true];
        let mut m = LogisticRegression::with_defaults();
        m.fit(&x, &y, None).unwrap();
        let scores = m.predict_proba(&x).unwrap();
        assert!(scores.iter().all(|s| *s > 0.5));
    }

    #[test]
    fn importances_are_absolute_coefficients() {
        let (x, y) = toy();
        let mut m = LogisticRegression::with_defaults();
        m.fit(&x, &y, None).unwrap();
        let imp = m.feature_importances().unwrap();
        assert_eq!(imp.len(), 1);
        assert!(imp[0] > 0.0);
    }

    /// `fit`'s epoch loop as it was before it went column-major — one
    /// pass per row with the two-branch sigmoid — kept as the oracle the
    /// restructured loop must match bit for bit. `xs` is the (already
    /// standardized) design; returns θ and the epochs run.
    fn row_wise_theta(
        config: &LogisticRegressionConfig,
        xs: &Matrix,
        y: &[bool],
        w: &[f64],
    ) -> (Vec<f64>, usize) {
        fn sigmoid(z: f64) -> f64 {
            if z >= 0.0 {
                1.0 / (1.0 + (-z).exp())
            } else {
                let e = z.exp();
                e / (1.0 + e)
            }
        }
        let (n, d) = (xs.rows(), xs.cols());
        let sum_w: f64 = w.iter().sum();
        let mut theta = vec![0.0f64; d + 1];
        let mut grad = vec![0.0f64; d + 1];
        let mut epochs_run = 0;
        for _ in 0..config.max_epochs {
            epochs_run += 1;
            grad.iter_mut().for_each(|g| *g = 0.0);
            for i in 0..n {
                let row = xs.row(i);
                let z = theta[0] + row.iter().zip(&theta[1..]).map(|(a, b)| a * b).sum::<f64>();
                let err = (sigmoid(z) - f64::from(u8::from(y[i]))) * w[i];
                grad[0] += err;
                for (g, v) in grad[1..].iter_mut().zip(row) {
                    *g += err * v;
                }
            }
            let mut max_grad: f64 = 0.0;
            for (j, g) in grad.iter_mut().enumerate() {
                *g /= sum_w;
                if j > 0 {
                    *g += config.l2 * theta[j];
                }
                max_grad = max_grad.max(g.abs());
            }
            for (t, g) in theta.iter_mut().zip(&grad) {
                *t -= config.learning_rate * g;
            }
            if max_grad < config.tol {
                break;
            }
        }
        (theta, epochs_run)
    }

    #[test]
    fn column_major_epochs_match_the_row_wise_loop_bit_for_bit() {
        use crate::rand_util::{normal, rng_from_seed};
        use rand::RngExt;
        let mut rng = rng_from_seed(0x10_9e55);
        for case in 0..16 {
            let n = rng.random_range(1..=240usize);
            let d = rng.random_range(1..=6usize);
            let scale = [1e-3, 1.0, 40.0][case % 3];
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..d).map(|_| normal(&mut rng, 0.5, scale)).collect())
                .collect();
            let x = Matrix::from_vec(n, d, rows.concat()).unwrap();
            let y: Vec<bool> = rows
                .iter()
                .map(|r| r.iter().sum::<f64>() / scale + normal(&mut rng, 0.0, 1.0) > 0.5)
                .collect();
            let w: Vec<f64> = (0..n).map(|_| rng.random_range(0.05..5.0)).collect();
            let config = LogisticRegressionConfig {
                learning_rate: [0.5, 0.1, 2.0][case % 3],
                max_epochs: 300,
                l2: [0.0, 1e-4, 0.3][case % 3],
                // Some cases converge early, so the stopping epoch is
                // compared too.
                tol: [1e-7, 1e-3][case % 2],
                standardize: case % 4 != 0,
            };
            let mut model = LogisticRegression::new(config.clone()).unwrap();
            model.fit(&x, &y, Some(&w)).unwrap();
            let xs = if config.standardize {
                StandardScaler::new().fit_transform(&x).unwrap()
            } else {
                x.clone()
            };
            // `fit` trains on the weights rescaled to mean 1.
            let w = validate_fit_inputs(&x, &y, Some(&w)).unwrap();
            let (theta, epochs_run) = row_wise_theta(&config, &xs, &y, &w);
            assert_eq!(model.epochs_run(), epochs_run, "case {case}");
            let bits = |t: &[f64]| t.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&model.theta), bits(&theta), "case {case}: n={n} d={d}");
        }
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!((sigmoid(1000.0) - 1.0).abs() < 1e-12);
        assert!(sigmoid(-1000.0).abs() < 1e-12);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
    }
}
