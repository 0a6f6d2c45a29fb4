//! Weighted logistic regression fitted by matrix-free Newton-CG: damped
//! Newton steps whose systems conjugate gradient solves from
//! Hessian-vector products, so a fit costs a few passes over the design
//! however wide it is.

use crate::error::MlError;
use crate::matrix::Matrix;
use crate::model::{validate_fit_inputs, Classifier};
use crate::scaler::StandardScaler;
use serde::{Deserialize, Serialize};

/// Hyper-parameters for [`LogisticRegression`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogisticRegressionConfig {
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
            l2: 1e-4,
            tol: 1e-7,
            standardize: true,
        }
    }
}

impl LogisticRegressionConfig {
    fn validate(&self) -> Result<(), MlError> {
        if !(self.l2 >= 0.0 && self.l2.is_finite()) {
            return Err(MlError::InvalidHyperparameter(format!(
                "l2 must be non-negative, got {}",
                self.l2
            )));
        }
        Ok(())
    }
}

/// Newton steps one fit may take. A converging fit needs about ten; the
/// cap only bounds fits whose optimum lies at infinity (a single class,
/// or separable data at `l2 = 0`), whose gradient still falls below any
/// practical `tol` within it.
const MAX_ITERATIONS: usize = 100;

/// Armijo sufficient-decrease constant of the backtracking line search.
const ARMIJO: f64 = 1e-4;

/// Step halvings the line search tries before giving up: past this the
/// step no longer changes θ at f64 precision.
const MAX_HALVINGS: usize = 60;

/// Binary logistic regression with sample weights and L2 regularization.
///
/// Training minimizes the weighted mean log-loss plus `l2/2·‖w‖²` (the
/// intercept is not penalized) by damped Newton. Each step solves the
/// Newton system by conjugate gradient on Hessian-vector products, so no
/// `(d+1)²` Hessian is ever formed, and backtracks on the loss, so every
/// accepted step lowers it. Training is deterministic: θ starts at zero
/// and steps run until the gradient max-norm drops below `tol`, which
/// takes about ten steps. The intercept's gradient component is
/// `Σ w·(p − y) / Σ w`, so the converged optimum meets `Σ w·(p − y) = 0`
/// to within `tol` for any `l2`: the model is calibrated *on average*
/// over the training set — the property the paper's Theorem 1 bounds
/// ENCE against.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogisticRegression {
    config: LogisticRegressionConfig,
    /// `[intercept, w_1, ..., w_d]` in (possibly standardized) feature space.
    theta: Vec<f64>,
    scaler: Option<StandardScaler>,
    iterations: usize,
    converged: bool,
}

/// The logistic function, stable at both extremes: with `e = exp(−|z|)`
/// it is `1/(1+e)` for `z ≥ 0` and `e/(1+e)` below. Only the numerator
/// depends on the sign, so the compiler selects it without a branch —
/// training calls this once per row per step, and the sign of `z` is
/// close to random across rows.
#[inline]
fn sigmoid(z: f64) -> f64 {
    let e = (-z.abs()).exp();
    let num = if z >= 0.0 { 1.0 } else { e };
    num / (1.0 + e)
}

/// `ln(1 + eᵘ)` without overflow or cancellation.
#[inline]
fn softplus(u: f64) -> f64 {
    u.max(0.0) + (-u.abs()).exp().ln_1p()
}

/// `softplus(u + δ) − softplus(u)`, accurate however small the change:
/// for `|δ| < 1` it is `ln(1 + σ(u)·(e^δ − 1))`, with no difference of
/// two nearly equal losses. The line search compares this change with a
/// predicted decrease that, near the optimum, is far below the loss's
/// own rounding.
#[inline]
fn softplus_change(u: f64, delta: f64) -> f64 {
    if delta.abs() < 1.0 {
        (sigmoid(u) * delta.exp_m1()).ln_1p()
    } else {
        softplus(u + delta) - softplus(u)
    }
}

/// The training objective — weighted mean log-loss plus
/// `l2/2·Σ_{j≥1} θ_j²` — over a column-major copy of the design, with the
/// passes Newton-CG makes, each one sweep down contiguous columns.
struct Objective<'a> {
    /// Column `j` is `columns[j·n .. (j+1)·n]`.
    columns: &'a [f64],
    labels: &'a [bool],
    /// Sample weights divided by their sum, so every sum below is a
    /// weighted mean.
    w: &'a [f64],
    l2: f64,
}

impl Objective<'_> {
    fn columns(&self) -> std::slice::ChunksExact<'_, f64> {
        self.columns.chunks_exact(self.labels.len())
    }

    /// `out = X̃v`, where `X̃` is the design with a leading ones column.
    fn apply(&self, v: &[f64], out: &mut [f64]) {
        out.iter_mut().for_each(|o| *o = v[0]);
        for (col, vj) in self.columns().zip(&v[1..]) {
            for (o, x) in out.iter_mut().zip(col) {
                *o += x * vj;
            }
        }
    }

    /// `out = X̃ᵀr + l2·v`, with no penalty on the intercept.
    fn apply_transposed(&self, r: &[f64], v: &[f64], out: &mut [f64]) {
        out[0] = r.iter().sum();
        for ((o, col), vj) in out[1..].iter_mut().zip(self.columns()).zip(&v[1..]) {
            *o = r.iter().zip(col).map(|(r, x)| r * x).sum::<f64>() + self.l2 * vj;
        }
    }

    /// Writes the gradient at θ and each row's curvature `w·p(1−p)`,
    /// given the margins `z = X̃θ`; `r` is scratch.
    fn gradient(&self, theta: &[f64], z: &[f64], r: &mut [f64], curv: &mut [f64], g: &mut [f64]) {
        for (((r, c), &z), (&y, w)) in r
            .iter_mut()
            .zip(curv.iter_mut())
            .zip(z)
            .zip(self.labels.iter().zip(self.w))
        {
            let p = sigmoid(z);
            *r = w * (p - f64::from(u8::from(y)));
            *c = w * p * (1.0 - p);
        }
        self.apply_transposed(r, theta, g);
    }

    /// `out = Hv = X̃ᵀ(curv ⊙ X̃v) + l2·v`; `scratch` holds `X̃v`.
    fn hessian_times(&self, curv: &[f64], v: &[f64], scratch: &mut [f64], out: &mut [f64]) {
        self.apply(v, scratch);
        scratch.iter_mut().zip(curv).for_each(|(s, c)| *s *= c);
        self.apply_transposed(scratch, v, out);
    }

    /// The change in loss from θ to `θ + t·step`, given the margins
    /// `z = X̃θ` and `xstep = X̃·step`.
    fn loss_change(&self, theta: &[f64], step: &[f64], z: &[f64], xstep: &[f64], t: f64) -> f64 {
        // A row's loss is softplus(z) when its label is 0, softplus(−z)
        // when it is 1.
        let data: f64 = z
            .iter()
            .zip(xstep)
            .zip(self.labels.iter().zip(self.w))
            .map(|((&z, &dz), (&y, w))| {
                let (u, du) = if y { (-z, -t * dz) } else { (z, t * dz) };
                w * softplus_change(u, du)
            })
            .sum();
        let penalty: f64 = theta[1..]
            .iter()
            .zip(&step[1..])
            .map(|(th, s)| t * s * (th + 0.5 * t * s))
            .sum();
        data + self.l2 * penalty
    }

    /// Minimizes the objective from θ = 0 by damped Newton-CG. Returns θ,
    /// the Newton steps taken, and whether the gradient max-norm fell
    /// below `tol`. `on_step` sees θ at the start and after every
    /// accepted step.
    fn minimize(&self, tol: f64, mut on_step: impl FnMut(&[f64])) -> (Vec<f64>, usize, bool) {
        let n = self.labels.len();
        let k = self.columns.len() / n + 1;
        let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(a, b)| a * b).sum::<f64>();
        let mut theta = vec![0.0; k];
        on_step(&theta);
        let [mut z, mut r, mut curv, mut xstep] = [(); 4].map(|_| vec![0.0; n]);
        let [mut g, mut step, mut resid, mut dir, mut hd] = [(); 5].map(|_| vec![0.0; k]);
        let mut iterations = 0;
        loop {
            self.gradient(&theta, &z, &mut r, &mut curv, &mut g);
            if g.iter().all(|gj| gj.abs() < tol) {
                return (theta, iterations, true);
            }
            if iterations == MAX_ITERATIONS {
                return (theta, iterations, false);
            }
            iterations += 1;

            // Conjugate gradient on H·step = −g from step = 0, stopped
            // once the residual is below η‖g‖ with the inexact-Newton
            // forcing term η = min(0.5, √‖g‖), or after 2k products.
            let g_norm = dot(&g, &g).sqrt();
            let target = g_norm * g_norm.sqrt().min(0.5);
            step.fill(0.0);
            resid.iter_mut().zip(&g).for_each(|(r, g)| *r = -g);
            dir.copy_from_slice(&resid);
            let mut rr = g_norm * g_norm;
            for _ in 0..2 * k {
                self.hessian_times(&curv, &dir, &mut r, &mut hd);
                let curvature = dot(&dir, &hd);
                if !(curvature > 0.0 && curvature.is_finite()) {
                    break;
                }
                let alpha = rr / curvature;
                step.iter_mut().zip(&dir).for_each(|(s, d)| *s += alpha * d);
                resid.iter_mut().zip(&hd).for_each(|(r, h)| *r -= alpha * h);
                let rr_next = dot(&resid, &resid);
                if rr_next.sqrt() <= target {
                    break;
                }
                let beta = rr_next / rr;
                rr = rr_next;
                dir.iter_mut()
                    .zip(&resid)
                    .for_each(|(d, r)| *d = r + beta * *d);
            }
            let mut slope = dot(&g, &step);
            if slope.is_nan() || slope >= 0.0 {
                // CG made no progress (a zero or numerically flat
                // Hessian): fall back to steepest descent.
                step.iter_mut().zip(&g).for_each(|(s, g)| *s = -g);
                slope = -g_norm * g_norm;
            }

            // Backtrack until the loss falls by the Armijo margin.
            self.apply(&step, &mut xstep);
            let Some(t) = std::iter::successors(Some(1.0), |t| Some(t * 0.5))
                .take(MAX_HALVINGS)
                .find(|&t| self.loss_change(&theta, &step, &z, &xstep, t) <= ARMIJO * t * slope)
            else {
                // No step lowers the loss: θ is as good as f64 can
                // resolve, but `tol` was not met.
                return (theta, iterations, false);
            };
            theta.iter_mut().zip(&step).for_each(|(th, s)| *th += t * s);
            z.iter_mut().zip(&xstep).for_each(|(z, dz)| *z += t * dz);
            on_step(&theta);
        }
    }
}

impl LogisticRegression {
    /// Creates an unfitted model with the given configuration.
    pub fn new(config: LogisticRegressionConfig) -> Result<Self, MlError> {
        config.validate()?;
        Ok(Self {
            config,
            theta: Vec::new(),
            scaler: None,
            iterations: 0,
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

    /// Number of Newton steps the last fit took.
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Whether the last fit brought the gradient max-norm below `tol`.
    pub fn converged(&self) -> bool {
        self.converged
    }

    fn design(&self, x: &Matrix) -> Result<Matrix, MlError> {
        match &self.scaler {
            Some(s) => s.transform(x),
            None => Ok(x.clone()),
        }
    }

    /// Validates the inputs, fits the scaler when `standardize` is on,
    /// and returns the (standardized) column-major design with the
    /// weights scaled to sum to one — the [`Objective`]'s inputs.
    fn prepare(
        &mut self,
        x: &Matrix,
        y: &[bool],
        sample_weight: Option<&[f64]>,
    ) -> Result<(Vec<f64>, Vec<f64>), MlError> {
        let mut w = validate_fit_inputs(x, y, sample_weight)?;
        let xs = if self.config.standardize {
            let mut scaler = StandardScaler::new();
            let xs = scaler.fit_transform(x)?;
            self.scaler = Some(scaler);
            xs
        } else {
            self.scaler = None;
            x.clone()
        };
        let sum_w: f64 = w.iter().sum();
        w.iter_mut().for_each(|v| *v /= sum_w);
        let columns = (0..xs.cols()).flat_map(|j| xs.column(j)).collect();
        Ok((columns, w))
    }
}

impl Classifier for LogisticRegression {
    fn fit(
        &mut self,
        x: &Matrix,
        y: &[bool],
        sample_weight: Option<&[f64]>,
    ) -> Result<(), MlError> {
        let (columns, w) = self.prepare(x, y, sample_weight)?;
        let objective = Objective {
            columns: &columns,
            labels: y,
            w: &w,
            l2: self.config.l2,
        };
        (self.theta, self.iterations, self.converged) = objective.minimize(self.config.tol, |_| {});
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

/// Plain full-batch gradient descent on the same objective, run to `tol`:
/// the reference the Newton-CG fit is tested against, here and in the
/// pipeline's tests. It needs thousands of epochs where Newton-CG needs
/// about ten steps, so nothing else should call it.
pub mod oracle {
    use super::*;

    /// Fits `config` by gradient descent, one pass per row, from θ = 0
    /// with the step `1/L`, where `L = ¼·Σ w·(1 + ‖x‖²) + l2` bounds the
    /// Hessian's largest eigenvalue. Stops once the gradient max-norm is
    /// below `config.tol` or after `max_epochs`;
    /// [`LogisticRegression::iterations`] then reports the epochs run.
    pub fn fit_by_gradient_descent(
        config: LogisticRegressionConfig,
        x: &Matrix,
        y: &[bool],
        sample_weight: Option<&[f64]>,
        max_epochs: usize,
    ) -> Result<LogisticRegression, MlError> {
        let mut model = LogisticRegression::new(config)?;
        let (_, w) = model.prepare(x, y, sample_weight)?;
        let xs = model.design(x)?;
        let (n, d) = (xs.rows(), xs.cols());
        let (l2, tol) = (model.config.l2, model.config.tol);
        let lipschitz = 0.25
            * (0..n)
                .map(|i| w[i] * (1.0 + xs.row(i).iter().map(|v| v * v).sum::<f64>()))
                .sum::<f64>()
            + l2;
        let mut theta = vec![0.0f64; d + 1];
        let mut grad = vec![0.0f64; d + 1];
        for _ in 0..max_epochs {
            model.iterations += 1;
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
            for (g, t) in grad[1..].iter_mut().zip(&theta[1..]) {
                *g += l2 * t;
            }
            if grad.iter().all(|g| g.abs() < tol) {
                model.converged = true;
                break;
            }
            for (t, g) in theta.iter_mut().zip(&grad) {
                *t -= g / lipschitz;
            }
        }
        model.theta = theta;
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::fit_by_gradient_descent;
    use super::*;
    use crate::rand_util::{normal, rng_from_seed};
    use rand::RngExt;

    /// A linearly separable toy problem in one dimension.
    fn toy() -> (Matrix, Vec<bool>) {
        let xs: Vec<Vec<f64>> = (0..40).map(|i| vec![i as f64 / 40.0]).collect();
        let y: Vec<bool> = (0..40).map(|i| i >= 20).collect();
        (Matrix::from_rows(&xs).unwrap(), y)
    }

    #[test]
    fn config_validation() {
        for l2 in [-1.0, f64::NAN, f64::INFINITY] {
            let c = LogisticRegressionConfig {
                l2,
                ..LogisticRegressionConfig::default()
            };
            assert!(LogisticRegression::new(c).is_err(), "l2 = {l2}");
        }
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

    /// Fits `config` by Newton-CG and returns the model with the loss,
    /// computed afresh, at θ = 0 and after every accepted step.
    fn fit_with_losses(
        config: LogisticRegressionConfig,
        x: &Matrix,
        y: &[bool],
        w: Option<&[f64]>,
    ) -> (LogisticRegression, Vec<f64>) {
        let mut model = LogisticRegression::new(config).unwrap();
        let (columns, w) = model.prepare(x, y, w).unwrap();
        let objective = Objective {
            columns: &columns,
            labels: y,
            w: &w,
            l2: model.config.l2,
        };
        let mut losses = Vec::new();
        let mut z = vec![0.0; y.len()];
        (model.theta, model.iterations, model.converged) =
            objective.minimize(model.config.tol, |theta| {
                objective.apply(theta, &mut z);
                let data: f64 = z
                    .iter()
                    .zip(y.iter().zip(&w))
                    .map(|(&z, (&y, w))| w * softplus(if y { -z } else { z }))
                    .sum();
                let penalty: f64 = theta[1..].iter().map(|t| t * t).sum();
                losses.push(data + 0.5 * objective.l2 * penalty);
            });
        (model, losses)
    }

    /// Finite θ, finite scores, and a loss that never rises across steps
    /// (by more than the rounding of a loss computed afresh).
    fn assert_well_behaved(case: &str, model: &LogisticRegression, losses: &[f64], x: &Matrix) {
        assert!(
            model.theta.iter().all(|t| t.is_finite()),
            "{case}: θ {:?}",
            model.theta
        );
        assert!(
            losses.iter().all(|l| l.is_finite()),
            "{case}: losses {losses:?}"
        );
        assert!(
            losses.windows(2).all(|l| l[1] <= l[0] + 1e-14 * l[0]),
            "{case}: loss rose: {losses:?}"
        );
        let scores = model.predict_proba(x).unwrap();
        assert!(scores.iter().all(|s| (0.0..=1.0).contains(s)), "{case}");
    }

    fn assert_matches_oracle(
        case: &str,
        config: LogisticRegressionConfig,
        x: &Matrix,
        y: &[bool],
        w: &[f64],
    ) {
        let (model, losses) = fit_with_losses(config.clone(), x, y, Some(w));
        assert!(model.converged(), "{case}: {} steps", model.iterations());
        assert_well_behaved(case, &model, &losses, x);
        let oracle = fit_by_gradient_descent(config, x, y, Some(w), 2_000_000).unwrap();
        assert!(
            oracle.converged(),
            "{case}: oracle ran {} epochs",
            oracle.iterations()
        );
        for (j, (a, b)) in model.theta.iter().zip(&oracle.theta).enumerate() {
            assert!((a - b).abs() < 1e-6, "{case}: θ[{j}] {a} vs oracle {b}");
        }
    }

    #[test]
    fn newton_cg_reaches_the_gradient_descent_optimum() {
        let mut rng = rng_from_seed(0x10_9e55);
        for case in 0..12 {
            // At l2 = 0 the optimum is finite only when the classes
            // overlap, so every design has enough noisy rows for that.
            let n = rng.random_range(60..=240usize);
            let d = rng.random_range(1..=6usize);
            let rows: Vec<Vec<f64>> = (0..n)
                .map(|_| (0..d).map(|_| normal(&mut rng, 0.5, 1.0)).collect())
                .collect();
            let x = Matrix::from_vec(n, d, rows.concat()).unwrap();
            let y: Vec<bool> = rows
                .iter()
                .map(|r| r.iter().sum::<f64>() / d as f64 + normal(&mut rng, 0.0, 1.0) > 0.5)
                .collect();
            let w: Vec<f64> = (0..n).map(|_| rng.random_range(0.05..5.0)).collect();
            let config = LogisticRegressionConfig {
                l2: [0.0, 1e-4, 0.3][case % 3],
                tol: 1e-10,
                standardize: case % 4 != 0,
            };
            assert_matches_oracle(&format!("case {case}: n={n} d={d}"), config, &x, &y, &w);
        }
    }

    #[test]
    fn newton_cg_reaches_the_optimum_of_a_wide_one_hot_design() {
        // 40 rows over 64 one-hot columns, some never set: more columns
        // than rows, so only the penalty pins the optimum down.
        let mut rng = rng_from_seed(0x0e_407);
        let (n, d) = (40, 64);
        let hot: Vec<usize> = (0..n).map(|_| rng.random_range(0..d)).collect();
        let mut x = Matrix::zeros(n, d);
        hot.iter().enumerate().for_each(|(i, &j)| x.set(i, j, 1.0));
        let y: Vec<bool> = hot
            .iter()
            .map(|&j| (j as f64 / d as f64) + normal(&mut rng, 0.0, 0.3) > 0.5)
            .collect();
        let w: Vec<f64> = (0..n).map(|_| rng.random_range(0.5..2.0)).collect();
        for standardize in [true, false] {
            let config = LogisticRegressionConfig {
                l2: 1e-2,
                tol: 1e-10,
                standardize,
            };
            assert_matches_oracle(&format!("standardize={standardize}"), config, &x, &y, &w);
        }
    }

    #[test]
    fn degenerate_inputs_stay_finite_and_descend() {
        let mut rng = rng_from_seed(0xde_9e4);
        let noisy: Vec<Vec<f64>> = (0..80)
            .map(|_| vec![normal(&mut rng, 0.0, 1.0), normal(&mut rng, 0.0, 1.0)])
            .collect();
        let noisy_y: Vec<bool> = noisy
            .iter()
            .map(|r| r[0] + normal(&mut rng, 0.0, 1.0) > 0.0)
            .collect();
        let defaults = LogisticRegressionConfig::default();
        let unpenalized = LogisticRegressionConfig {
            l2: 0.0,
            ..defaults.clone()
        };
        let (toy_x, toy_y) = toy();
        // Single class: the intercept's optimum lies at +∞.
        let single_x = Matrix::from_rows(&[vec![0.1], vec![0.4], vec![0.9], vec![0.3]]).unwrap();
        // A duplicated column leaves the unpenalized Hessian singular.
        let duplicated = Matrix::from_rows(
            &noisy
                .iter()
                .map(|r| vec![r[0], r[0], r[1]])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        // Unscaled features near 1e3 without standardization: the
        // intercept and the slope differ in curvature by ~1e6.
        let unscaled = Matrix::from_rows(
            &noisy
                .iter()
                .map(|r| vec![1e3 + 50.0 * r[1], 1e3 * r[0]])
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let cases: [(&str, LogisticRegressionConfig, &Matrix, Vec<bool>); 5] = [
            ("single class", defaults.clone(), &single_x, vec![true; 4]),
            (
                "single negative class",
                unpenalized.clone(),
                &single_x,
                vec![false; 4],
            ),
            ("separable", unpenalized.clone(), &toy_x, toy_y),
            (
                "duplicated column",
                unpenalized,
                &duplicated,
                noisy_y.clone(),
            ),
            (
                "unscaled",
                LogisticRegressionConfig {
                    standardize: false,
                    ..defaults
                },
                &unscaled,
                noisy_y,
            ),
        ];
        for (case, config, x, y) in cases {
            let (model, losses) = fit_with_losses(config, x, &y, None);
            assert_well_behaved(case, &model, &losses, x);
            // Even where the optimum lies at infinity, the gradient falls
            // below `tol` well within the step cap.
            assert!(model.converged(), "{case}: {} steps", model.iterations());
            if case == "duplicated column" {
                // Both copies of the column share the weight equally.
                let c = model.coefficients().unwrap();
                assert!((c[0] - c[1]).abs() < 1e-9, "{case}: {c:?}");
            }
        }
    }

    #[test]
    fn sigmoid_is_stable_at_extremes() {
        assert!((sigmoid(1000.0) - 1.0).abs() < 1e-12);
        assert!(sigmoid(-1000.0).abs() < 1e-12);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn softplus_is_stable_at_extremes() {
        assert_eq!(softplus(1000.0), 1000.0);
        assert!(softplus(-1000.0) >= 0.0 && softplus(-1000.0) < 1e-300);
        assert!((softplus(0.0) - 2f64.ln()).abs() < 1e-15);
    }
}
