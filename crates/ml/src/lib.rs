//! # fsi-ml — from-scratch ML substrate for fair spatial indexing
//!
//! The paper evaluates its partitioners with three scikit-learn
//! classifiers: logistic regression, a decision tree, and naive Bayes. This
//! crate implements those model families from scratch, deterministic and
//! dependency-free, together with the supporting machinery:
//!
//! * [`Matrix`] — a dense row-major `f64` design matrix.
//! * [`StandardScaler`] — z-score standardization.
//! * [`Classifier`] — the common fit/score interface;
//!   every trainer supports **per-sample weights**, which is what the
//!   re-weighting baseline (Kamiran–Calders) requires.
//! * [`LogisticRegression`] — weighted, L2-regularized, fitted by
//!   matrix-free Newton-CG to the gradient tolerance.
//! * [`DecisionTree`] — weighted CART with Gini
//!   impurity; leaf scores are (Laplace-smoothed) positive fractions.
//! * [`GaussianNb`] — weighted Gaussian naive
//!   Bayes.
//! * [`metrics`] — accuracy, precision/recall/F1, ROC-AUC, Brier, log-loss.
//! * [`calibration`] — mis-calibration `|e−o|`, calibration ratio `e/o`,
//!   binned ECE (the paper's Appendix A.1, 15 bins), reliability curves,
//!   and Platt scaling (the post-processing baseline of §3).
//! * [`split`] — seeded train/test and k-fold splitting.
//!
//! Determinism: every stochastic routine takes an explicit seed; repeated
//! runs produce bit-identical models and scores.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
pub mod dtree;
pub mod error;
pub mod isotonic;
pub mod logreg;
pub mod matrix;
pub mod metrics;
pub mod model;
pub mod naive_bayes;
pub mod rand_util;
pub mod scaler;
pub mod split;

pub use dtree::DecisionTree;
pub use error::MlError;
pub use logreg::LogisticRegression;
pub use matrix::Matrix;
pub use model::{Classifier, FittedModel};
pub use naive_bayes::GaussianNb;
pub use scaler::StandardScaler;
