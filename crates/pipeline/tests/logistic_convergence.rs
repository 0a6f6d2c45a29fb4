//! Every logistic fit the experiments make on the Los Angeles preset
//! (centroid encoding) converges, and scores as the gradient-descent
//! oracle run to the same `tol` does.
//!
//! A fit is fixed by its task, split seed, partition and whether the
//! re-weighting baseline weights it, so the sweep collects those inputs —
//! every final partition, every per-level partition the iterative
//! builder retrains on, and the base grid of the initial trainings — and
//! checks each distinct one once.

use fsi_core::{CellStats, CoreError, FairSplit, IterativeBuilder, Retrainer, TieBreak};
use fsi_data::synth::edgap::generate_los_angeles;
use fsi_data::{build_design_matrix, LocationEncoding, SpatialDataset};
use fsi_fairness::reweigh::reweigh;
use fsi_fairness::SpatialGroups;
use fsi_geo::Partition;
use fsi_ml::logreg::oracle::fit_by_gradient_descent;
use fsi_ml::logreg::LogisticRegressionConfig;
use fsi_ml::split::{train_test_split, TrainTestSplit};
use fsi_ml::{Classifier, LogisticRegression};
use fsi_pipeline::methods::per_cell_partition;
use fsi_pipeline::retrainer::MlRetrainer;
use fsi_pipeline::{
    run_multi_spec, run_spec, EvalReport, Method, ModelKind, MultiObjectiveSpec, PipelineSpec,
    RunConfig, TaskSpec,
};
use std::collections::HashSet;

/// Records every partition the iterative builder retrains on.
struct Recording<'a> {
    inner: MlRetrainer<'a>,
    partitions: Vec<Partition>,
}

impl Retrainer for Recording<'_> {
    fn retrain(&mut self, partition: &Partition) -> Result<CellStats, CoreError> {
        self.partitions.push(partition.clone());
        self.inner.retrain(partition)
    }
}

/// One logistic fit: its task's labels, its partition, and whether the
/// re-weighting baseline weights its training rows.
struct Fit {
    task: usize,
    partition: Partition,
    reweighted: bool,
}

/// The distinct fits the experiments make under split `seed`, whose
/// training rows are `train`; `act_labels` are the first task's labels.
fn fits(
    dataset: &SpatialDataset,
    tasks: &[TaskSpec],
    act_labels: &[bool],
    train: &[usize],
    seed: u64,
) -> Vec<Fit> {
    let config = RunConfig {
        seed,
        ..RunConfig::default()
    };
    let grid = dataset.grid();
    // The initial trainings of the fair methods, for both tasks.
    let mut fits: Vec<Fit> = (0..tasks.len())
        .map(|task| Fit {
            task,
            partition: per_cell_partition(grid),
            reweighted: false,
        })
        .collect();
    let single = |method, height, tie_break| {
        let spec = PipelineSpec {
            config: RunConfig {
                tie_break,
                ..config.clone()
            },
            ..PipelineSpec::new(tasks[0].clone(), method, height)
        };
        run_spec(dataset, &spec).unwrap().partition
    };
    for height in 1..=10 {
        for method in [
            Method::MedianKd,
            Method::FairKd,
            Method::IterativeFairKd,
            Method::GridReweight,
            Method::FairQuad,
        ] {
            fits.push(Fit {
                task: 0,
                partition: single(method, height, TieBreak::PreferBalanced),
                reweighted: method.uses_reweighting(),
            });
        }
        fits.push(Fit {
            task: 0,
            partition: single(Method::FairKd, height, TieBreak::FirstIndex),
            reweighted: false,
        });
        let mut recording = Recording {
            inner: MlRetrainer::new(
                dataset,
                act_labels,
                ModelKind::Logistic,
                LocationEncoding::CentroidXY,
                train,
            ),
            partitions: Vec::new(),
        };
        let spec = PipelineSpec::new(tasks[0].clone(), Method::IterativeFairKd, height);
        IterativeBuilder::new(spec.build_config())
            .unwrap()
            .build(grid, &FairSplit, &mut recording)
            .unwrap();
        for partition in recording.partitions {
            // The retrainer trains a single region on the base grid.
            let partition = if partition.num_regions() == 1 {
                per_cell_partition(grid)
            } else {
                partition
            };
            fits.push(Fit {
                task: 0,
                partition,
                reweighted: false,
            });
        }
    }
    fits.push(Fit {
        task: 0,
        partition: single(Method::ZipCode, 1, TieBreak::PreferBalanced),
        reweighted: false,
    });
    for height in [4, 6, 8, 10] {
        for method in [Method::MedianKd, Method::FairKd, Method::GridReweight] {
            let spec = MultiObjectiveSpec {
                config: config.clone(),
                ..MultiObjectiveSpec::new(tasks.to_vec(), vec![0.5, 0.5], method, height)
            };
            let partition = run_multi_spec(dataset, &spec).unwrap().partition;
            for task in 0..tasks.len() {
                fits.push(Fit {
                    task,
                    partition: partition.clone(),
                    reweighted: method.uses_reweighting(),
                });
            }
        }
    }
    let mut seen = HashSet::new();
    fits.retain(|f| seen.insert((f.task, f.partition.assignments().to_vec(), f.reweighted)));
    fits
}

/// Fits by Newton-CG and by the oracle; both must reach `tol`, and their
/// test ENCE and accuracy must agree within 1e-4.
fn check(dataset: &SpatialDataset, labels: &[bool], split: &TrainTestSplit, fit: &Fit) {
    let design = build_design_matrix(dataset, &fit.partition, LocationEncoding::CentroidXY)
        .unwrap()
        .matrix;
    let groups = SpatialGroups::from_partition(dataset.cells(), &fit.partition).unwrap();
    let x = design.select_rows(&split.train).unwrap();
    let y: Vec<bool> = split.train.iter().map(|&i| labels[i]).collect();
    let weights = fit.reweighted.then(|| {
        let assignment = split.train.iter().map(|&i| groups.group_of(i)).collect();
        let train_groups = SpatialGroups::new(assignment, groups.num_groups()).unwrap();
        reweigh(&y, &train_groups).unwrap().weights
    });
    let case = format!(
        "task {} over {} regions{}",
        fit.task,
        fit.partition.num_regions(),
        if fit.reweighted { ", re-weighted" } else { "" }
    );

    let mut newton = LogisticRegression::with_defaults();
    newton.fit(&x, &y, weights.as_deref()).unwrap();
    assert!(newton.converged(), "{case}: {} steps", newton.iterations());
    let oracle = fit_by_gradient_descent(
        LogisticRegressionConfig::default(),
        &x,
        &y,
        weights.as_deref(),
        100_000,
    )
    .unwrap();
    assert!(oracle.converged(), "{case}: oracle did not reach tol");

    let eval = |m: &LogisticRegression| {
        let scores = m.predict_proba(&design).unwrap();
        EvalReport::compute(&scores, labels, &groups, split).unwrap()
    };
    let (a, b) = (eval(&newton), eval(&oracle));
    assert!(
        (a.test.ence - b.test.ence).abs() < 1e-4,
        "{case}: test ENCE {} vs oracle {}",
        a.test.ence,
        b.test.ence
    );
    assert!(
        (a.test.accuracy - b.test.accuracy).abs() < 1e-4,
        "{case}: test accuracy {} vs oracle {}",
        a.test.accuracy,
        b.test.accuracy
    );
}

/// Checks every distinct fit the experiments make under split `seed`.
fn sweep(seed: u64) {
    let dataset = generate_los_angeles().unwrap();
    let tasks = [TaskSpec::act(), TaskSpec::employment()];
    let labels: Vec<Vec<bool>> = tasks
        .iter()
        .map(|t| dataset.threshold_labels(&t.outcome, t.threshold).unwrap())
        .collect();
    let split = train_test_split(dataset.len(), RunConfig::default().test_fraction, seed).unwrap();
    for fit in fits(&dataset, &tasks, &labels[0], &split.train, seed) {
        check(&dataset, &labels[fit.task], &split, &fit);
    }
}

// The experiments' three split seeds, one test each so they run in
// parallel.

#[test]
fn experiment_fits_converge_to_the_gradient_descent_optimum_on_seed_7() {
    sweep(7);
}

#[test]
fn experiment_fits_converge_to_the_gradient_descent_optimum_on_seed_17() {
    sweep(17);
}

#[test]
fn experiment_fits_converge_to_the_gradient_descent_optimum_on_seed_27() {
    sweep(27);
}
