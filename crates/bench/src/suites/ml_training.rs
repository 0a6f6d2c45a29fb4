//! Classifier fit/score throughput on the profile's workload
//! (7 design columns under the centroid encoding), plus one logistic fit
//! on a design wider than it is tall (one-hot regions of a 32×32 grid).

use super::Profile;
use crate::bench_dataset;
use criterion::{black_box, BenchmarkId, Criterion};
use fsi_data::{build_design_matrix, LocationEncoding};
use fsi_geo::Partition;
use fsi_pipeline::trainer::{train_and_score, ModelKind};

/// Registers the training suite under `ml_training/…` ids.
pub fn register(c: &mut Criterion, p: &Profile) {
    let dataset = bench_dataset(p.n_individuals, p.grid_side);
    let labels = dataset.threshold_labels("avg_act", 22.0).unwrap();
    let partition = Partition::uniform(dataset.grid(), 8, 8).unwrap();
    let design = build_design_matrix(&dataset, &partition, LocationEncoding::CentroidXY).unwrap();
    let train_idx: Vec<usize> = (0..dataset.len()).collect();

    let mut group = c.benchmark_group(format!(
        "ml_training/fit_and_score_{}x{}",
        p.n_individuals,
        design.matrix.cols()
    ));
    for kind in ModelKind::all() {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{kind:?}")),
            &kind,
            |b, &k| {
                b.iter(|| {
                    let out = train_and_score(k, &design.matrix, &labels, &train_idx, None)
                        .expect("training succeeds");
                    black_box(out.scores.len())
                })
            },
        );
    }
    group.finish();

    // One indicator column per cell of a 32×32 grid: more columns than
    // the smoke profile has rows. Here, unlike on the 7-column design, a
    // fit that forms the (d+1)² Hessian or takes thousands of plain
    // gradient steps costs far more than Newton-CG's passes.
    let wide = bench_dataset(p.n_individuals, 32);
    let wide_labels = wide.threshold_labels("avg_act", 22.0).unwrap();
    let cells = Partition::uniform(wide.grid(), 32, 32).unwrap();
    let wide_design = build_design_matrix(&wide, &cells, LocationEncoding::OneHot).unwrap();
    let wide_train: Vec<usize> = (0..wide.len()).collect();
    let mut group = c.benchmark_group(format!(
        "ml_training/fit_and_score_{}x{}_one_hot",
        p.n_individuals,
        wide_design.matrix.cols()
    ));
    group.bench_function(BenchmarkId::from_parameter("Logistic"), |b| {
        b.iter(|| {
            let out = train_and_score(
                ModelKind::Logistic,
                &wide_design.matrix,
                &wide_labels,
                &wide_train,
                None,
            )
            .expect("training succeeds");
            black_box(out.scores.len())
        })
    });
    group.finish();
}
