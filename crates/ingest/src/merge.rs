//! Deterministic merge of ingested points into a training dataset.
//!
//! The coordinator retrains on the merged dataset for every republish,
//! and a retrain must be reproducible (a from-scratch rebuild on the
//! same points serves the same bits), so the merged dataset is a pure
//! function of `(seed, task, per-cell counts)`. An ingested point
//! reaches training only through its base-grid cell and its label: the
//! splits read per-cell sums and every location encoding reads the
//! region. [`merge_counts`] therefore walks the cells in row-major
//! order and appends, per cell, its positive rows and then its negative
//! rows, each one:
//!
//! * **location** — the cell's centroid;
//! * **features** — the seed dataset's per-column means (the stream
//!   carries no feature vector; the neutral row keeps the classifier's
//!   feature distribution centered);
//! * **task outcome** — the task threshold ± 1.0 by the label, so
//!   `threshold_labels` recovers exactly the ingested labels;
//! * **other outcomes** — their seed column means.
//!
//! Counts commute, so every permutation of the same points merges into
//! the same dataset. [`merge_dataset`] folds a record slice into those
//! counts first.

use crate::error::IngestError;
use crate::record::IngestRecord;
use fsi_data::{DataError, SpatialDataset};
use fsi_geo::Point;
use fsi_ml::Matrix;
use fsi_pipeline::TaskSpec;
use std::iter::repeat_n;

/// Offset applied to the task threshold so a merged row's outcome
/// thresholds back to its ingested label.
const LABEL_MARGIN: f64 = 1.0;

fn column_mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Folds `records` into per-cell counts of the seed's grid and merges
/// them ([`merge_counts`]); their order and `seq` do not matter. A
/// record outside the grid is an error.
pub fn merge_dataset(
    seed: &SpatialDataset,
    task: &TaskSpec,
    records: &[IngestRecord],
) -> Result<SpatialDataset, IngestError> {
    let grid = seed.grid();
    let mut cells = (vec![0.0; grid.len()], vec![0.0; grid.len()]);
    for r in records {
        let cell = grid.locate(&Point::new(r.x, r.y)).map_err(DataError::Geo)?;
        cells.0[cell] += 1.0;
        cells.1[cell] += f64::from(u8::from(r.label));
    }
    merge_counts(seed, task, &cells)
}

/// Appends to `seed`, per cell of its grid, `cells.0[cell]` rows of
/// which the first `cells.1[cell]` are positive: row-major `(count,
/// positive)` sums, the shape `CellStats::with_deltas` takes. Returns a
/// clone of the seed when every count is zero.
pub fn merge_counts(
    seed: &SpatialDataset,
    task: &TaskSpec,
    cells: &(Vec<f64>, Vec<f64>),
) -> Result<SpatialDataset, IngestError> {
    let grid = seed.grid();
    let (counts, positives) = cells;
    if let Some(sums) = [counts, positives]
        .into_iter()
        .find(|s| s.len() != grid.len())
    {
        let (expected, got) = (grid.len(), sums.len());
        let what = "per-cell sums".into();
        return Err(DataError::LengthMismatch {
            expected,
            got,
            what,
        }
        .into());
    }
    let mut locations: Vec<Point> = seed.locations().to_vec();
    let mut labels: Vec<bool> = Vec::new();
    for (cell, (&n, &p)) in counts.iter().zip(positives).enumerate() {
        let at = grid.centroid(cell).map_err(DataError::Geo)?;
        locations.extend(repeat_n(at, n as usize));
        labels.extend((0..n as usize).map(|row| row < p as usize));
    }
    if labels.is_empty() {
        return Ok(seed.clone());
    }
    // Confirm the task outcome exists before building anything.
    seed.outcome(&task.outcome)?;

    // Seed column means, computed once in column order.
    let features = seed.features();
    let feature_means: Vec<f64> = (0..features.cols())
        .map(|c| column_mean(&features.column(c)))
        .collect();
    let rows: Vec<Vec<f64>> = features
        .iter_rows()
        .map(<[f64]>::to_vec)
        .chain(repeat_n(feature_means, labels.len()))
        .collect();
    let outcome_names: Vec<String> = seed.outcome_names().to_vec();
    let outcomes = outcome_names
        .iter()
        .map(|name| {
            let column = seed.outcome(name)?;
            let mean = column_mean(column);
            let appended = labels
                .iter()
                .map(|&label| match (name == &task.outcome, label) {
                    (true, true) => task.threshold + LABEL_MARGIN,
                    (true, false) => task.threshold - LABEL_MARGIN,
                    (false, _) => mean,
                });
            Ok(column.iter().copied().chain(appended).collect())
        })
        .collect::<Result<Vec<Vec<f64>>, DataError>>()?;

    Ok(SpatialDataset::new(
        grid.clone(),
        seed.feature_names().to_vec(),
        Matrix::from_rows(&rows)?,
        outcome_names,
        outcomes,
        locations,
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_data::synth::city::{CityConfig, CityGenerator};
    use fsi_pipeline::TaskSpec;

    fn seed() -> SpatialDataset {
        CityGenerator::new(CityConfig {
            n_individuals: 120,
            grid_side: 8,
            seed: 11,
            ..Default::default()
        })
        .unwrap()
        .generate()
        .unwrap()
    }

    fn records() -> Vec<IngestRecord> {
        (0..10)
            .map(|i| IngestRecord {
                seq: i,
                x: (i as f64 + 0.5) / 10.0,
                y: 0.52,
                group: (i % 3) as u32,
                label: i % 2 == 0,
            })
            .collect()
    }

    #[test]
    fn empty_delta_merges_to_the_seed_itself() {
        let s = seed();
        let merged = merge_dataset(&s, &TaskSpec::act(), &[]).unwrap();
        assert_eq!(merged.len(), s.len());
        assert_eq!(
            merged.outcome("avg_act").unwrap(),
            s.outcome("avg_act").unwrap()
        );
    }

    #[test]
    fn merged_rows_threshold_back_to_their_ingested_labels() {
        let s = seed();
        let task = TaskSpec::act();
        let recs = records();
        let merged = merge_dataset(&s, &task, &recs).unwrap();
        assert_eq!(merged.len(), s.len() + recs.len());
        let labels = merged
            .threshold_labels(&task.outcome, task.threshold)
            .unwrap();
        // Appended rows sit at their cells' centroids, cell by cell in
        // row-major order, positives before negatives.
        let grid = s.grid();
        let mut expected: Vec<(usize, bool)> = recs
            .iter()
            .map(|r| (grid.locate(&Point { x: r.x, y: r.y }).unwrap(), r.label))
            .collect();
        expected.sort_by_key(|&(cell, label)| (cell, !label));
        for (i, &(cell, label)) in expected.iter().enumerate() {
            let row = s.len() + i;
            assert_eq!(labels[row], label, "row #{row}");
            assert_eq!(merged.cells()[row], cell, "row #{row}");
            assert_eq!(merged.locations()[row], grid.centroid(cell).unwrap());
        }
    }

    #[test]
    fn a_record_outside_the_grid_is_an_error() {
        let s = seed();
        let mut recs = records();
        recs[3].x = 7.5;
        assert!(matches!(
            merge_dataset(&s, &TaskSpec::act(), &recs),
            Err(IngestError::Data(DataError::Geo(_)))
        ));
    }

    #[test]
    fn merge_is_order_insensitive_in_input_but_fixed_in_output() {
        let s = seed();
        let task = TaskSpec::act();
        let recs = records();
        let mut shuffled = recs.clone();
        shuffled.reverse();
        let a = merge_dataset(&s, &task, &recs).unwrap();
        let b = merge_dataset(&s, &task, &shuffled).unwrap();
        // Bit-identical: same locations, same outcomes, same features.
        assert_eq!(a.locations(), b.locations());
        assert_eq!(a.outcome("avg_act").unwrap(), b.outcome("avg_act").unwrap());
        for (ra, rb) in a.features().iter_rows().zip(b.features().iter_rows()) {
            assert_eq!(ra, rb);
        }
    }

    #[test]
    fn unknown_task_outcome_is_rejected() {
        let s = seed();
        let task = TaskSpec {
            outcome: "nope".into(),
            threshold: 1.0,
        };
        assert!(matches!(
            merge_dataset(&s, &task, &records()),
            Err(IngestError::Data(_))
        ));
    }
}
