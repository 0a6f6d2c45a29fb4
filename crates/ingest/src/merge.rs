//! Deterministic merge of buffered records into a training dataset.
//!
//! The coordinator retrains on the merged dataset for every republish,
//! and a retrain must be reproducible (a from-scratch rebuild on the
//! same points serves the same bits) — so the merged dataset must be a
//! pure function of `(seed, task, records)` with a fixed row order.
//! [`merge_dataset`] appends one row per record in global accept
//! (`seq`) order:
//!
//! * **location** — the ingested coordinates (which drive every split
//!   decision);
//! * **features** — the seed dataset's per-column means (the stream
//!   carries no feature vector; the neutral row keeps the classifier's
//!   feature distribution centered);
//! * **task outcome** — the task threshold ± 1.0 by the observed label,
//!   so `threshold_labels` recovers exactly the ingested labels;
//! * **other outcomes** — their seed column means.

use crate::error::IngestError;
use crate::record::IngestRecord;
use fsi_data::SpatialDataset;
use fsi_geo::Point;
use fsi_ml::Matrix;
use fsi_pipeline::TaskSpec;

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

/// Appends `records` to `seed` as new individuals, in ascending `seq`
/// order. Returns a clone of the seed when `records` is empty. The
/// result is bit-deterministic: merging the same records into the same
/// seed, in any input order, builds identical datasets.
pub fn merge_dataset(
    seed: &SpatialDataset,
    task: &TaskSpec,
    records: &[IngestRecord],
) -> Result<SpatialDataset, IngestError> {
    if records.is_empty() {
        return Ok(seed.clone());
    }
    let mut ordered: Vec<IngestRecord> = records.to_vec();
    ordered.sort_unstable_by_key(|r| r.seq);

    // Seed column means, computed once in column order.
    let features = seed.features();
    let feature_means: Vec<f64> = (0..features.cols())
        .map(|c| column_mean(&features.column(c)))
        .collect();
    let outcome_names: Vec<String> = seed.outcome_names().to_vec();
    // Confirm the task outcome exists before building anything.
    let task_col = outcome_names
        .iter()
        .position(|n| n == &task.outcome)
        .ok_or_else(|| IngestError::Data(seed.outcome(&task.outcome).unwrap_err()))?;
    let outcome_means: Vec<f64> = outcome_names
        .iter()
        .map(|n| Ok(column_mean(seed.outcome(n)?)))
        .collect::<Result<_, fsi_data::DataError>>()?;

    let total = seed.len() + ordered.len();
    let mut rows: Vec<Vec<f64>> = Vec::with_capacity(total);
    rows.extend(features.iter_rows().map(|r| r.to_vec()));
    rows.extend(std::iter::repeat_n(feature_means, ordered.len()));

    let mut outcomes: Vec<Vec<f64>> = outcome_names
        .iter()
        .map(|n| Ok(seed.outcome(n)?.to_vec()))
        .collect::<Result<_, fsi_data::DataError>>()?;
    for record in &ordered {
        for (col, series) in outcomes.iter_mut().enumerate() {
            let value = if col == task_col {
                if record.label {
                    task.threshold + LABEL_MARGIN
                } else {
                    task.threshold - LABEL_MARGIN
                }
            } else {
                outcome_means[col]
            };
            series.push(value);
        }
    }

    let mut locations: Vec<Point> = seed.locations().to_vec();
    locations.extend(ordered.iter().map(|r| Point { x: r.x, y: r.y }));

    Ok(SpatialDataset::new(
        seed.grid().clone(),
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
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(labels[s.len() + i], r.label, "record #{i}");
        }
        // Appended locations are the ingested coordinates.
        assert_eq!(merged.locations()[s.len()].x, recs[0].x);
        assert_eq!(merged.locations()[s.len()].y, recs[0].y);
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
