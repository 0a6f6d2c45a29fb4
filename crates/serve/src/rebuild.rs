//! Building served indexes: run the training pipeline for a
//! [`PipelineSpec`] and compile the result. A live deployment
//! republishes through [`crate::QueryService`]'s two-phase barrier
//! (`Rebuild`), which trains and compiles the same way on the
//! coordinator and ships the trained model to every shard.

use crate::error::ServeError;
use crate::frozen::FrozenIndex;
use fsi_data::SpatialDataset;
use fsi_pipeline::{run_spec, MethodRun, ModelSnapshot, PipelineSpec};

/// Builds a [`FrozenIndex`] from scratch for one [`PipelineSpec`]: runs
/// the full training pipeline, extracts the model snapshot, and compiles
/// the index. Returns the index together with the pipeline run (for its
/// evaluation report).
pub fn build_index(
    dataset: &SpatialDataset,
    spec: &PipelineSpec,
) -> Result<(FrozenIndex, MethodRun), ServeError> {
    let run = run_spec(dataset, spec)?;
    let index = compile_run(&run, dataset)?;
    Ok((index, run))
}

/// Compiles an already finished pipeline run into a [`FrozenIndex`].
///
/// Every method's run carries its partition — for the tree-backed
/// methods (`MedianKd`, `FairKd`, `IterativeFairKd`) that is
/// [`fsi_core::KdTree::partition`] of the run's tree — and the index is
/// that partition's per-cell leaf table.
pub fn compile_run(run: &MethodRun, dataset: &SpatialDataset) -> Result<FrozenIndex, ServeError> {
    let snapshot: ModelSnapshot = run.model_snapshot()?;
    FrozenIndex::from_partition(&run.partition, dataset.grid(), &snapshot)
}

/// What a finished rebuild did.
///
/// Lives in `fsi-proto` (as the body of a `Rebuild` response) and is
/// re-exported here, so the wire protocol and the library rebuild APIs
/// share one serializable representation.
pub use fsi_proto::RebuildReport;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IndexHandle, QueryService, Topology};
    use fsi_data::synth::city::{CityConfig, CityGenerator};
    use fsi_geo::Point;
    use fsi_pipeline::{Method, TaskSpec};
    use fsi_proto::{Request, Response};
    use std::sync::Arc;

    fn small_dataset() -> SpatialDataset {
        CityGenerator::new(CityConfig {
            n_individuals: 250,
            grid_side: 16,
            seed: 11,
            ..CityConfig::default()
        })
        .unwrap()
        .generate()
        .unwrap()
    }

    fn spec(method: Method, height: usize) -> PipelineSpec {
        PipelineSpec::new(TaskSpec::act(), method, height)
    }

    #[test]
    fn build_index_serves_the_run_partition() {
        let d = small_dataset();
        let (index, run) = build_index(&d, &spec(Method::MedianKd, 3)).unwrap();
        assert_eq!(index.num_leaves(), run.partition.num_regions());
        for (i, p) in d.locations().iter().enumerate().take(50) {
            let expected = run.partition.region_of(d.cells()[i]);
            assert_eq!(index.lookup(p).unwrap().leaf_id, expected);
        }
    }

    #[test]
    fn non_tree_methods_fall_back_to_the_cells_backend() {
        let d = small_dataset();
        let (index, run) = build_index(&d, &spec(Method::ZipCode, 3)).unwrap();
        assert_eq!(index.backend_name(), "cells");
        assert_eq!(index.num_leaves(), run.partition.num_regions());
        for (i, p) in d.locations().iter().enumerate().take(50) {
            let expected = run.partition.region_of(d.cells()[i]);
            assert_eq!(index.lookup(p).unwrap().leaf_id, expected);
        }
        // Tree-backed methods compile to the same table, keyed by the
        // tree's own leaf ids.
        let (index, run) = build_index(&d, &spec(Method::MedianKd, 3)).unwrap();
        assert_eq!(index.backend_name(), "cells");
        let tree = run.tree.as_ref().expect("a KD method keeps its tree");
        for p in d.locations().iter().take(50) {
            let (row, col) = d.grid().cell_of(p).unwrap();
            assert_eq!(
                index.lookup(p).unwrap().leaf_id,
                tree.locate(row, col).unwrap()
            );
        }
    }

    /// A single-slot service over `handle` that rebuilds on `d`.
    fn service(handle: &IndexHandle, d: SpatialDataset) -> QueryService {
        QueryService::new(Topology::single(handle.clone())).with_rebuild(Arc::new(d))
    }

    fn rebuilt(response: Response) -> RebuildReport {
        match response {
            Response::Rebuilt { report } => *report,
            other => panic!("expected a rebuild report, got {other:?}"),
        }
    }

    #[test]
    fn rebuild_publishes_a_new_generation() {
        let d = small_dataset();
        let (initial, _) = build_index(&d, &spec(Method::MedianKd, 2)).unwrap();
        let handle = IndexHandle::new(initial);
        let mut reader = handle.reader();
        assert_eq!(reader.snapshot().num_leaves(), 4);

        let fair = spec(Method::FairKd, 4);
        let report =
            rebuilt(service(&handle, d).dispatch(&Request::Rebuild { spec: fair.clone() }));
        assert_eq!(report.generation, 2);
        assert_eq!(report.num_leaves, 16);
        assert_eq!(report.spec, fair);
        assert!(report.total_time >= report.build_time);
        // The reader sees the fair index on its next snapshot call.
        assert_eq!(reader.snapshot().num_leaves(), 16);
        assert!(reader.snapshot().lookup(&Point::new(0.5, 0.5)).is_some());
    }

    #[test]
    fn spawned_rebuild_joins_with_report() {
        let d = small_dataset();
        let (initial, _) = build_index(&d, &spec(Method::MedianKd, 2)).unwrap();
        let handle = IndexHandle::new(initial);
        let mut service = service(&handle, d);
        let request = Request::Rebuild {
            spec: spec(Method::MedianKd, 3),
        };
        let join = std::thread::spawn(move || service.dispatch(&request));
        let report = rebuilt(join.join().expect("rebuild thread panicked"));
        assert_eq!(report.generation, 2);
        assert_eq!(handle.load().num_leaves(), report.num_leaves);
    }
}
