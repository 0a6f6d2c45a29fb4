//! Persistence round-trips: trees, partitions and datasets survive
//! serialization and re-evaluate identically.

use fsi::{Method, Pipeline};
use fsi_core::{build_kd_tree, BuildConfig, CellStats, FairSplit, KdTree};
use fsi_data::synth::city::{CityConfig, CityGenerator};
use fsi_data::SpatialDataset;
use fsi_fairness::{ence, SpatialGroups};
use fsi_geo::Partition;
use std::io::BufReader;

fn dataset() -> SpatialDataset {
    CityGenerator::new(CityConfig {
        n_individuals: 250,
        grid_side: 16,
        seed: 31,
        ..CityConfig::default()
    })
    .unwrap()
    .generate()
    .unwrap()
}

#[test]
fn kd_tree_json_round_trip_preserves_locate() {
    let d = dataset();
    let labels = d.threshold_labels("avg_act", 22.0).unwrap();
    let scores = vec![0.5; d.len()];
    let stats = CellStats::new(
        d.grid(),
        &d.cell_populations(),
        &d.cell_sums(&scores).unwrap(),
        &d.cell_label_sums(&labels).unwrap(),
    )
    .unwrap();
    let tree = build_kd_tree(&stats, &FairSplit, &BuildConfig::with_height(4)).unwrap();
    let json = serde_json::to_string(&tree).unwrap();
    let back: KdTree = serde_json::from_str(&json).unwrap();
    assert_eq!(tree, back);
    for row in 0..16 {
        for col in 0..16 {
            assert_eq!(
                tree.locate(row, col).unwrap(),
                back.locate(row, col).unwrap()
            );
        }
    }
}

#[test]
fn partition_json_round_trip_reevaluates_identically() {
    let d = dataset();
    let run = Pipeline::on(&d)
        .method(Method::FairKd)
        .height(4)
        .run()
        .unwrap();
    let json = serde_json::to_string(&run.partition).unwrap();
    let back: Partition = serde_json::from_str(&json).unwrap();
    assert_eq!(run.partition, back);
    let groups = SpatialGroups::from_partition(d.cells(), &back).unwrap();
    let e = ence(&run.scores, &run.labels, &groups).unwrap();
    assert_eq!(e, run.eval.full.ence);
}

#[test]
fn dataset_csv_round_trip_reproduces_runs() {
    let d = dataset();
    let mut buf = Vec::new();
    fsi_data::csv::write_csv(&d, &mut buf).unwrap();
    let back = fsi_data::csv::read_csv(BufReader::new(buf.as_slice()), d.grid().clone()).unwrap();

    let a = Pipeline::on(&d)
        .method(Method::FairKd)
        .height(3)
        .run()
        .unwrap();
    let b = Pipeline::on(&back)
        .method(Method::FairKd)
        .height(3)
        .run()
        .unwrap();
    assert_eq!(a.scores, b.scores);
    assert_eq!(a.partition, b.partition);
    assert_eq!(a.eval.full.ence, b.eval.full.ence);
}

#[test]
fn eval_report_serializes() {
    let d = dataset();
    let run = Pipeline::on(&d)
        .method(Method::MedianKd)
        .height(3)
        .run()
        .unwrap();
    let json = serde_json::to_string(&run.eval).unwrap();
    let back: fsi::EvalReport = serde_json::from_str(&json).unwrap();
    assert_eq!(back.full.n, run.eval.full.n);
    assert_eq!(back.per_group.len(), run.eval.per_group.len());
}

#[test]
fn spec_configs_round_trip_as_identity() {
    use fsi::{ModelKind, MultiObjectiveSpec, PipelineSpec, RunConfig, TaskSpec, TieBreak};

    // The experiment-cell persistence format: spec → JSON → spec must be
    // the identity for every field, including non-default ones.
    let config = RunConfig {
        model: ModelKind::NaiveBayes,
        encoding: fsi::LocationEncoding::OneHot,
        seed: 424242,
        test_fraction: 0.125,
        zip_seeds: 17,
        tie_break: TieBreak::FirstIndex,
    };
    let json = serde_json::to_string(&config).unwrap();
    let back: RunConfig = serde_json::from_str(&json).unwrap();
    assert_eq!(config, back);

    let task = TaskSpec {
        outcome: "family_employment_pct".into(),
        threshold: 12.5,
    };
    let json = serde_json::to_string(&task).unwrap();
    let back: TaskSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(task, back);

    let spec = PipelineSpec {
        task,
        method: Method::GridReweight,
        height: 9,
        reweight_blocks: Some((32, 16)),
        config: config.clone(),
    };
    let json = serde_json::to_string_pretty(&spec).unwrap();
    let back: PipelineSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(spec, back);

    let multi = MultiObjectiveSpec {
        tasks: vec![TaskSpec::act(), TaskSpec::employment()],
        alphas: vec![0.125, 0.875],
        method: Method::MedianKd,
        height: 4,
        config,
    };
    let json = serde_json::to_string(&multi).unwrap();
    let back: MultiObjectiveSpec = serde_json::from_str(&json).unwrap();
    assert_eq!(multi, back);
}

#[test]
fn saved_run_report_restores_spec_and_partition() {
    let d = dataset();
    let run = Pipeline::on(&d)
        .method(Method::FairKd)
        .height(3)
        .seed(77)
        .run()
        .unwrap();
    // Unique per process so concurrent test runs sharing one TMPDIR
    // cannot race on the report file.
    let dir = std::env::temp_dir().join(format!("fsi_persistence_test_{}", std::process::id()));
    let path = dir.join("report.json");
    run.save_report(&path).unwrap();
    let json = std::fs::read_to_string(&path).unwrap();
    let report: fsi::RunReport = serde_json::from_str(&json).unwrap();
    assert_eq!(&report.spec, run.spec());
    assert_eq!(&report.partition, run.partition());
    assert_eq!(report.eval.num_regions, run.eval.num_regions);
    // Replaying the restored spec reproduces the run bit-identically.
    let replay = fsi::Pipeline::from_spec(&d, report.spec).run().unwrap();
    assert_eq!(replay.scores, run.scores);
    assert_eq!(replay.partition, run.partition);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn saved_run_report_matches_golden_bytes() {
    let d = dataset();
    let run = Pipeline::on(&d)
        .method(Method::FairKd)
        .height(3)
        .seed(77)
        .run()
        .unwrap();
    let dir = std::env::temp_dir().join(format!("fsi_golden_report_{}", std::process::id()));
    let path = dir.join("report.json");
    run.save_report(&path).unwrap();
    let json = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_dir_all(&dir).ok();
    // Pins the run's scores as well as their encoding: a change to
    // training or evaluation that moves any score re-captures this file.
    assert_eq!(json, include_str!("golden/run_report.json"));
}

#[test]
fn golden_report_document_round_trips_byte_for_byte() {
    // Written before the codec went streaming (and before training
    // solved the logistic fit): whatever the current scores are, a
    // persisted document must decode and re-encode to the same bytes.
    let golden = include_str!("golden/run_report_format.json");
    let report: fsi::RunReport = serde_json::from_str(golden).unwrap();
    assert_eq!(serde_json::to_string_pretty(&report).unwrap(), golden);
}

#[test]
fn quadtree_json_round_trip() {
    use fsi_core::{FairQuadtree, QuadConfig};
    let d = dataset();
    let labels = d.threshold_labels("avg_act", 22.0).unwrap();
    let scores = vec![0.4; d.len()];
    let stats = CellStats::new(
        d.grid(),
        &d.cell_populations(),
        &d.cell_sums(&scores).unwrap(),
        &d.cell_label_sums(&labels).unwrap(),
    )
    .unwrap();
    let quad = FairQuadtree::build(&stats, &QuadConfig::default()).unwrap();
    let json = serde_json::to_string(&quad).unwrap();
    let back: FairQuadtree = serde_json::from_str(&json).unwrap();
    assert_eq!(quad, back);
    assert_eq!(
        quad.partition(d.grid()).unwrap(),
        back.partition(d.grid()).unwrap()
    );
}
