//! Streaming ingestion end to end: a served fair index accepts a live
//! feed of observed points over HTTP while answering queries, a
//! background maintenance thread watches the drift the feed induces,
//! and when the policy trips it retrains on the merged data and
//! hot-swaps the index — readers never block.
//!
//! ```sh
//! cargo run --release -p fsi --example streaming
//! ```

use fsi::{MaintenanceSpec, Method, Pipeline, Request, Response, TaskSpec};
use fsi_data::synth::city::{CityConfig, CityGenerator};
use std::time::{Duration, Instant};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = CityGenerator::new(CityConfig {
        n_individuals: 400,
        grid_side: 16,
        seed: 11,
        ..CityConfig::default()
    })?
    .generate()?;

    // Train and deploy with streaming ingestion: appended points land
    // in a delta buffer over the frozen snapshot, and this policy
    // decides when drift (or buffer occupancy) warrants folding them in
    // through a background rebuild.
    let policy = MaintenanceSpec {
        drift_threshold: 0.05,
        max_buffered: 4096,
        max_staleness_ms: 0,
        poll_interval_ms: 25,
    };
    let serving = Pipeline::on(&dataset)
        .task(TaskSpec::act())
        .method(Method::FairKd)
        .height(5)
        .run()?
        .serve_with_ingest(policy)?;

    let service = serving.service();
    let maintenance = serving.spawn_maintenance(&service)?;
    let server = fsi::HttpServer::bind(service, "127.0.0.1:0")?;
    println!("serving with live ingestion on http://{}", server.addr());

    let mut client = fsi::HttpClient::connect(server.addr())?;
    let before = match client.call(&Request::Lookup { x: 0.82, y: 0.83 })? {
        Response::Decision { decision } => decision,
        other => return Err(format!("unexpected lookup answer: {other:?}").into()),
    };
    println!(
        "before the feed: (0.82, 0.83) -> neighborhood {} calibrated {:.4}",
        before.leaf_id, before.calibrated_score
    );

    // A concentrated wave of new observations in the north-east corner:
    // one cohort, mostly positive outcomes — exactly the local shift the
    // drift detector scores against the frozen snapshot's statistics.
    let mut streamed = 0u64;
    for wave in 0..8u32 {
        let points: Vec<fsi::IngestBody> = (0..64u32)
            .map(|i| {
                let x = 0.75 + 0.03 * f64::from(i % 8) + 0.001 * f64::from(wave);
                let y = 0.75 + 0.03 * f64::from(i / 8);
                fsi::IngestBody::new(x, y, 1, i % 4 != 0)
            })
            .collect();
        match client.call(&Request::IngestBatch { points })? {
            Response::Ingested {
                accepted, buffered, ..
            } => {
                streamed += accepted;
                if wave % 4 == 3 {
                    println!("streamed {streamed} points ({buffered} buffered)");
                }
            }
            other => return Err(format!("unexpected ingest answer: {other:?}").into()),
        }
    }

    // The maintenance thread notices the drift on its next poll,
    // retrains on seed ∪ streamed points, and republishes. Wait for the
    // generation bump (readers keep answering generation 1 meanwhile).
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut generation = 1;
    while generation < 2 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(25));
        if let Response::Stats { stats } = client.call(&Request::Stats)? {
            generation = stats.generations.iter().copied().max().unwrap_or(1);
        }
    }
    if generation < 2 {
        return Err("maintenance never republished within 60s".into());
    }
    println!(
        "\nmaintenance rebuilt to generation {generation} \
         ({} background rebuilds so far)",
        maintenance.rebuilds()
    );

    let after = match client.call(&Request::Lookup { x: 0.82, y: 0.83 })? {
        Response::Decision { decision } => decision,
        other => return Err(format!("unexpected lookup answer: {other:?}").into()),
    };
    println!(
        "after the rebuild: (0.82, 0.83) -> neighborhood {} calibrated {:.4}",
        after.leaf_id, after.calibrated_score
    );

    // The telemetry surface carries the whole story: accepted points,
    // nothing left pending, the re-measured (now ~zero) drift score, and
    // the maintenance pass duration histogram.
    if let Response::Metrics { metrics } = client.call(&Request::Metrics)? {
        if let Some(ingest) = &metrics.ingest {
            println!(
                "\ntelemetry: accepted={} rejected={} buffered={} drift={:.4} \
                 maintenance_rebuilds={}",
                ingest.accepted,
                ingest.rejected,
                ingest.buffered,
                ingest.drift_score,
                ingest.maintenance.count()
            );
            assert_eq!(ingest.accepted, streamed);
            assert_eq!(ingest.buffered, 0, "the rebuild must merge every point");
        }
    }

    let published = maintenance.stop();
    println!("stopped maintenance after {published} background rebuilds");
    server.shutdown();
    Ok(())
}
