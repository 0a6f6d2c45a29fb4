//! A small CLI: fair re-districting of a CSV dataset, and an online
//! query server over the saved districting.
//!
//! Build mode (default) reads a dataset in the `fsi-data` CSV layout (or
//! generates the LA preset when no path is given), builds a districting
//! with the requested method and height through `fsi::Pipeline`, prints
//! the per-neighborhood calibration table, and writes the partition to
//! JSON so downstream tools can consume the boundaries.
//!
//! Serve mode loads `reports/partition.json` (building it first if
//! absent), retrains the final model for those boundaries, compiles a
//! `FrozenIndex`, wires it into a `QueryService`, and answers queries
//! from stdin via `fsi::repl` — the same typed protocol the HTTP
//! transport speaks, as a line-oriented text surface (malformed lines
//! get an `error:` response; the loop never dies).
//!
//! ```sh
//! cargo run --release -p fsi --example redistricting_cli -- [CSV_PATH] [METHOD] [HEIGHT]
//! # METHOD: median | fair | iterative | reweight | zip | quad  (default fair)
//! # HEIGHT: tree height (default 6)
//!
//! cargo run --release -p fsi --example redistricting_cli -- serve [CSV_PATH] \
//!     [--topology FILE] [--resilience FILE] [--shard-of IDX] \
//!     [--listen ADDR] [--metrics] [--auto-rebuild]
//! # --topology FILE:  serve a TopologySpec JSON ({"rows":R,"cols":C,"shards":[…]})
//! #                   as the scatter-gather coordinator; "local" slots are served
//! #                   in-process, "http://host:port" slots by remote shard servers
//! # --resilience FILE: a ResiliencePolicy JSON; replica slots of the topology
//! #                   ({"replicas":[…]}) fail over under it (retries with
//! #                   backoff, per-replica circuit breakers — requires --topology)
//! # --shard-of IDX:   serve only shard IDX of the topology (a partial index
//! #                   holding just that slot's leaves) — run one per slot
//! # --listen ADDR:    speak HTTP/1.1 JSON on ADDR instead of the stdin REPL
//! #                   (EOF on stdin stops the server)
//! # --metrics:        print the Prometheus text exposition when the server
//! #                   stops; with --listen the same text is scraped live
//! #                   from GET /metrics
//! # --auto-rebuild:   accept streamed observations (`ingest X Y G [L]` on the
//! #                   REPL, `Ingest`/`IngestBatch` over HTTP) and retrain +
//! #                   hot-swap in the background when the drift policy trips
//! # then on stdin:   X Y                  → one decision per line
//! #                  batch X1 Y1 X2 Y2 …  → batched decisions
//! #                  rect X0 Y0 X1 Y1     → neighborhoods touching the box
//! #                  stats                → per-shard generations / size
//! #                  metrics              → one-line telemetry snapshot
//! #                  ingest X Y G [L]     → append one observation to the delta buffer
//! #                  rebuild <spec JSON>  → retrain + hot-swap every shard
//! #                  prepare <spec JSON> / commit → two-phase rebuild barrier
//! ```

use fsi::{
    repl, snapshot_for_partition, FrozenIndex, Method, Partition, Pipeline, QueryService,
    RemoteShard, Run, RunConfig, TaskSpec, Topology, TopologySpec,
};
use fsi_data::synth::edgap::generate_los_angeles;
use fsi_data::SpatialDataset;
use fsi_geo::{Grid, Rect};
use fsi_serve::IndexHandle;
use std::io::BufReader;
use std::sync::Arc;

const PARTITION_PATH: &str = "reports/partition.json";

fn parse_method(s: &str) -> Option<Method> {
    Some(match s {
        "median" => Method::MedianKd,
        "fair" => Method::FairKd,
        "iterative" => Method::IterativeFairKd,
        "reweight" => Method::GridReweight,
        "zip" => Method::ZipCode,
        "quad" => Method::FairQuad,
        _ => return None,
    })
}

fn load_dataset(path: Option<&str>) -> Result<SpatialDataset, Box<dyn std::error::Error>> {
    match path {
        Some(path) => {
            let file = std::fs::File::open(path)
                .map_err(|e| format!("cannot open dataset CSV `{path}`: {e}"))?;
            let grid = Grid::new(Rect::unit(), 64, 64)?;
            Ok(fsi_data::csv::read_csv(BufReader::new(file), grid)?)
        }
        None => Ok(generate_los_angeles()?),
    }
}

/// Builds a districting, prints its calibration table, and persists the
/// partition for downstream consumers (including serve mode).
fn build(
    dataset: &SpatialDataset,
    method: Method,
    height: usize,
) -> Result<Run<'_>, Box<dyn std::error::Error>> {
    println!(
        "re-districting {} individuals with {} at height {height}",
        dataset.len(),
        method.name()
    );
    let run = Pipeline::on(dataset)
        .task(TaskSpec::act())
        .method(method)
        .height(height)
        .run()?;

    println!(
        "\n{} neighborhoods ({} populated) | ENCE {:.4} | overall miscal {:.4} | test acc {:.3}",
        run.eval().num_regions,
        run.eval().occupied_regions,
        run.eval().full.ence,
        run.eval().full.miscalibration,
        run.eval().test.accuracy
    );
    println!(
        "\n{:>6} {:>6} {:>8} {:>8} {:>8}",
        "region", "pop", "e", "o", "|e-o|"
    );
    for (id, g) in run.eval().per_group.iter().enumerate() {
        if g.count > 0 {
            println!(
                "{id:>6} {:>6} {:>8.3} {:>8.3} {:>8.3}",
                g.count, g.mean_score, g.positive_fraction, g.absolute_error
            );
        }
    }

    // Persist the districting for downstream consumers.
    std::fs::create_dir_all("reports")?;
    std::fs::write(
        PARTITION_PATH,
        serde_json::to_string_pretty(run.partition())?,
    )?;
    println!("\npartition written to {PARTITION_PATH}");
    Ok(run)
}

/// How `serve` deploys the compiled index.
struct ServeConfig {
    /// Coordinator topology spec (`--topology FILE`).
    topology: Option<TopologySpec>,
    /// Resilience policy for replica slots (`--resilience FILE`).
    resilience: Option<fsi::ResiliencePolicy>,
    /// Serve only this shard of the topology (`--shard-of IDX`).
    shard_of: Option<usize>,
    /// Speak HTTP on this address instead of the stdin REPL.
    listen: Option<String>,
    /// Print the Prometheus text exposition when the server stops
    /// (`--metrics`); with `--listen` it is also scraped live from
    /// `GET /metrics`.
    metrics: bool,
    /// Enable streaming ingestion plus a background maintenance thread
    /// that retrains and hot-swaps when the drift policy trips
    /// (`--auto-rebuild`).
    auto_rebuild: bool,
}

/// Loads the saved partition (building the default districting first
/// when it is missing), compiles a `FrozenIndex`, and answers queries
/// from stdin (or HTTP with `--listen`) until EOF.
fn serve(dataset: &SpatialDataset, config: ServeConfig) -> Result<(), Box<dyn std::error::Error>> {
    let grid = dataset.grid();
    let (partition, snapshot, ence) = match std::fs::read_to_string(PARTITION_PATH) {
        Ok(json) => {
            let partition: Partition = serde_json::from_str(&json)?;
            if partition.grid_shape() != (grid.rows(), grid.cols()) {
                return Err(format!(
                    "saved partition is over a {:?} grid but the dataset uses {}x{} — rebuild it",
                    partition.grid_shape(),
                    grid.rows(),
                    grid.cols()
                )
                .into());
            }
            println!(
                "training the final model for {} saved neighborhoods…",
                partition.num_regions()
            );
            let model = snapshot_for_partition(
                dataset,
                &TaskSpec::act(),
                &partition,
                &RunConfig::default(),
            )?;
            (partition, model.snapshot, model.eval.full.ence)
        }
        // Only a genuinely absent file triggers the bootstrap build;
        // permission or I/O errors must not overwrite a saved partition.
        // The bootstrap run already trained the final model, so its
        // snapshot is reused rather than retraining.
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
            println!("{PARTITION_PATH} missing — building the default fair districting first");
            let run = build(dataset, Method::FairKd, 6)?;
            let snapshot = run.snapshot()?;
            let ence = run.eval().full.ence;
            (run.into_inner().partition, snapshot, ence)
        }
        Err(e) => return Err(format!("cannot read {PARTITION_PATH}: {e}").into()),
    };

    let index = FrozenIndex::from_partition(&partition, grid, &snapshot)?;
    let b = *index.bounds();
    println!(
        "serving {} neighborhoods over [{}, {}]×[{}, {}] ({} backend, {} B working set, ENCE {:.4})",
        index.num_leaves(),
        b.min_x,
        b.max_x,
        b.min_y,
        b.max_y,
        index.backend_name(),
        index.heap_bytes(),
        ence,
    );
    // One topology of shard backends behind one QueryService; the REPL
    // and HTTP transports are thin layers over the same dispatch.
    let topology = match (&config.topology, config.shard_of) {
        (Some(spec), Some(shard)) => {
            spec.validate()?;
            println!(
                "serving shard {shard} of a {}x{} topology (partial index)",
                spec.rows, spec.cols
            );
            Topology::partial(&index, spec.rows, spec.cols, shard)?
        }
        (Some(spec), None) => {
            println!(
                "coordinating a {}x{} topology: {:?}",
                spec.rows,
                spec.cols,
                spec.shards.iter().map(|b| b.as_wire()).collect::<Vec<_>>()
            );
            match &config.resilience {
                Some(policy) => {
                    policy.validate().map_err(|e| e.to_string())?;
                    println!(
                        "resilience: {} attempts, breaker opens after {} failures",
                        policy.max_attempts, policy.breaker_threshold
                    );
                    let connector = fsi::ResilientConnector::new(policy.clone())
                        .with_reconnect_attempts(policy.max_attempts.max(1));
                    Topology::from_spec(spec, index, connector)?
                }
                None => Topology::from_spec(spec, index, RemoteShard::connector())?,
            }
        }
        (None, Some(_)) => return Err("--shard-of requires --topology".into()),
        (None, None) => Topology::single(IndexHandle::new(index)),
    };
    let mut service = QueryService::new(topology).with_rebuild(Arc::new(dataset.clone()));
    let maintenance = if config.auto_rebuild {
        if config.shard_of.is_some() {
            return Err(
                "--auto-rebuild runs on the coordinator; shard servers stage the \
                 model the coordinator trains, with no ingestion state of their own"
                    .into(),
            );
        }
        service = service.with_ingest(TaskSpec::act())?;
        let policy = fsi::MaintenanceSpec::default();
        let spec = fsi::PipelineSpec::new(TaskSpec::act(), Method::FairKd, 6);
        println!(
            "auto-rebuild: drift threshold {}, max {} buffered, polling every {}ms \
             (`ingest X Y G [L]` feeds the buffer)",
            policy.drift_threshold, policy.max_buffered, policy.poll_interval_ms
        );
        Some(fsi::MaintenanceHandle::spawn(
            service.clone(),
            policy,
            spec,
        )?)
    } else {
        None
    };

    if let Some(addr) = &config.listen {
        let server = fsi::HttpServer::bind(service, addr.as_str())?;
        println!(
            "listening on http://{} (EOF on stdin stops it)",
            server.addr()
        );
        if config.metrics {
            println!("telemetry at http://{}/metrics", server.addr());
        }
        // Block until stdin closes, then drain in-flight requests.
        let mut sink = String::new();
        while std::io::stdin().read_line(&mut sink)? > 0 {
            sink.clear();
        }
        // A final scrape before shutdown so `--metrics` leaves a record
        // of what the server saw, even when nothing polled it live.
        let parting = if config.metrics {
            Some(fsi::scrape_metrics(server.addr())?)
        } else {
            None
        };
        server.shutdown();
        if let Some(handle) = maintenance {
            println!(
                "auto-rebuild published {} maintenance rebuilds",
                handle.stop()
            );
        }
        if let Some(text) = parting {
            print!("{text}");
        }
        return Ok(());
    }

    println!(
        "query format: `X Y`, `batch X1 Y1 …`, `rect X0 Y0 X1 Y1`, `stats`, \
         `rebuild <spec JSON>`, `prepare <spec JSON>`, `commit`, `abort`; EOF (ctrl-d) exits"
    );
    let stdin = std::io::stdin();
    let mut stdout = std::io::stdout();
    let stats = repl::serve_queries(&mut service, stdin.lock(), &mut stdout)?;
    if let Some(handle) = maintenance {
        println!(
            "auto-rebuild published {} maintenance rebuilds",
            handle.stop()
        );
    }
    eprintln!(
        "served {} queries ({} answered with errors)",
        stats.answered + stats.errors,
        stats.errors
    );
    if config.metrics {
        print!("{}", fsi::prometheus_text(&service.metrics_snapshot()));
    }
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();

    // `serve [CSV_PATH] [--topology FILE] [--shard-of IDX]
    // [--listen ADDR] [--metrics]` switches to online mode.
    if args.first().map(String::as_str) == Some("serve") {
        let mut config = ServeConfig {
            topology: None,
            resilience: None,
            shard_of: None,
            listen: None,
            metrics: false,
            auto_rebuild: false,
        };
        let mut csv_path = None;
        let mut rest = args[1..].iter().map(String::as_str);
        while let Some(arg) = rest.next() {
            match arg {
                "--topology" => {
                    let path = rest.next().ok_or("--topology requires a JSON file path")?;
                    let json = std::fs::read_to_string(path)
                        .map_err(|e| format!("cannot read topology spec `{path}`: {e}"))?;
                    config.topology = Some(
                        serde_json::from_str(&json)
                            .map_err(|e| format!("bad topology spec `{path}`: {e}"))?,
                    );
                }
                "--resilience" => {
                    let path = rest
                        .next()
                        .ok_or("--resilience requires a JSON file path")?;
                    let json = std::fs::read_to_string(path)
                        .map_err(|e| format!("cannot read resilience policy `{path}`: {e}"))?;
                    config.resilience = Some(
                        serde_json::from_str(&json)
                            .map_err(|e| format!("bad resilience policy `{path}`: {e}"))?,
                    );
                }
                "--shard-of" => {
                    let n = rest.next().ok_or("--shard-of requires a shard index")?;
                    config.shard_of = Some(
                        n.parse()
                            .map_err(|_| format!("bad --shard-of value `{n}`"))?,
                    );
                }
                "--listen" => {
                    let addr = rest.next().ok_or("--listen requires host:port")?;
                    config.listen = Some(addr.to_string());
                }
                "--metrics" => config.metrics = true,
                "--auto-rebuild" => config.auto_rebuild = true,
                _ => csv_path = Some(arg),
            }
        }
        let dataset = load_dataset(csv_path)?;
        return serve(&dataset, config);
    }

    let dataset = match args.first().map(String::as_str) {
        // The first arg is a CSV path only when it is neither a method
        // name nor a bare height number.
        Some(path)
            if !path.is_empty()
                && parse_method(path).is_none()
                && path.parse::<usize>().is_err() =>
        {
            load_dataset(Some(path))?
        }
        _ => load_dataset(None)?,
    };
    // Method/height may appear at position 0 (no CSV) or 1 (after CSV).
    let rest: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|a| parse_method(a).is_some() || a.parse::<usize>().is_ok())
        .collect();
    let method = rest
        .iter()
        .find_map(|a| parse_method(a))
        .unwrap_or(Method::FairKd);
    let height = rest
        .iter()
        .find_map(|a| a.parse::<usize>().ok())
        .unwrap_or(6);

    build(&dataset, method, height)?;
    Ok(())
}
