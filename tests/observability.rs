//! Observability acceptance tests: `GET /metrics` must answer a
//! well-formed Prometheus text exposition over a real socket covering
//! request counts, latency quantiles, per-shard and rebuild metrics;
//! concurrent scrapes during a rebuild storm must never see torn
//! snapshots (more latency samples than requests, or counters going
//! backwards); and the slow-query log must stream structured records
//! through the HTTP serving path.

use fsi::{
    scrape_metrics, BackendSpec, Method, Pipeline, Request, Response, SlowQueryRecord, TaskSpec,
    TopologySpec, WirePoint, WireRect,
};
use fsi_data::synth::city::{CityConfig, CityGenerator};
use fsi_data::SpatialDataset;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn dataset() -> SpatialDataset {
    CityGenerator::new(CityConfig {
        n_individuals: 300,
        grid_side: 16,
        seed: 41,
        ..CityConfig::default()
    })
    .unwrap()
    .generate()
    .unwrap()
}

/// Parses a Prometheus text exposition into `series name (with labels)
/// → value`, asserting well-formedness along the way: every non-comment
/// line is `name[{labels}] value`, every sample's family has a `# TYPE`
/// header, and no series repeats.
fn parse_exposition(text: &str) -> HashMap<String, f64> {
    let mut typed: HashSet<&str> = HashSet::new();
    let mut samples = HashMap::new();
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let name = rest.split(' ').next().unwrap();
            typed.insert(name);
            continue;
        }
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let (series, value) = line.rsplit_once(' ').unwrap_or_else(|| {
            panic!("malformed sample line: {line:?}");
        });
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("non-numeric sample value: {line:?}"));
        let base = series.split('{').next().unwrap();
        let family = base
            .strip_suffix("_sum")
            .or_else(|| base.strip_suffix("_count"))
            .unwrap_or(base);
        assert!(
            typed.contains(family),
            "sample {series} has no preceding # TYPE {family} header"
        );
        let clash = samples.insert(series.to_string(), value);
        assert!(clash.is_none(), "duplicate series {series}");
    }
    samples
}

/// The tentpole end-to-end property: a coordinator over one local and
/// one real HTTP shard serves `GET /metrics`
/// over a real socket; the exposition is well-formed and every metric
/// family the issue promises is present with the exact counts the
/// driven traffic implies.
#[test]
fn metrics_endpoint_covers_every_family_over_a_real_socket() {
    let d = dataset();
    let serving = Pipeline::on(&d)
        .task(TaskSpec::act())
        .method(Method::MedianKd)
        .height(3)
        .run()
        .unwrap()
        .serve()
        .unwrap();

    let local_spec = TopologySpec::local(1, 2);
    let shard1 = fsi::HttpServer::bind(
        serving.service_shard(&local_spec, 1).unwrap(),
        "127.0.0.1:0",
    )
    .unwrap();
    let spec = TopologySpec {
        rows: 1,
        cols: 2,
        shards: vec![
            BackendSpec::Local,
            BackendSpec::Http(shard1.addr().to_string()),
        ],
    };
    let coordinator = serving.service_over(&spec).unwrap().with_lookup_sampling(1);
    let server = fsi::HttpServer::bind(coordinator, "127.0.0.1:0").unwrap();

    let mut client = fsi::HttpClient::connect(server.addr()).unwrap();
    // Three distinct local-half cells twice each, one remote-routed
    // lookup, one out of bounds, one batch, one range
    // query, one stats, one rebuild.
    for &(x, y) in &[
        (0.1, 0.5),
        (0.2, 0.2),
        (0.3, 0.8),
        (0.1, 0.5),
        (0.2, 0.2),
        (0.3, 0.8),
        (0.9, 0.5),
    ] {
        client.call(&Request::Lookup { x, y }).unwrap();
    }
    match client.call(&Request::Lookup { x: 50.0, y: 50.0 }).unwrap() {
        Response::Error { error } => assert_eq!(error.code, fsi::ErrorCode::OutOfBounds),
        other => panic!("expected error, got {other:?}"),
    }
    client
        .call(&Request::LookupBatch {
            points: vec![WirePoint::new(0.2, 0.2), WirePoint::new(0.8, 0.8)],
        })
        .unwrap();
    client
        .call(&Request::RangeQuery {
            rect: WireRect::new(0.1, 0.1, 0.9, 0.9),
        })
        .unwrap();
    client.call(&Request::Stats).unwrap();
    let rebuild = fsi::PipelineSpec::new(TaskSpec::act(), Method::MedianKd, 4);
    match client.call(&Request::Rebuild { spec: rebuild }).unwrap() {
        Response::Rebuilt { report } => assert_eq!(report.generation, 2),
        other => panic!("expected rebuild report, got {other:?}"),
    }

    let text = scrape_metrics(server.addr()).unwrap();
    let samples = parse_exposition(&text);
    let get = |series: &str| {
        *samples
            .get(series)
            .unwrap_or_else(|| panic!("missing series {series} in:\n{text}"))
    };

    // Request counts and latency quantiles per kind.
    assert_eq!(get("fsi_requests_total{kind=\"lookup\"}"), 8.0);
    assert_eq!(get("fsi_requests_total{kind=\"lookup_batch\"}"), 1.0);
    assert_eq!(get("fsi_requests_total{kind=\"range_query\"}"), 1.0);
    assert_eq!(get("fsi_requests_total{kind=\"stats\"}"), 1.0);
    assert_eq!(get("fsi_requests_total{kind=\"rebuild\"}"), 1.0);
    assert_eq!(
        get("fsi_request_latency_seconds_count{kind=\"lookup\"}"),
        8.0
    );
    assert!(get("fsi_request_latency_seconds{kind=\"rebuild\",quantile=\"0.5\"}") > 0.0);
    // Errors by code.
    assert_eq!(get("fsi_errors_total{code=\"out_of_bounds\"}"), 1.0);
    // The per-cell table leaves nothing to cache, so no cache family.
    assert!(!text.contains("cache"), "{text}");
    // Per-shard transport health, labeled by backend kind.
    assert!(get("fsi_shard_requests_total{shard=\"1\",backend=\"http\"}") >= 1.0);
    assert_eq!(
        get("fsi_shard_failures_total{shard=\"1\",backend=\"http\"}"),
        0.0
    );
    assert!(get("fsi_shard_round_trip_seconds_count{shard=\"1\",backend=\"http\"}") >= 1.0);
    // Rebuild phases: one prepare and one commit per shard (the local
    // stage and the remote fan-out), no aborts.
    assert_eq!(
        get("fsi_rebuild_phase_seconds_count{phase=\"prepare\"}"),
        2.0
    );
    assert_eq!(
        get("fsi_rebuild_phase_seconds_count{phase=\"commit\"}"),
        2.0
    );
    assert_eq!(get("fsi_rebuild_phase_seconds_count{phase=\"abort\"}"), 0.0);
    assert_eq!(get("fsi_generation"), 2.0);
    // HTTP transport block.
    assert!(get("fsi_http_connections_total") >= 1.0);
    assert!(get("fsi_http_requests_total") >= 11.0);
    assert!(get("fsi_http_phase_seconds_count{phase=\"handle\"}") >= 11.0);
    assert_eq!(get("fsi_slow_queries_total"), 0.0);

    // The wire variant carries the same numbers (a scraper that speaks
    // the protocol instead of text sees one picture).
    let Response::Metrics { metrics } = client.call(&Request::Metrics).unwrap() else {
        panic!("expected metrics");
    };
    assert_eq!(metrics.count_for("lookup"), 8);
    let remote = metrics.shards[1].remote.as_ref().expect("remote snapshot");
    assert!(remote.total_requests() >= 1);
    assert!(metrics.http.is_some());

    server.shutdown();
    shard1.shutdown();
}

/// Satellite 4: four keep-alive clients hammer lookups through two
/// rebuilds while a scraper polls `/metrics` the whole time. Counters
/// must be monotone scrape-over-scrape, a scrape may never show more
/// latency samples than requests (torn snapshot), and once the storm
/// quiesces the histogram total equals the request count exactly.
#[test]
fn concurrent_scrapes_stay_monotone_and_untorn_through_rebuilds() {
    const CLIENTS: usize = 4;
    const LOOKUPS_PER_CLIENT: usize = 150;
    const REBUILDS: usize = 2;

    let d = dataset();
    let serving = Pipeline::on(&d)
        .method(Method::MedianKd)
        .height(2)
        .run()
        .unwrap()
        .serve()
        .unwrap();
    let service = serving.service().with_lookup_sampling(1);
    let server = fsi::HttpServer::bind_with(service, "127.0.0.1:0", CLIENTS + 2).unwrap();
    let addr = server.addr();
    let done = Arc::new(std::sync::atomic::AtomicBool::new(false));

    std::thread::scope(|scope| {
        let mut clients = Vec::new();
        for worker in 0..CLIENTS {
            clients.push(scope.spawn(move || {
                let mut client = fsi::HttpClient::connect(addr).expect("client connects");
                for i in 0..LOOKUPS_PER_CLIENT {
                    let x = ((worker * LOOKUPS_PER_CLIENT + i) as f64 * 0.37) % 1.0;
                    let y = ((worker * LOOKUPS_PER_CLIENT + i) as f64 * 0.73) % 1.0;
                    match client.call(&Request::Lookup { x, y }).expect("round-trip") {
                        Response::Decision { .. } => {}
                        other => panic!("expected decision, got {other:?}"),
                    }
                }
            }));
        }

        let scraper = {
            let done = Arc::clone(&done);
            scope.spawn(move || {
                let mut client = fsi::HttpClient::connect(addr).expect("scraper connects");
                let mut last_requests = 0.0;
                let mut last_latency = 0.0;
                let mut polls = 0usize;
                while !done.load(std::sync::atomic::Ordering::Acquire) {
                    let (status, text) = client.get("/metrics").expect("scrape");
                    assert_eq!(status, 200);
                    let samples = parse_exposition(&text);
                    let requests = samples
                        .get("fsi_requests_total{kind=\"lookup\"}")
                        .copied()
                        .unwrap_or(0.0);
                    let latency = samples
                        .get("fsi_request_latency_seconds_count{kind=\"lookup\"}")
                        .copied()
                        .unwrap_or(0.0);
                    assert!(
                        latency <= requests,
                        "torn snapshot: {latency} latency samples > {requests} requests"
                    );
                    assert!(requests >= last_requests, "requests went backwards");
                    assert!(latency >= last_latency, "latency count went backwards");
                    last_requests = requests;
                    last_latency = latency;
                    polls += 1;
                }
                polls
            })
        };

        // Drive the rebuilds while the storm runs.
        let mut driver = fsi::HttpClient::connect(addr).expect("driver connects");
        for i in 0..REBUILDS {
            let spec = fsi::PipelineSpec::new(TaskSpec::act(), Method::MedianKd, 2 + (i % 2));
            match driver.call(&Request::Rebuild { spec }).expect("rebuild") {
                Response::Rebuilt { report } => assert_eq!(report.generation, i as u64 + 2),
                other => panic!("expected rebuild report, got {other:?}"),
            }
        }

        for client in clients {
            client.join().expect("client thread survived");
        }
        done.store(true, std::sync::atomic::Ordering::Release);
        let polls = scraper.join().expect("scraper thread survived");
        assert!(polls > 0, "the scraper never got a poll in");
    });

    // Quiesced: totals must agree exactly across every worker shard.
    let samples = parse_exposition(&scrape_metrics(addr).unwrap());
    let total = (CLIENTS * LOOKUPS_PER_CLIENT) as f64;
    assert_eq!(samples["fsi_requests_total{kind=\"lookup\"}"], total);
    assert_eq!(
        samples["fsi_request_latency_seconds_count{kind=\"lookup\"}"],
        total
    );
    assert_eq!(samples["fsi_generation"], (REBUILDS + 1) as f64);
    server.shutdown();
}

/// The slow-query log: threshold-gated, pluggable sink, and the counter
/// surfaces in the exposition. With a zero threshold every dispatched
/// request logs; with an absurdly high one, none do.
#[test]
fn slow_query_log_streams_structured_records_through_http() {
    let d = dataset();
    let serving = Pipeline::on(&d)
        .method(Method::MedianKd)
        .height(2)
        .run()
        .unwrap()
        .serve()
        .unwrap();

    let records: Arc<Mutex<Vec<SlowQueryRecord>>> = Arc::new(Mutex::new(Vec::new()));
    let sink_records = Arc::clone(&records);
    let service = serving.service().with_slow_query_log(
        Duration::ZERO,
        Arc::new(move |r: &SlowQueryRecord| sink_records.lock().unwrap().push(r.clone())),
    );
    let server = fsi::HttpServer::bind(service, "127.0.0.1:0").unwrap();
    let mut client = fsi::HttpClient::connect(server.addr()).unwrap();
    client.call(&Request::Lookup { x: 0.3, y: 0.3 }).unwrap();
    client.call(&Request::Stats).unwrap();

    let samples = parse_exposition(&scrape_metrics(server.addr()).unwrap());
    assert!(samples["fsi_slow_queries_total"] >= 2.0);
    let seen = records.lock().unwrap().clone();
    assert!(seen.iter().any(|r| r.kind == "lookup"), "{seen:?}");
    assert!(seen.iter().any(|r| r.kind == "stats"), "{seen:?}");
    assert!(seen.iter().all(|r| r.threshold_nanos == 0), "{seen:?}");
    server.shutdown();

    // A sky-high threshold gates everything off.
    let quiet: Arc<Mutex<Vec<SlowQueryRecord>>> = Arc::new(Mutex::new(Vec::new()));
    let sink_quiet = Arc::clone(&quiet);
    let service = serving.service().with_slow_query_log(
        Duration::from_secs(3600),
        Arc::new(move |r: &SlowQueryRecord| sink_quiet.lock().unwrap().push(r.clone())),
    );
    let server = fsi::HttpServer::bind(service, "127.0.0.1:0").unwrap();
    let mut client = fsi::HttpClient::connect(server.addr()).unwrap();
    client.call(&Request::Lookup { x: 0.3, y: 0.3 }).unwrap();
    let samples = parse_exposition(&scrape_metrics(server.addr()).unwrap());
    assert_eq!(samples["fsi_slow_queries_total"], 0.0);
    assert!(quiet.lock().unwrap().is_empty());
    server.shutdown();
}

/// Satellite 2, end to end: on a mixed local/remote coordinator the
/// REPL `stats` line prints every shard uniformly as `kind@addr`, and
/// the `metrics` command reports per-shard transport health.
#[test]
fn repl_stats_and_metrics_print_kind_at_addr_per_shard() {
    let d = dataset();
    let serving = Pipeline::on(&d)
        .method(Method::MedianKd)
        .height(2)
        .run()
        .unwrap()
        .serve()
        .unwrap();
    let local_spec = TopologySpec::local(1, 2);
    let shard1 = fsi::HttpServer::bind(
        serving.service_shard(&local_spec, 1).unwrap(),
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = shard1.addr().to_string();
    let spec = TopologySpec {
        rows: 1,
        cols: 2,
        shards: vec![BackendSpec::Local, BackendSpec::Http(addr.clone())],
    };
    let mut coordinator = serving.service_over(&spec).unwrap().with_lookup_sampling(1);

    let stats = fsi::repl::answer_line(&mut coordinator, "stats").unwrap();
    assert!(stats.contains("shard#0: local@- generation=1"), "{stats}");
    assert!(
        stats.contains(&format!("shard#1: http@{addr} generation=1")),
        "{stats}"
    );

    // Traffic to the remote half, then the metrics command. The stats
    // line above already dispatched once (locally counted and fanned
    // out to the remote shard), so totals sit at 2.
    fsi::repl::answer_line(&mut coordinator, "0.9 0.5").unwrap();
    let metrics = fsi::repl::answer_line(&mut coordinator, "metrics").unwrap();
    assert!(metrics.starts_with("metrics: requests=2"), "{metrics}");
    assert!(metrics.contains("lookup: count=1"), "{metrics}");
    assert!(metrics.contains("stats: count=1"), "{metrics}");
    assert!(
        metrics.contains(&format!("shard#1: http@{addr} requests=2 failures=0")),
        "{metrics}"
    );
    shard1.shutdown();
}
