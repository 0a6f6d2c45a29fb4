//! The typed-protocol acceptance tests: every transport — text REPL,
//! HTTP loopback, in-process `QueryService` (single-shard and sharded) —
//! must answer **bit-identically** to direct `FrozenIndex` calls, and
//! the HTTP listener must survive concurrent clients hammering it while
//! rebuilds hot-swap generations underneath.

use fsi::{repl, DecisionBody, Method, Pipeline, Request, Response, TaskSpec, WirePoint, WireRect};
use fsi_data::synth::city::{CityConfig, CityGenerator};
use fsi_data::SpatialDataset;
use fsi_geo::{Grid, Point, Rect};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn dataset() -> SpatialDataset {
    CityGenerator::new(CityConfig {
        n_individuals: 300,
        grid_side: 16,
        seed: 23,
        ..CityConfig::default()
    })
    .unwrap()
    .generate()
    .unwrap()
}

/// Random points biased toward the hard cases: interior points, exact
/// cell-boundary coordinates and the map corners.
fn query_points(grid: &Grid, n: usize, seed: u64) -> Vec<Point> {
    let b = *grid.bounds();
    let mut rng = StdRng::seed_from_u64(seed);
    let mut points = Vec::with_capacity(n + 4);
    for i in 0..n {
        let (x, y) = match i % 4 {
            0 | 1 => (rng.random::<f64>(), rng.random::<f64>()),
            2 => (
                rng.random_range(0..=grid.cols()) as f64 / grid.cols() as f64,
                rng.random::<f64>(),
            ),
            _ => (
                rng.random_range(0..=grid.cols()) as f64 / grid.cols() as f64,
                rng.random_range(0..=grid.rows()) as f64 / grid.rows() as f64,
            ),
        };
        points.push(Point::new(
            b.min_x + x * b.width(),
            b.min_y + y * b.height(),
        ));
    }
    points.extend([
        Point::new(b.min_x, b.min_y),
        Point::new(b.max_x, b.min_y),
        Point::new(b.min_x, b.max_y),
        Point::new(b.max_x, b.max_y),
    ]);
    points
}

fn expect_decision(response: Response) -> DecisionBody {
    match response {
        Response::Decision { decision } => decision,
        other => panic!("expected a decision, got {other:?}"),
    }
}

fn expect_regions(response: Response) -> Vec<usize> {
    match response {
        Response::Regions { ids } => ids,
        other => panic!("expected regions, got {other:?}"),
    }
}

/// The tentpole differential property: one query stream through the
/// text REPL, the HTTP loopback transport, a single-shard service and a
/// 2×2 (= 4-shard) `Topology` service yields decisions bit-identical
/// to direct `FrozenIndex::lookup`, and identical range-query ID sets.
#[test]
fn transports_answer_bit_identically_including_sharded() {
    let d = dataset();
    let run = Pipeline::on(&d)
        .task(TaskSpec::act())
        .method(Method::FairKd)
        .height(6)
        .run()
        .unwrap();
    let direct = run.freeze().unwrap();
    let serving = run.serve().unwrap();

    let mut in_process = serving.service();
    let mut sharded = serving
        .service_over(&fsi::TopologySpec::local(2, 2))
        .unwrap();
    assert_eq!(sharded.topology().shards(), 4);
    let server = serving.listen("127.0.0.1:0").unwrap();
    let mut http = fsi::HttpClient::connect(server.addr()).unwrap();

    let points = query_points(d.grid(), 600, 7);

    // Point lookups, transport by transport, bit for bit.
    for p in &points {
        let expected: DecisionBody = direct.lookup(p).unwrap().into();
        let request = Request::Lookup { x: p.x, y: p.y };

        let got = expect_decision(in_process.dispatch(&request));
        assert_eq!(got, expected, "in-process at {p:?}");
        assert_eq!(got.raw_score.to_bits(), expected.raw_score.to_bits());

        let got = expect_decision(sharded.dispatch(&request));
        assert_eq!(got, expected, "4-shard at {p:?}");

        let got = expect_decision(http.call(&request).unwrap());
        assert_eq!(got, expected, "http at {p:?}");
        assert_eq!(
            got.calibrated_score.to_bits(),
            expected.calibrated_score.to_bits(),
            "http float bits at {p:?}"
        );

        // The text transport: its full-precision formatting of the
        // direct decision must equal its answer line.
        let expected_line = repl::format_response(&Response::Decision { decision: expected });
        let got_line = repl::answer_line(&mut in_process, &format!("{} {}", p.x, p.y)).unwrap();
        assert_eq!(got_line, expected_line, "repl at {p:?}");
    }

    // Batched lookups across the wire equal the direct batch path.
    let wire_points: Vec<WirePoint> = points.iter().map(|p| WirePoint::new(p.x, p.y)).collect();
    let mut direct_batch = Vec::new();
    direct.lookup_batch(&points, &mut direct_batch).unwrap();
    let expected_batch: Vec<DecisionBody> = direct_batch
        .iter()
        .map(|&d| DecisionBody::from(d))
        .collect();
    for response in [
        in_process.dispatch(&Request::LookupBatch {
            points: wire_points.clone(),
        }),
        sharded.dispatch(&Request::LookupBatch {
            points: wire_points.clone(),
        }),
        http.call(&Request::LookupBatch {
            points: wire_points,
        })
        .unwrap(),
    ] {
        match response {
            Response::Decisions { decisions } => assert_eq!(decisions, expected_batch),
            other => panic!("expected decisions, got {other:?}"),
        }
    }

    // Range queries: identical ID sets everywhere, including fan-out
    // and merge across the 4 shards.
    let mut rng = StdRng::seed_from_u64(29);
    for _ in 0..100 {
        let (x0, x1) = (rng.random::<f64>(), rng.random::<f64>());
        let (y0, y1) = (rng.random::<f64>(), rng.random::<f64>());
        let rect = WireRect::new(x0.min(x1), y0.min(y1), x0.max(x1) + 1e-9, y0.max(y1) + 1e-9);
        let expected =
            direct.range_query(&Rect::new(rect.min_x, rect.min_y, rect.max_x, rect.max_y).unwrap());
        let request = Request::RangeQuery { rect };
        assert_eq!(
            expect_regions(in_process.dispatch(&request)),
            expected,
            "in-process {rect:?}"
        );
        assert_eq!(
            expect_regions(sharded.dispatch(&request)),
            expected,
            "4-shard {rect:?}"
        );
        assert_eq!(
            expect_regions(http.call(&request).unwrap()),
            expected,
            "http {rect:?}"
        );
        let expected_line = repl::format_response(&Response::Regions { ids: expected });
        let got_line = repl::answer_line(
            &mut in_process,
            &format!(
                "rect {} {} {} {}",
                rect.min_x, rect.min_y, rect.max_x, rect.max_y
            ),
        )
        .unwrap();
        assert_eq!(got_line, expected_line, "repl {rect:?}");
    }

    server.shutdown();
}

/// Repeated queries answer bit-identically: a deployment — in-process,
/// REPL, HTTP loopback and 4-shard — answers exactly like direct
/// `FrozenIndex::lookup` on boundary-biased points, queried twice so a
/// second pass over warm worker state must agree with the first.
#[test]
fn repeated_queries_answer_bit_identically_across_transports() {
    let d = dataset();
    let run = Pipeline::on(&d)
        .task(TaskSpec::act())
        .method(Method::FairKd)
        .height(6)
        .run()
        .unwrap();
    let direct = run.freeze().unwrap();
    let serving = run.serve().unwrap();

    let mut single = serving.service();
    let mut sharded = serving
        .service_over(&fsi::TopologySpec::local(2, 2))
        .unwrap();
    assert_eq!(sharded.topology().shards(), 4);
    let server = serving.listen("127.0.0.1:0").unwrap();
    let mut http = fsi::HttpClient::connect(server.addr()).unwrap();

    let points = query_points(d.grid(), 400, 13);
    // Pass 1 re-asks every point of pass 0; both must be bit-identical.
    for pass in 0..2 {
        for p in &points {
            let expected: DecisionBody = direct.lookup(p).unwrap().into();
            let request = Request::Lookup { x: p.x, y: p.y };

            let got = expect_decision(single.dispatch(&request));
            assert_eq!(got, expected, "pass {pass} at {p:?}");
            assert_eq!(got.raw_score.to_bits(), expected.raw_score.to_bits());
            assert_eq!(
                got.calibrated_score.to_bits(),
                expected.calibrated_score.to_bits()
            );
            assert_eq!(
                expect_decision(sharded.dispatch(&request)),
                expected,
                "4-shard pass {pass} at {p:?}"
            );
            assert_eq!(
                expect_decision(http.call(&request).unwrap()),
                expected,
                "http pass {pass} at {p:?}"
            );

            let expected_line = repl::format_response(&Response::Decision { decision: expected });
            let got_line = repl::answer_line(&mut single, &format!("{} {}", p.x, p.y)).unwrap();
            assert_eq!(got_line, expected_line, "repl pass {pass} at {p:?}");
        }
    }
    server.shutdown();
}

/// A rebuild dispatched through a 4-shard service republishes every
/// shard, and the post-rebuild decisions equal a freshly built index
/// (rebuilds are deterministic).
#[test]
fn sharded_rebuild_keeps_transport_parity() {
    let d = dataset();
    let serving = Pipeline::on(&d)
        .method(Method::MedianKd)
        .height(2)
        .run()
        .unwrap()
        .serve()
        .unwrap();
    let mut sharded = serving
        .service_over(&fsi::TopologySpec::local(2, 2))
        .unwrap();

    let spec = fsi::PipelineSpec::new(TaskSpec::act(), Method::FairKd, 4);
    match sharded.dispatch(&Request::Rebuild { spec: spec.clone() }) {
        Response::Rebuilt { report } => {
            assert_eq!(report.generation, 2);
            assert_eq!(&report.spec, &spec);
        }
        other => panic!("expected rebuild report, got {other:?}"),
    }
    assert_eq!(sharded.topology().generations(), vec![2, 2, 2, 2]);

    let (reference, _run) = fsi_serve::build_index(&d, &spec).unwrap();
    for p in query_points(d.grid(), 400, 11) {
        let expected: DecisionBody = reference.lookup(&p).unwrap().into();
        let got = expect_decision(sharded.dispatch(&Request::Lookup { x: p.x, y: p.y }));
        assert_eq!(got, expected, "post-rebuild at {p:?}");
    }
}

/// The concurrency acceptance test: N keep-alive HTTP clients hammer
/// the listener while the rebuilder hot-swaps generations. No request
/// may fail, no connection may drop, no decision may be torn, and the
/// generation observed in `Stats` responses must be monotone per
/// client.
#[test]
fn concurrent_http_clients_survive_hot_swap_rebuilds() {
    const CLIENTS: usize = 4;
    const REQUESTS_PER_CLIENT: usize = 120;
    const REBUILDS: usize = 3;

    let d = dataset();
    let serving = Pipeline::on(&d)
        .method(Method::MedianKd)
        .height(2)
        .run()
        .unwrap()
        .serve()
        .unwrap();
    // As many workers as clients: every keep-alive connection gets a
    // dedicated worker, so a dropped connection can only be a bug.
    let server = serving.listen_with("127.0.0.1:0", CLIENTS).unwrap();
    let addr = server.addr();

    std::thread::scope(|scope| {
        let mut clients = Vec::new();
        for worker in 0..CLIENTS {
            let serving = &serving;
            clients.push(scope.spawn(move || {
                let mut client = fsi::HttpClient::connect(addr).expect("client connects");
                let mut rng = StdRng::seed_from_u64(worker as u64);
                let mut last_generation = 0u64;
                let mut served = 0usize;
                for i in 0..REQUESTS_PER_CLIENT {
                    if i % 10 == 0 {
                        // Stats: the generation can only rise.
                        match client.call(&Request::Stats).expect("stats round-trip") {
                            Response::Stats { stats } => {
                                let g = stats.generations[0];
                                assert!(
                                    g >= last_generation,
                                    "generation went backwards: {last_generation} -> {g}"
                                );
                                assert!(stats.num_leaves > 0);
                                last_generation = g;
                            }
                            other => panic!("expected stats, got {other:?}"),
                        }
                    } else {
                        let x = rng.random::<f64>();
                        let y = rng.random::<f64>();
                        match client
                            .call(&Request::Lookup { x, y })
                            .expect("lookup round-trip")
                        {
                            Response::Decision { decision } => {
                                // Decisions must come from *some* complete
                                // snapshot: scores in range, leaf plausible.
                                assert!((0.0..=1.0).contains(&decision.calibrated_score));
                                assert!(
                                    decision.leaf_id < serving.handle().load().num_leaves().max(64),
                                    "torn leaf id {}",
                                    decision.leaf_id
                                );
                            }
                            other => panic!("expected decision, got {other:?}"),
                        }
                    }
                    served += 1;
                }
                (served, last_generation)
            }));
        }

        // Hot-swap generations while the clients run.
        for i in 0..REBUILDS {
            let spec = fsi::PipelineSpec::new(
                TaskSpec::act(),
                if i % 2 == 0 {
                    Method::MedianKd
                } else {
                    Method::FairKd
                },
                2 + (i % 2),
            );
            let report = serving.rebuild_with(&spec).expect("rebuild succeeds");
            assert_eq!(report.generation, i as u64 + 2);
        }

        let mut total = 0;
        for client in clients {
            let (served, _gen) = client.join().expect("client thread survived");
            assert_eq!(served, REQUESTS_PER_CLIENT, "dropped requests");
            total += served;
        }
        assert_eq!(total, CLIENTS * REQUESTS_PER_CLIENT);
    });

    // Every rebuild published through the shared handle.
    assert_eq!(serving.handle().generation(), REBUILDS as u64 + 1);
    // And the service still answers after the storm.
    match fsi::http::query_once(addr, &Request::Stats).unwrap() {
        Response::Stats { stats } => {
            assert_eq!(stats.generations, vec![REBUILDS as u64 + 1])
        }
        other => panic!("expected stats, got {other:?}"),
    }
    server.shutdown();
}

/// Hot-cell concurrency acceptance test: keep-alive HTTP clients hammer
/// a small set of hot cells while rebuilds hot-swap generations
/// underneath. Because rebuilds are deterministic, every generation's
/// correct decision table is precomputed; a client that has observed
/// generation `g` in `Stats` must from then on receive decisions from
/// some generation `≥ g` — a stale decision matching only an older
/// table fails.
#[test]
fn http_clients_never_observe_stale_generations_under_rebuilds() {
    const CLIENTS: usize = 4;
    const REQUESTS_PER_CLIENT: usize = 150;
    const REBUILDS: usize = 3;

    let d = dataset();
    let run = Pipeline::on(&d)
        .method(Method::MedianKd)
        .height(2)
        .run()
        .unwrap();
    let serving = run.serve().unwrap();

    // The deterministic spec schedule: generation g serves the index
    // built from specs[g - 1]; specs[0] is the deployment's own spec.
    let mut specs = vec![serving.spec().clone()];
    for i in 0..REBUILDS {
        specs.push(fsi::PipelineSpec::new(
            TaskSpec::act(),
            if i % 2 == 0 {
                Method::FairKd
            } else {
                Method::MedianKd
            },
            3 + (i % 2),
        ));
    }

    // Hot cells: a handful of spread-out cell centroids every client
    // re-queries.
    let b = *d.grid().bounds();
    let side = d.grid().cols() as f64;
    let hot: Vec<Point> = (0..8)
        .map(|i| {
            let (col, row) = (2 * i % 16, (2 * i + 5) % 16);
            Point::new(
                b.min_x + (col as f64 + 0.5) / side * b.width(),
                b.min_y + (row as f64 + 0.5) / side * b.height(),
            )
        })
        .collect();

    // expected[g - 1][k] is generation g's correct decision for hot[k].
    let expected: Vec<Vec<DecisionBody>> = specs
        .iter()
        .map(|spec| {
            let (index, _run) = fsi_serve::build_index(&d, spec).unwrap();
            hot.iter()
                .map(|p| index.lookup(p).unwrap().into())
                .collect()
        })
        .collect();

    // One worker per client: each keep-alive connection owns a worker
    // (and with it one index reader) for its whole lifetime.
    let server = serving.listen_with("127.0.0.1:0", CLIENTS).unwrap();
    let addr = server.addr();

    std::thread::scope(|scope| {
        let mut clients = Vec::new();
        for worker in 0..CLIENTS {
            let (hot, expected) = (&hot, &expected);
            clients.push(scope.spawn(move || {
                let mut client = fsi::HttpClient::connect(addr).expect("client connects");
                let mut rng = StdRng::seed_from_u64(1000 + worker as u64);
                let mut last_generation = 1u64;
                for i in 0..REQUESTS_PER_CLIENT {
                    if i % 10 == 0 {
                        match client.call(&Request::Stats).expect("stats round-trip") {
                            Response::Stats { stats } => {
                                let g = stats.generations[0];
                                assert!(
                                    g >= last_generation,
                                    "generation went backwards: {last_generation} -> {g}"
                                );
                                last_generation = g;
                            }
                            other => panic!("expected stats, got {other:?}"),
                        }
                    } else {
                        let k = rng.random_range(0..hot.len());
                        let p = &hot[k];
                        let got = match client
                            .call(&Request::Lookup { x: p.x, y: p.y })
                            .expect("lookup round-trip")
                        {
                            Response::Decision { decision } => decision,
                            other => panic!("expected decision, got {other:?}"),
                        };
                        // Readers are monotone: once generation g was
                        // observed, a decision matching only an older
                        // generation's table is stale.
                        let live = expected[last_generation as usize - 1..]
                            .iter()
                            .any(|table| table[k] == got);
                        assert!(
                            live,
                            "stale decision for hot[{k}] after generation \
                             {last_generation}: {got:?}"
                        );
                    }
                }
            }));
        }

        // Hot-swap every scheduled generation while the clients run.
        for (i, spec) in specs.iter().enumerate().skip(1) {
            let report = serving.rebuild_with(spec).expect("rebuild succeeds");
            assert_eq!(report.generation, i as u64 + 1);
        }

        for client in clients {
            client.join().expect("client thread survived");
        }
    });

    assert_eq!(serving.handle().generation(), REBUILDS as u64 + 1);
    server.shutdown();
}

/// Protocol-level rejections surface as structured errors across the
/// wire without killing the connection.
#[test]
fn http_transport_rejects_garbage_and_keeps_serving() {
    let d = dataset();
    let serving = Pipeline::on(&d)
        .method(Method::MedianKd)
        .height(2)
        .run()
        .unwrap()
        .serve()
        .unwrap();
    let server = serving.listen("127.0.0.1:0").unwrap();
    let mut client = fsi::HttpClient::connect(server.addr()).unwrap();

    // Garbage body → 400 with a structured error envelope.
    let (status, body) = client.post("{not json").unwrap();
    assert_eq!(status, 400);
    match fsi::decode_response(&body).unwrap() {
        Response::Error { error } => {
            assert_eq!(error.code, fsi::ErrorCode::MalformedRequest)
        }
        other => panic!("expected error, got {other:?}"),
    }
    // Out-of-bounds application error → 200 + structured body, and the
    // keep-alive connection is still usable afterwards.
    match client.call(&Request::Lookup { x: 50.0, y: 50.0 }).unwrap() {
        Response::Error { error } => assert_eq!(error.code, fsi::ErrorCode::OutOfBounds),
        other => panic!("expected error, got {other:?}"),
    }
    assert!(matches!(
        client.call(&Request::Stats).unwrap(),
        Response::Stats { .. }
    ));
    server.shutdown();
}
