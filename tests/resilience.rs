//! Resilience acceptance tests: a coordinator over **failover replica
//! sets** must keep answering bit-identically with zero client-visible
//! errors while a replica dies and comes back (the kill-one-replica
//! storm), the breaker cycle must be observable through `/metrics`, and
//! the `RemoteShard` reconnect path must survive a server that drops
//! keep-alive connections between requests.

use fsi::{
    decode_request, encode_response, BackendSpec, DecisionBody, IngestBody, MaintenanceSpec,
    Method, Pipeline, QueryService, RemoteShard, Request, ResilError, ResiliencePolicy, Response,
    ShardBackend, TaskSpec, TopologySpec, WirePoint,
};
use fsi_data::synth::city::{CityConfig, CityGenerator};
use fsi_data::SpatialDataset;
use fsi_geo::Point;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Duration;

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

/// The storm policy: immediate retries (so a dead replica costs
/// microseconds, not backoff sleeps), breaker opens after 2 consecutive
/// failures and probes every 150 ms. Synchronous — no hedge, no
/// deadline — so dispatch stays on the calling worker thread.
fn storm_policy() -> ResiliencePolicy {
    ResiliencePolicy {
        max_attempts: 3,
        backoff_base_ms: 0,
        backoff_multiplier: 1.0,
        backoff_cap_ms: 0,
        jitter_frac: 0.0,
        jitter_seed: 7,
        breaker_threshold: 2,
        breaker_reset_ms: 150,
    }
}

fn expect_decision(response: Response) -> DecisionBody {
    match response {
        Response::Decision { decision } => decision,
        other => panic!("expected a decision, got {other:?}"),
    }
}

/// Rebinds a shard server on the exact address a killed replica used to
/// listen on, retrying while the kernel releases the port.
fn rebind(service_for: impl Fn() -> QueryService, addr: SocketAddr) -> fsi::HttpServer {
    for _ in 0..100 {
        match fsi::HttpServer::bind_with(service_for(), addr, 2) {
            Ok(server) => return server,
            Err(_) => std::thread::sleep(Duration::from_millis(20)),
        }
    }
    panic!("could not rebind a revived replica on {addr}");
}

/// Sums every sample of a Prometheus counter family whose label set
/// contains `needle`.
fn family_total(text: &str, family: &str, needle: &str) -> u64 {
    text.lines()
        .filter(|line| line.starts_with(family) && line.contains(needle))
        .map(|line| {
            line.rsplit(' ')
                .next()
                .and_then(|v| v.parse::<f64>().ok())
                .unwrap_or_else(|| panic!("unparsable sample: {line}")) as u64
        })
        .sum()
}

/// The headline acceptance test: a 2×2×2 fleet (every slot of a 2×2
/// topology is a 2-replica set of real HTTP shard servers) under 4
/// concurrent keep-alive clients. One replica is killed mid-storm and
/// later revived on the same port. Every query — point lookups and
/// batches alike — answers **bit-identically** to direct `FrozenIndex`
/// calls with **zero client-visible errors**, and the killed replica's
/// breaker walks the whole closed → open → half-open → closed cycle,
/// observable in the coordinator's `/metrics` exposition.
#[test]
fn kill_one_replica_mid_storm_answers_bit_identically_with_zero_errors() {
    const CLIENTS: usize = 4;
    // Requests per client in each phase: healthy, one-replica-dead,
    // recovered.
    const PHASES: [usize; 3] = [10, 25, 15];

    let d = dataset();
    let run = Pipeline::on(&d)
        .task(TaskSpec::act())
        .method(Method::FairKd)
        .height(5)
        .run()
        .unwrap();
    let direct = run.freeze().unwrap();
    let serving = run.serve().unwrap();

    // Two replica servers per slot, each holding the slot's partial
    // index — any member answers bit-identically.
    let local_spec = TopologySpec::local(2, 2);
    let mut servers: Vec<Vec<fsi::HttpServer>> = (0..4)
        .map(|slot| {
            (0..2)
                .map(|_| {
                    fsi::HttpServer::bind_with(
                        serving.service_shard(&local_spec, slot).unwrap(),
                        "127.0.0.1:0",
                        2,
                    )
                    .unwrap()
                })
                .collect()
        })
        .collect();
    let spec = TopologySpec {
        rows: 2,
        cols: 2,
        shards: servers
            .iter()
            .map(|pair| {
                BackendSpec::Replicas(
                    pair.iter()
                        .map(|s| BackendSpec::Http(s.addr().to_string()))
                        .collect(),
                )
            })
            .collect(),
    };
    let service = serving
        .service_over_with(&spec, storm_policy())
        .unwrap()
        .with_metrics(true);
    let coordinator = fsi::HttpServer::bind_with(service, "127.0.0.1:0", CLIENTS + 1).unwrap();
    let addr = coordinator.addr();

    // Hot points spread over all four quadrants, so every slot —
    // including the one losing a replica — carries traffic.
    let b = *d.grid().bounds();
    let hot: Vec<Point> = (0..8)
        .map(|i| {
            Point::new(
                b.min_x + (0.07 + 0.125 * i as f64) * b.width(),
                b.min_y + (0.93 - 0.11 * i as f64) * b.height(),
            )
        })
        .collect();
    let expected: Vec<DecisionBody> = hot
        .iter()
        .map(|p| direct.lookup(p).unwrap().into())
        .collect();
    let wire: Vec<WirePoint> = hot.iter().map(|p| WirePoint::new(p.x, p.y)).collect();

    let barrier = Barrier::new(CLIENTS + 1);
    std::thread::scope(|scope| {
        let mut clients = Vec::new();
        for worker in 0..CLIENTS {
            let (barrier, hot, expected, wire) = (&barrier, &hot, &expected, &wire);
            clients.push(scope.spawn(move || {
                let mut client = fsi::HttpClient::connect(addr).expect("client connects");
                for (phase, &requests) in PHASES.iter().enumerate() {
                    barrier.wait();
                    for i in 0..requests {
                        if i % 5 == 4 {
                            // A full batch: scatter over every slot,
                            // including the degraded one.
                            let response = client
                                .call(&Request::LookupBatch {
                                    points: wire.clone(),
                                })
                                .expect("batch round-trip");
                            match response {
                                Response::Decisions { decisions } => assert_eq!(
                                    &decisions, expected,
                                    "client {worker} phase {phase} batch {i}"
                                ),
                                other => panic!("expected decisions, got {other:?}"),
                            }
                        } else {
                            let k = (worker + i) % hot.len();
                            let p = &hot[k];
                            let got = expect_decision(
                                client
                                    .call(&Request::Lookup { x: p.x, y: p.y })
                                    .expect("lookup round-trip"),
                            );
                            assert_eq!(
                                got, expected[k],
                                "client {worker} phase {phase} request {i}"
                            );
                            assert_eq!(got.raw_score.to_bits(), expected[k].raw_score.to_bits());
                            assert_eq!(
                                got.calibrated_score.to_bits(),
                                expected[k].calibrated_score.to_bits()
                            );
                        }
                    }
                    barrier.wait();
                }
            }));
        }

        // The failure driver, phase-locked with the clients.
        barrier.wait(); // phase 0 starts: healthy fleet
        barrier.wait(); // phase 0 done
        let dead = servers[1].remove(0);
        let dead_addr = dead.addr();
        dead.shutdown();
        barrier.wait(); // phase 1 starts: slot 1 lost its preferred replica
        barrier.wait(); // phase 1 done
        let revived = rebind(|| serving.service_shard(&local_spec, 1).unwrap(), dead_addr);
        servers[1].insert(0, revived);
        // Let the breaker's reset window lapse so the next slot-1
        // attempt half-opens and probes the revived replica.
        std::thread::sleep(Duration::from_millis(200));
        barrier.wait(); // phase 2 starts: recovery
        barrier.wait(); // phase 2 done

        for client in clients {
            client.join().expect("client survived the storm");
        }
    });

    // The whole breaker cycle is visible in one Prometheus scrape of
    // the coordinator: the killed replica opened, later half-opened,
    // and closed again after the successful probe — and the failovers
    // themselves show up as retries.
    let text = fsi::scrape_metrics(addr).unwrap();
    let transitions = |into: &str| {
        family_total(
            &text,
            "fsi_resil_breaker_transitions_total{",
            &format!("into=\"{into}\""),
        )
    };
    assert!(transitions("open") >= 1, "breaker never opened:\n{text}");
    assert!(
        transitions("half_open") >= 1,
        "breaker never half-opened:\n{text}"
    );
    assert!(
        transitions("closed") >= 1,
        "breaker never closed after the probe:\n{text}"
    );
    assert!(
        family_total(&text, "fsi_resil_retries_total{", "shard=\"1\"") >= 1,
        "failovers must surface as slot-1 retries:\n{text}"
    );
    assert!(
        text.contains("fsi_resil_breaker_state{"),
        "breaker state gauge missing:\n{text}"
    );

    // And the health surface agrees: 4 slots × 2 replicas, all
    // admitted again.
    match fsi::http::query_once(addr, &Request::Health).unwrap() {
        Response::Health { health } => {
            assert_eq!(health.shards.len(), 4);
            for shard in &health.shards {
                assert_eq!(shard.kind, "replicas");
                assert_eq!(shard.replicas.len(), 2);
            }
            assert!(health.all_up(), "fleet not recovered: {health:?}");
        }
        other => panic!("expected health, got {other:?}"),
    }

    coordinator.shutdown();
    for pair in servers {
        for server in pair {
            server.shutdown();
        }
    }
}

/// A `ChaosShard` over an in-process `LocalShard` is a wrapper like any
/// other: the coordinator of a 1×1 topology forwards to it instead of
/// reading the shard underneath, so a downed switch fails the lookup
/// rather than being skipped, and raising it serves again.
#[test]
fn chaos_over_a_local_shard_fails_reads_while_down() {
    let d = dataset();
    let index = Pipeline::on(&d)
        .task(TaskSpec::act())
        .method(Method::FairKd)
        .height(4)
        .run()
        .unwrap()
        .freeze()
        .unwrap();
    let spec = TopologySpec {
        rows: 1,
        cols: 1,
        shards: vec![BackendSpec::Http("chaos:0".into())],
    };
    let switch = Mutex::new(None);
    let topology = fsi::Topology::from_spec(&spec, index.clone(), |_: &str| {
        let local = fsi::LocalShard::new(fsi::IndexHandle::new(index.clone()));
        let chaos = fsi::ChaosShard::new(Box::new(local));
        *switch.lock().unwrap() = Some(chaos.switch());
        Ok(Box::new(chaos) as Box<dyn ShardBackend>)
    })
    .unwrap();
    let switch = switch.into_inner().unwrap().expect("one slot");
    let mut service = QueryService::new(topology);
    let b = *d.grid().bounds();
    let (x, y) = (b.min_x + 0.3 * b.width(), b.min_y + 0.6 * b.height());
    switch.set_down(true);
    match service.dispatch(&Request::Lookup { x, y }) {
        Response::Error { error } => {
            assert_eq!(error.code, fsi::ErrorCode::Internal);
            assert!(
                error.message.contains("chaos: replica is down"),
                "{}",
                error.message
            );
        }
        other => panic!("a downed chaos slot must fail the read, got {other:?}"),
    }
    switch.set_down(false);
    let expected: DecisionBody = index.lookup(&Point::new(x, y)).unwrap().into();
    assert_eq!(
        expect_decision(service.dispatch(&Request::Lookup { x, y })),
        expected
    );
}

/// The `Ingested` ack on a topology of in-process replica slots reports
/// the live generation, read from the members' handles without a
/// round-trip — not 0, as if every slot were remote.
#[test]
fn ingested_ack_reports_the_generation_of_in_process_replica_slots() {
    let d = dataset();
    let policy = MaintenanceSpec {
        drift_threshold: 1e18,
        max_buffered: 1 << 20,
        max_staleness_ms: 0,
        poll_interval_ms: 5,
    };
    let serving = Pipeline::on(&d)
        .task(TaskSpec::act())
        .method(Method::FairKd)
        .height(4)
        .run()
        .unwrap()
        .serve_with_ingest(policy)
        .unwrap();
    let spec = TopologySpec {
        rows: 2,
        cols: 2,
        shards: (0..4)
            .map(|_| BackendSpec::Replicas(vec![BackendSpec::Local, BackendSpec::Local]))
            .collect(),
    };
    let mut coordinator = serving.service_over_with(&spec, storm_policy()).unwrap();
    let b = *d.grid().bounds();
    let points = (0..4)
        .map(|k| {
            let f = 0.1 + 0.2 * f64::from(k);
            IngestBody::new(b.min_x + f * b.width(), b.min_y + f * b.height(), k, true)
        })
        .collect();
    match coordinator.dispatch(&Request::Stats) {
        Response::Stats { stats } => assert_eq!(stats.generations, vec![1; 4]),
        other => panic!("expected stats, got {other:?}"),
    }
    match coordinator.dispatch(&Request::IngestBatch { points }) {
        Response::Ingested {
            accepted,
            generation,
            ..
        } => assert_eq!((accepted, generation), (4, 1)),
        other => panic!("expected an ingested ack, got {other:?}"),
    }
}

/// The `{"replicas": [...]}` slot form round-trips through JSON and
/// rejects nesting — the spec file `redistricting_cli serve --topology`
/// reads can describe a replicated fleet.
#[test]
fn replica_topology_spec_round_trips_and_rejects_nesting() {
    let json = r#"{
        "rows": 1,
        "cols": 2,
        "shards": [
            "local",
            {"replicas": ["http://127.0.0.1:9001", "http://127.0.0.1:9002"]}
        ]
    }"#;
    let spec: TopologySpec = serde_json::from_str(json).unwrap();
    assert_eq!(spec.shards[0], BackendSpec::Local);
    assert_eq!(
        spec.shards[1],
        BackendSpec::Replicas(vec![
            BackendSpec::Http("127.0.0.1:9001".to_string()),
            BackendSpec::Http("127.0.0.1:9002".to_string()),
        ])
    );
    let back: TopologySpec = serde_json::from_str(&serde_json::to_string(&spec).unwrap()).unwrap();
    assert_eq!(back.shards, spec.shards);

    let nested = r#"{
        "rows": 1,
        "cols": 1,
        "shards": [{"replicas": [{"replicas": ["local"]}]}]
    }"#;
    let nested: TopologySpec = serde_json::from_str(nested).unwrap();
    assert!(
        nested.validate().unwrap_err().to_string().contains("nest"),
        "nested replica sets must be rejected by validation"
    );
}

/// A policy file survives the JSON round trip the CLI performs, and a
/// bad knob is rejected with a pointed message.
#[test]
fn resilience_policy_files_round_trip_and_validate() {
    let policy = ResiliencePolicy {
        backoff_cap_ms: 20,
        ..ResiliencePolicy::default()
    };
    policy.validate().unwrap();
    let json = serde_json::to_string(&policy).unwrap();
    let back: ResiliencePolicy = serde_json::from_str(&json).unwrap();
    assert_eq!(back, policy);

    let bad = ResiliencePolicy {
        max_attempts: 0,
        ..ResiliencePolicy::default()
    };
    let ResilError::InvalidPolicy(message) = bad.validate().unwrap_err() else {
        panic!("expected an invalid-policy error");
    };
    assert!(message.contains("max_attempts"), "{message}");
}

// ---------------------------------------------------------------------
// RemoteShard reconnect behavior under a connection-dropping server.
// ---------------------------------------------------------------------

/// A deliberately hostile shard server: every connection serves at most
/// **one** request and is then closed (no keep-alive), and the first
/// `drop_first` connections are closed immediately without serving at
/// all. Requests that do get through are answered by a real
/// `QueryService`, so responses are genuine decisions.
struct FlakyServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl FlakyServer {
    fn spawn(service: QueryService, drop_first: usize) -> Self {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let service = Mutex::new(service);
            let connections = AtomicUsize::new(0);
            for stream in listener.incoming() {
                if thread_stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let n = connections.fetch_add(1, Ordering::Relaxed);
                if n < drop_first {
                    drop(stream); // slam the door: accepted, never served
                    continue;
                }
                let _ = Self::serve_one(stream, &service);
            }
        });
        Self {
            addr,
            stop,
            handle: Some(handle),
        }
    }

    /// Reads exactly one framed HTTP request, answers it, closes.
    fn serve_one(stream: TcpStream, service: &Mutex<QueryService>) -> std::io::Result<()> {
        stream.set_nodelay(true)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut line = String::new();
        reader.read_line(&mut line)?; // request line, e.g. POST /query
        let mut content_length = 0usize;
        loop {
            let mut header = String::new();
            if reader.read_line(&mut header)? == 0 {
                return Ok(());
            }
            let header = header.trim();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().unwrap_or(0);
                }
            }
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body)?;
        let body = String::from_utf8_lossy(&body);
        let response = match decode_request(&body) {
            Ok(request) => service
                .lock()
                .expect("service lock poisoned")
                .dispatch(&request),
            Err(e) => Response::error(fsi::ErrorCode::MalformedRequest, e.to_string()),
        };
        let payload = encode_response(&response);
        let mut writer = stream;
        write!(
            writer,
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{payload}",
            payload.len()
        )?;
        writer.flush()
        // `writer` drops here: the keep-alive connection dies after one
        // request, which is the whole point of this server.
    }

    fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.addr); // unblock accept
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Satellite: a server that drops its keep-alive connection after every
/// single request must cost `RemoteShard` one transparent redial per
/// call — never a client-visible error — and the redials must show up
/// in its transport stats.
#[test]
fn remote_shard_redials_when_the_server_drops_keepalive_connections() {
    let d = dataset();
    let run = Pipeline::on(&d)
        .method(Method::MedianKd)
        .height(3)
        .run()
        .unwrap();
    let direct = run.freeze().unwrap();
    let server = FlakyServer::spawn(run.serve().unwrap().service(), 0);

    let shard = RemoteShard::connect(&server.addr.to_string()).unwrap();
    let b = *d.grid().bounds();
    for i in 0..5 {
        let p = Point::new(
            b.min_x + (0.1 + 0.15 * i as f64) * b.width(),
            b.min_y + (0.1 + 0.15 * i as f64) * b.height(),
        );
        let expected: DecisionBody = direct.lookup(&p).unwrap().into();
        let got = expect_decision(shard.dispatch(&Request::Lookup { x: p.x, y: p.y }));
        assert_eq!(got, expected, "call {i} through the flaky server");
    }
    let stats = shard.transport_stats().expect("remote shards have stats");
    assert!(
        stats.reconnects >= 4,
        "five calls over one-shot connections need a redial per call after \
         the first, saw {} reconnects",
        stats.reconnects
    );
    server.shutdown();
}

/// Satellite: the redial budget is policy-configurable. Against a
/// server that slams the first three connections shut, a one-redial
/// shard exhausts its budget and surfaces a structured `internal`
/// error; a four-redial shard dials through the bad patch and answers
/// on the first dispatch.
#[test]
fn remote_shard_reconnect_budget_is_policy_configurable() {
    let d = dataset();
    let run = Pipeline::on(&d)
        .method(Method::MedianKd)
        .height(2)
        .run()
        .unwrap();
    let serving = run.serve().unwrap();
    let probe = Request::Lookup {
        x: d.grid().bounds().min_x + d.grid().bounds().width() * 0.4,
        y: d.grid().bounds().min_y + d.grid().bounds().height() * 0.4,
    };

    // Budget too small: connections 0 (the eager dial), 1 and 2 are
    // slammed shut; two redials reach only connections 1 and 2.
    let stingy_server = FlakyServer::spawn(serving.service(), 3);
    let stingy = RemoteShard::connect(&stingy_server.addr.to_string())
        .unwrap()
        .with_reconnect_attempts(2);
    match stingy.dispatch(&probe) {
        Response::Error { error } => assert_eq!(error.code, fsi::ErrorCode::Internal),
        other => panic!("a two-redial budget cannot get through, got {other:?}"),
    }
    // The budget renews per dispatch: the next call's first redial
    // lands on connection 3, which is served.
    expect_decision(stingy.dispatch(&probe));
    stingy_server.shutdown();

    // Budget raised (what `ResilientConnector` derives from the
    // policy's attempt budget): the same bad patch is dialed through
    // within a single dispatch.
    let patient_server = FlakyServer::spawn(serving.service(), 3);
    let patient = RemoteShard::connect(&patient_server.addr.to_string())
        .unwrap()
        .with_reconnect_attempts(4);
    expect_decision(patient.dispatch(&probe));
    let stats = patient.transport_stats().unwrap();
    assert!(
        stats.reconnects >= 3,
        "dialing through three dead connections takes three redials, saw {}",
        stats.reconnects
    );
    patient_server.shutdown();
}
