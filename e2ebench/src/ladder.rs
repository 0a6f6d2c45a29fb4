//! The traced run's per-layer ladder.
//!
//! The workload's recorded sample is replayed in process through the
//! stack's public entry points, one layer added per rung: frozen index →
//! `QueryService` over one shard → 2×2 coordinator → replica sets, then
//! the JSON codec and the HTTP transport. The rebuild path is replayed
//! the same way: drift measure, merge, pipeline run, compile, clip, and
//! real maintenance passes whose remainder is the two-phase barrier. A
//! rung's cost minus the rung below it is that layer's cost. The
//! server's own `Metrics` scrape after the traced load adds the
//! transport's read / handle / write phases.

use crate::deploy::{self, Deployment};
use crate::load::Span;
use crate::oracle::{check, Expect, Verdict};
use crate::report::{Outcome, PER_LAYER};
use crate::stats::{median, quantile};
use crate::workloads::{LadderSample, Report};
use crate::{Args, Res, Workload};
use fsi::{
    decode_request, decode_response, encode_request, encode_response, FrozenIndex, HttpClient,
    IngestBody, Point, QueryService, Request, ResiliencePolicy, Response, Topology, TopologySpec,
    WirePoint, WireRect,
};
use fsi_ingest::{baseline_stats, merge_dataset, DeltaBuffer, DriftDetector, IngestRecord};
use fsi_pipeline::run_spec;
use fsi_serve::compile_run;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Timed sweeps per rung; the median sweep is reported.
const SWEEPS: usize = 9;
/// Lookups replayed per rung: the head of the recorded sample.
const LOOKUPS: usize = 4096;
/// Range queries replayed per rung.
const RANGES: usize = 512;
/// Unloaded lookups timed over HTTP.
const RTTS: usize = 1000;
/// Unloaded batches timed over HTTP.
const BATCH_RTTS: usize = 10;
/// Pipeline runs timed per data set.
const PIPELINE_RUNS: usize = 3;
/// Maintenance passes replayed in process, one burst each.
const PASSES: usize = 6;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// The median over [`SWEEPS`] of one sweep's time per item, in ns,
/// after one untimed sweep.
fn per_item_ns(items: usize, mut sweep: impl FnMut() -> u64) -> f64 {
    black_box(sweep());
    let times: Vec<f64> = (0..SWEEPS)
        .map(|_| {
            let t = Instant::now();
            black_box(sweep());
            t.elapsed().as_nanos() as f64 / items as f64
        })
        .collect();
    median(&times)
}

/// The median wall time of `runs` calls, in ms.
fn median_ms<T>(runs: usize, mut call: impl FnMut() -> Res<T>) -> Res<f64> {
    let mut times = Vec::with_capacity(runs);
    for _ in 0..runs {
        let t = Instant::now();
        black_box(call()?);
        times.push(ms(t.elapsed()));
    }
    Ok(median(&times))
}

/// The sample as protocol requests, with the reference's answers both as
/// oracle expectations and as responses for the codec rung.
struct Replay {
    lookups: Vec<Request>,
    lookup_expect: Vec<Expect>,
    lookup_answers: Vec<Response>,
    ranges: Vec<Request>,
    range_expect: Vec<Expect>,
    range_answers: Vec<Response>,
    batch: Request,
    batch_answer: Response,
    batch_expect: Expect,
    batch_len: usize,
}

impl Replay {
    fn new(sample: &LadderSample, reference: &FrozenIndex) -> Self {
        let points = &sample.points[..sample.points.len().min(LOOKUPS)];
        let rects = &sample.rects[..sample.rects.len().min(RANGES)];
        let decide = |p: &Point| {
            reference
                .lookup(p)
                .expect("sampled points lie inside the map")
        };
        let batch: Vec<_> = sample.batch.iter().map(decide).collect();
        Self {
            lookups: points
                .iter()
                .map(|p| Request::Lookup { x: p.x, y: p.y })
                .collect(),
            lookup_expect: points.iter().map(|p| Expect::Decision(decide(p))).collect(),
            lookup_answers: points
                .iter()
                .map(|p| Response::Decision {
                    decision: decide(p).into(),
                })
                .collect(),
            ranges: rects
                .iter()
                .map(|r| Request::RangeQuery {
                    rect: WireRect::new(r.min_x, r.min_y, r.max_x, r.max_y),
                })
                .collect(),
            range_expect: rects.iter().map(|r| Expect::range(reference, r)).collect(),
            range_answers: rects
                .iter()
                .map(|r| Response::Regions {
                    ids: reference.range_query(r),
                })
                .collect(),
            batch: Request::LookupBatch {
                points: sample
                    .batch
                    .iter()
                    .map(|p| WirePoint::new(p.x, p.y))
                    .collect(),
            },
            batch_answer: Response::Decisions {
                decisions: batch.iter().map(|&d| d.into()).collect(),
            },
            batch_expect: Expect::Decisions(batch.into()),
            batch_len: sample.batch.len(),
        }
    }

    /// Answers the whole replay once through `service`; the first wrong
    /// answer becomes a problem.
    fn verify(&self, rung: &str, service: &mut QueryService, problems: &mut Vec<String>) {
        let checks = self
            .lookups
            .iter()
            .zip(&self.lookup_expect)
            .chain(self.ranges.iter().zip(&self.range_expect))
            .chain(std::iter::once((&self.batch, &self.batch_expect)));
        for (request, expect) in checks {
            let verdict = check(&service.dispatch(request), expect);
            if verdict != Verdict::Ok {
                problems.push(format!("{rung} rung: {verdict:?}"));
                return;
            }
        }
    }

    fn lookup_ns(&self, service: &mut QueryService) -> f64 {
        per_item_ns(self.lookups.len(), || {
            self.lookups
                .iter()
                .map(|r| leaf(&service.dispatch(r)))
                .sum()
        })
    }

    /// One serving plane's three dispatch rungs — lookup ns, batch ns
    /// per point, range µs — after checking it answers like the
    /// reference.
    fn rung(&self, name: &str, service: &mut QueryService, problems: &mut Vec<String>) -> [f64; 3] {
        self.verify(name, service, problems);
        let lookup = self.lookup_ns(service);
        let batch = per_item_ns(self.batch_len, || match service.dispatch(&self.batch) {
            Response::Decisions { decisions } => decisions.len() as u64,
            _ => 0,
        });
        let range = per_item_ns(self.ranges.len(), || {
            self.ranges
                .iter()
                .map(|r| match service.dispatch(r) {
                    Response::Regions { ids } => ids.len() as u64,
                    _ => 0,
                })
                .sum()
        });
        [lookup, batch, range / 1e3]
    }
}

fn leaf(response: &Response) -> u64 {
    match response {
        Response::Decision { decision } => decision.leaf_id as u64,
        _ => 0,
    }
}

/// One round-trip's JSON work at both ends: encode and decode the
/// request, encode and decode the response.
fn codec(request: &Request, response: &Response) -> u64 {
    let wire = encode_request(request);
    let request_ok = decode_request(&wire).is_ok();
    let answer = encode_response(response);
    let response_ok = decode_response(&answer).is_ok();
    (wire.len() + answer.len()) as u64 + u64::from(request_ok && response_ok)
}

/// Replica attempts and retries summed over every slot, from `Health`.
fn replica_counters(service: &mut QueryService) -> Res<(f64, f64)> {
    match service.dispatch(&Request::Health) {
        Response::Health { health } => Ok(health
            .shards
            .iter()
            .flat_map(|s| &s.replicas)
            .fold((0.0, 0.0), |(attempts, retries), r| {
                (attempts + r.attempts as f64, retries + r.retries as f64)
            })),
        other => Err(format!("Health answered {other:?}").into()),
    }
}

/// Writes the traced load's client spans as CSV under the build
/// directory (`$CARGO_TARGET_DIR/trace/`) and returns the path.
fn write_spans(args: &Args, spans: &[Span]) -> std::io::Result<PathBuf> {
    let dir = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("e2ebench/target"), PathBuf::from)
        .join("trace");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{}-seed{}.csv", args.workload.name(), args.seed));
    let mut csv = String::from("encode_ns,transport_ns,decode_ns\n");
    for s in spans {
        let _ = writeln!(csv, "{},{},{}", s.encode_ns, s.transport_ns, s.decode_ns);
    }
    std::fs::write(&path, csv)?;
    Ok(path)
}

/// The per-layer metrics of a traced run. `plain` is the untraced run of
/// the same workload and seed; `deployment` is still serving `traced`.
pub fn run(args: &Args, deployment: &Deployment, plain: &Report, traced: &Report) -> Res<Outcome> {
    let sample = &traced.sample;
    let reference = &deployment.reference;
    let dataset = &deployment.dataset;
    let spec = &deployment.spec;
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let mut problems = Vec::new();

    // fsi.http, server side: its own phase timings under the traced
    // load, scraped before the ladder adds traffic.
    let mut client = HttpClient::connect(deployment.server.addr())?;
    let scrape = match client.call(&Request::Metrics)? {
        Response::Metrics { metrics } => metrics,
        other => return Err(format!("Metrics answered {other:?}").into()),
    };
    let http = scrape
        .http
        .as_ref()
        .ok_or("the server's scrape carries no transport block")?;
    m.extend([
        ("http.read_p50_us", http.read.p50() as f64 / 1e3),
        ("http.handle_p50_us", http.handle.p50() as f64 / 1e3),
        ("http.write_p50_us", http.write.p50() as f64 / 1e3),
    ]);

    let run = deploy::pipeline(dataset).run()?;
    let serving = run.serve()?;
    let replay = Replay::new(sample, reference);

    // serve.frozen: the reference index itself.
    let points = &sample.points[..sample.points.len().min(LOOKUPS)];
    let rects = &sample.rects[..sample.rects.len().min(RANGES)];
    let mut out = Vec::new();
    m.extend([
        (
            "frozen.lookup_ns",
            per_item_ns(points.len(), || {
                points
                    .iter()
                    .map(|p| reference.lookup(p).map_or(0, |d| d.leaf_id as u64))
                    .sum()
            }),
        ),
        (
            "frozen.batch_ns_per_pt",
            per_item_ns(sample.batch.len(), || {
                reference
                    .lookup_batch(&sample.batch, &mut out)
                    .map_or(0, |()| out.len() as u64)
            }),
        ),
        (
            "frozen.range_us",
            per_item_ns(rects.len(), || {
                rects
                    .iter()
                    .map(|r| reference.range_query(r).len() as u64)
                    .sum()
            }) / 1e3,
        ),
    ]);

    // serve.service → serve.topology → resil.replica: the same replay
    // through ever more of the serving plane.
    let [lookup, batch, range] = replay.rung("service", &mut serving.service(), &mut problems);
    m.extend([
        ("service.lookup_ns", lookup),
        ("service.batch_ns_per_pt", batch),
        ("service.range_us", range),
    ]);
    let mut coordinator = serving.service_over(&TopologySpec::local(2, 2))?;
    let [topology_lookup, batch, range] = replay.rung("topology", &mut coordinator, &mut problems);
    let fanout = rects
        .iter()
        .map(|r| coordinator.topology().covering(r).len() as f64)
        .sum::<f64>()
        / rects.len() as f64;
    m.extend([
        ("topology.lookup_ns", topology_lookup),
        ("topology.batch_ns_per_pt", batch),
        ("topology.range_us", range),
        ("topology.range_fanout", fanout),
    ]);
    let replicated =
        || serving.service_over_with(&deploy::replicated_topology(), ResiliencePolicy::default());
    let mut resilient = replicated()?;
    replay.verify("resil", &mut resilient, &mut problems);
    let resil_lookup = replay.lookup_ns(&mut resilient);
    // A fresh plane answers exactly one pass of lookups, so its counters
    // divide cleanly.
    let mut counted = replicated()?;
    for request in &replay.lookups {
        black_box(counted.dispatch(request));
    }
    let (attempts, retries) = replica_counters(&mut counted)?;
    m.extend([
        ("resil.lookup_ns", resil_lookup),
        (
            "resil.attempts_per_request",
            attempts / replay.lookups.len() as f64,
        ),
        ("resil.retries", retries),
    ]);

    // proto.wire: both ends' JSON work per round-trip.
    let lookup_codec = per_item_ns(replay.lookups.len(), || {
        replay
            .lookups
            .iter()
            .zip(&replay.lookup_answers)
            .map(|(q, a)| codec(q, a))
            .sum()
    });
    let batch_points = replay.batch_len as f64;
    m.extend([
        ("proto.lookup_codec_ns", lookup_codec),
        (
            "proto.batch_codec_ns_per_pt",
            per_item_ns(replay.batch_len, || {
                codec(&replay.batch, &replay.batch_answer)
            }),
        ),
        (
            "proto.range_codec_us",
            per_item_ns(replay.ranges.len(), || {
                replay
                    .ranges
                    .iter()
                    .zip(&replay.range_answers)
                    .map(|(q, a)| codec(q, a))
                    .sum()
            }) / 1e3,
        ),
        (
            "proto.batch_req_bytes_per_pt",
            encode_request(&replay.batch).len() as f64 / batch_points,
        ),
        (
            "proto.batch_resp_bytes_per_pt",
            encode_response(&replay.batch_answer).len() as f64 / batch_points,
        ),
    ]);

    // fsi.http, client side: unloaded round-trips on one connection.
    let mut rtts = Vec::with_capacity(RTTS);
    for request in replay.lookups.iter().take(RTTS) {
        let t = Instant::now();
        let answer = client.call(request);
        rtts.push(us(t.elapsed()));
        if !matches!(answer, Ok(Response::Decision { .. })) {
            problems.push(format!("an unloaded lookup answered {answer:?}"));
            break;
        }
    }
    let mut batch_rtts = Vec::with_capacity(BATCH_RTTS);
    for _ in 0..BATCH_RTTS {
        let t = Instant::now();
        let answer = client.call(&replay.batch);
        batch_rtts.push(ms(t.elapsed()));
        if !matches!(answer, Ok(Response::Decisions { .. })) {
            problems.push("an unloaded batch failed".into());
            break;
        }
    }
    drop(client);
    let lookup_rtt = median(&rtts);
    // The dispatch rung of the plane the server runs: replica sets, or
    // plain local shards on ingest_refresh.
    let served_ns = if args.workload == Workload::IngestRefresh {
        topology_lookup
    } else {
        resil_lookup
    };
    m.extend([
        ("http.lookup_rtt_us", lookup_rtt),
        ("http.batch_rtt_ms", median(&batch_rtts)),
        (
            "http.self_us",
            lookup_rtt - (lookup_codec + served_ns) / 1e3,
        ),
    ]);

    // The client's spans under the traced load.
    let span_us = |part: fn(&Span) -> u64| {
        let values: Vec<f64> = traced.spans.iter().map(|s| part(s) as f64 / 1e3).collect();
        median(&values)
    };
    m.extend([
        ("client.encode_us", span_us(|s| s.encode_ns)),
        ("client.transport_us", span_us(|s| s.transport_ns)),
        ("client.decode_us", span_us(|s| s.decode_ns)),
    ]);
    let mut notes: Vec<String> = plain
        .describe()
        .into_iter()
        .map(|l| format!("untraced: {l}"))
        .collect();
    notes.extend(
        traced
            .describe()
            .into_iter()
            .map(|l| format!("traced:   {l}")),
    );
    match write_spans(args, &traced.spans) {
        Ok(path) => notes.push(format!("client spans written to {}", path.display())),
        Err(e) => notes.push(format!("client spans not written: {e}")),
    }

    // ingest: the write path's pieces.
    let grid = dataset.grid();
    let writes: Vec<IngestBody> = sample.bursts.concat();
    m.push((
        "ingest.accept_ns_per_pt",
        per_item_ns(writes.len(), || {
            let buffer = DeltaBuffer::new(grid.clone());
            writes
                .iter()
                .filter(|b| buffer.accept(b.x, b.y, b.group, b.label).is_some())
                .count() as u64
        }),
    ));
    let baseline = baseline_stats(dataset, &spec.task)?;
    let one_burst = DeltaBuffer::new(grid.clone());
    for b in &sample.bursts[0] {
        one_burst.accept(b.x, b.y, b.group, b.label);
    }
    let detector = DriftDetector::new();
    m.push((
        "ingest.drift_measure_us",
        per_item_ns(1, || {
            detector
                .measure(&baseline, &one_burst)
                .map_or(0, |r| r.score.to_bits())
        }) / 1e3,
    ));
    let records: Vec<IngestRecord> = writes
        .iter()
        .enumerate()
        .map(|(seq, body)| IngestRecord::from_wire(seq as u64, body))
        .collect();
    m.push((
        "ingest.merge_ms",
        median_ms(PIPELINE_RUNS, || {
            Ok(merge_dataset(dataset, &spec.task, &records)?)
        })?,
    ));

    // pipeline: the training run on the seed and on seed ∪ every burst.
    let mut partition = Vec::with_capacity(PIPELINE_RUNS);
    let seed_ms = median_ms(PIPELINE_RUNS, || {
        let run = run_spec(dataset, spec)?;
        partition.push(ms(run.build_time));
        Ok(run.trainings)
    })?;
    let merged = merge_dataset(dataset, &spec.task, &records)?;
    let merged_ms = median_ms(PIPELINE_RUNS, || Ok(run_spec(&merged, spec)?.trainings))?;
    let partition_ms = median(&partition);
    m.extend([
        ("pipeline.run_spec_seed_ms", seed_ms),
        ("pipeline.run_spec_merged_ms", merged_ms),
        ("pipeline.partition_ms", partition_ms),
        ("pipeline.fit_eval_ms", seed_ms - partition_ms),
    ]);

    // serve.rebuild: compile, clip, and real maintenance passes.
    m.push((
        "serve.compile_us",
        per_item_ns(1, || {
            compile_run(&run, dataset).map_or(0, |index| index.num_leaves() as u64)
        }) / 1e3,
    ));
    let index = run.freeze()?;
    let mut clips = Vec::with_capacity(SWEEPS);
    for _ in 0..SWEEPS {
        let copy = index.clone();
        let t = Instant::now();
        let shards = Topology::partitioned(copy, 2, 2)?;
        clips.push(us(t.elapsed()));
        drop(shards);
    }
    m.push(("serve.clip_us", median(&clips)));

    let policy = deploy::maintenance_policy();
    let ingesting = run.serve_with_ingest(policy.clone())?;
    let mut maintained = ingesting.service_over(&TopologySpec::local(2, 2))?;
    let (mut log, mut dispatch_us, mut barrier_ms) = (Vec::new(), Vec::new(), Vec::new());
    for (k, burst) in sample.bursts.iter().take(PASSES).enumerate() {
        let t = Instant::now();
        let ack = maintained.dispatch(&Request::IngestBatch {
            points: burst.clone(),
        });
        dispatch_us.push(us(t.elapsed()));
        if check(&ack, &Expect::Ingested(burst.len() as u64)) != Verdict::Ok {
            problems.push(format!("in-process ingest of burst {k} answered {ack:?}"));
            break;
        }
        let base = log.len() as u64;
        log.extend(
            burst
                .iter()
                .enumerate()
                .map(|(i, body)| IngestRecord::from_wire(base + i as u64, body)),
        );
        let t = Instant::now();
        let published = maintained.maintain(&policy, spec)?;
        let pass = ms(t.elapsed());
        if published.is_none() {
            problems.push(format!("in-process burst {k} did not trip maintenance"));
            continue;
        }
        // The pass's stages replayed one by one; what they leave of the
        // pass is the barrier.
        let t = Instant::now();
        let merged = merge_dataset(dataset, &spec.task, &log)?;
        let merge = ms(t.elapsed());
        let t = Instant::now();
        let retrained = run_spec(&merged, spec)?;
        let fit = ms(t.elapsed());
        let t = Instant::now();
        let index = compile_run(&retrained, &merged)?;
        let compile = ms(t.elapsed());
        let t = Instant::now();
        let shards = Topology::partitioned(index, 2, 2)?;
        let clip = ms(t.elapsed());
        drop(shards);
        barrier_ms.push(pass - merge - fit - compile - clip);
    }
    let telemetry = maintained.metrics_snapshot();
    let ingest = telemetry
        .ingest
        .as_ref()
        .ok_or("the in-process plane reports no ingest telemetry")?;
    m.extend([
        ("ingest.batch_dispatch_us", median(&dispatch_us)),
        ("ingest.accepted", ingest.accepted as f64),
        ("ingest.rejected", ingest.rejected as f64),
        (
            "serve.maintenance_p50_ms",
            ingest.maintenance.p50() as f64 / 1e6,
        ),
        ("serve.barrier_ms", median(&barrier_ms)),
    ]);

    // The generator, and what tracing cost.
    let (plain_total, traced_total) = (plain.total(), traced.total());
    let (u, t) = (&plain.e2e, &traced.e2e);
    m.extend([
        (
            "gen.lateness_p99_us",
            quantile(&traced.lateness_ns, 0.99) / 1e3,
        ),
        ("gen.sent", traced_total.sent as f64),
        ("gen.completed", traced_total.ok as f64),
        ("trace.overhead_p50_us", t.read_p50_us - u.read_p50_us),
        ("trace.overhead_p95_us", t.read_p95_us - u.read_p95_us),
        (
            "trace.overhead_rate_pct",
            (u.read_rate_per_s - t.read_rate_per_s) / u.read_rate_per_s * 100.0,
        ),
    ]);

    notes.extend(problems.iter().map(|p| format!("PROBLEM: {p}")));
    let correct = plain.correct() && traced.correct() && problems.is_empty();
    Outcome::new(
        correct,
        plain_total.sent + traced_total.sent,
        plain_total.bad() + traced_total.bad(),
        PER_LAYER,
        &m,
        notes,
    )
}
