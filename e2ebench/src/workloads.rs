//! The three workloads: seeded load against a fresh deployment, the
//! oracle over every answer, and the end-to-end numbers.
//!
//! The result line must carry every end-to-end metric on every workload,
//! so each metric is defined on what that workload serves; the readable
//! report adds the workload's own metrics under their own names.
//! `README.md` has the full table.

use crate::deploy::{Deployment, Plane};
use crate::gen::{self, lane, open_plan, Gen, Kind, Planned};
use crate::load::{self, Conn, Lane, Sample, Span, Tally};
use crate::oracle::Expect;
use crate::report::{rss_peak_mb, Metric, Outcome, END_TO_END};
use crate::rng::Rng;
use crate::stats::{best_cycles, cycle_mean, fastest_tenth, quantile};
use crate::{Args, Res, Workload};
use fsi::{Decision, FrozenIndex, IngestBody, Point, Rect, Request, Response, Topology, WirePoint};
use fsi_ingest::IngestRecord;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Client connections, one thread each: `nproc` of the 2-CPU box the
/// benchmark was sized on, and the server's worker count.
const CONNS: usize = 2;
/// `lookup_mix` open-loop rate over both connections, requests/s: about
/// a fifth of the closed-loop capacity, so slow spells of a shared
/// machine do not tip the open loop into queueing, and high enough that
/// every cycle holds over 200 range queries.
const MIX_RATE: f64 = 3000.0;
/// `ingest_refresh` reader rate, lookups/s.
const READER_RATE: f64 = 400.0;
/// Longest reader schedule generated; the reader stops with the writer.
const READER_HORIZON_S: f64 = 170.0;
/// Points per `batch_scan` batch.
const BATCH_POINTS: usize = 4096;
/// Range queries recorded for the ladder where a workload sends none.
const SAMPLED_RANGES: usize = 1000;
/// Requests per closed-loop pool, sent round-robin.
const POOL: usize = 4096;
/// Warm-up round-trips per connection before anything is timed.
const WARMUP: usize = 200;
/// Warm-up batches per connection.
const WARMUP_BATCHES: usize = 3;
/// Ingest bursts per `ingest_refresh` run. Fixed rather than scaled with
/// `--seconds`: every retrain runs on seed ∪ the whole log, so the count
/// sets the rebuild costs the run measures.
const BURSTS: usize = 60;
/// Share of `--seconds` the burst schedule spans; a burst also waits
/// until the previous one is served.
const BURST_SPAN: f64 = 0.7;
/// Longest wait for one burst to be served by every shard.
const REFRESH_TIMEOUT: Duration = Duration::from_secs(20);
/// How often the writer re-reads the shard generations while it waits.
const REFRESH_POLL: Duration = Duration::from_millis(1);
/// Oracle probes after `ingest_refresh`.
const PROBES: usize = 512;
/// Length of one measurement cycle of `lookup_mix` and `batch_scan`: a
/// slice of load, before some of which a row of set-ups is timed. A run
/// is a row of cycles, so every timed metric samples the whole run: each
/// is measured per cycle and reported over the cycles — open-loop
/// latencies as the mean of the fastest quarter (`stats::best_cycles`),
/// closed-loop latencies and rates as the interquartile mean
/// (`stats::cycle_mean`) — and `setup_s` as the fastest tenth of
/// set-ups (`stats::FAST_SHARE`).
const CYCLE_S: f64 = 1.25;
/// Share of a `lookup_mix` cycle spent in the open loop; the rest is
/// the closed loop.
const OPEN_SHARE: f64 = 0.7;
/// Share of a `batch_scan` cycle spent sending batches; the rest pays
/// for the timed set-ups.
const BATCH_SHARE: f64 = 0.9;
/// Rows of timed set-ups in a `lookup_mix` or `batch_scan` run.
const SETUP_ROWS: usize = 5;
/// Set-ups timed at the start of `ingest_refresh`.
const SETUPS: usize = 9;
/// Lead time before an open-loop phase's first due time.
const START_SLACK: Duration = Duration::from_millis(2);
/// An open-loop request sent this long after its due time marks the
/// generator as behind its schedule…
const LATE_LIMIT_NS: f64 = 5e6;
/// …and more than this share of such requests makes the run invalid.
const LATE_SHARE: f64 = 0.01;

/// The end-to-end numbers every workload reports.
#[derive(Debug, Clone, Copy)]
pub struct E2e {
    pub read_p50_us: f64,
    pub read_p95_us: f64,
    pub read_rate_per_s: f64,
    pub heavy_p50_ms: f64,
    pub heavy_p90_ms: f64,
    pub ence: f64,
    pub index_heap_bytes: f64,
}

/// The recorded requests the traced ladder replays.
pub struct LadderSample {
    pub points: Vec<Point>,
    pub rects: Vec<Rect>,
    pub batch: Vec<Point>,
    pub bursts: Vec<Vec<IngestBody>>,
}

/// Everything a measured run produced, apart from the deployment.
pub struct Report {
    pub setup_s: f64,
    pub e2e: E2e,
    /// Per-phase accounting, in phase order.
    pub phases: Vec<(&'static str, Tally)>,
    /// Open-loop send lateness, ns (zeros for closed-loop workloads).
    pub lateness_ns: Vec<f64>,
    /// Client spans of a traced run.
    pub spans: Vec<Span>,
    pub sample: LadderSample,
    /// The workload's metrics under their own names.
    pub named: Vec<Metric>,
    /// What makes the run incorrect or invalid, beyond single requests.
    pub problems: Vec<String>,
    pub notes: Vec<String>,
}

impl Report {
    pub fn total(&self) -> Tally {
        let mut total = Tally::default();
        for (_, phase) in &self.phases {
            total.absorb(phase);
        }
        total
    }

    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.total().mismatched == 0
    }

    /// The result of an untraced run.
    pub fn outcome(&self) -> Res<Outcome> {
        let total = self.total();
        let e = &self.e2e;
        let values = [
            ("setup_s", self.setup_s),
            ("read_p50_us", e.read_p50_us),
            ("read_p95_us", e.read_p95_us),
            ("read_rate_per_s", e.read_rate_per_s),
            ("heavy_p50_ms", e.heavy_p50_ms),
            ("heavy_p90_ms", e.heavy_p90_ms),
            ("ok_ratio", total.ok as f64 / total.sent.max(1) as f64),
            ("ence", e.ence),
            ("index_heap_bytes", e.index_heap_bytes),
            ("rss_peak_mb", rss_peak_mb()?),
        ];
        Outcome::new(
            self.correct(),
            total.sent,
            total.bad(),
            END_TO_END,
            &values,
            self.describe(),
        )
    }

    /// The readable half of the report: per-phase accounting, the error
    /// rate, the workload's own metrics, notes and problems.
    pub fn describe(&self) -> Vec<String> {
        let total = self.total();
        let mut lines = Vec::new();
        for (phase, t) in &self.phases {
            lines.push(format!(
                "phase {phase:<8} sent={:<7} ok={:<7} failed={} mismatched={}",
                t.sent, t.ok, t.failed, t.mismatched
            ));
            lines.extend(t.problems.iter().map(|p| format!("  {p}")));
        }
        lines.push(format!(
            "{:<22} = {:.6} ({} of {} requests)",
            "error_rate",
            total.bad() as f64 / total.sent.max(1) as f64,
            total.bad(),
            total.sent
        ));
        for m in &self.named {
            lines.push(format!("{:<22} = {:.3} {}", m.name, m.value, m.unit));
        }
        lines.push(format!(
            "{:<22} = {:.1} us",
            "lateness_p99",
            quantile(&self.lateness_ns, 0.99) / 1e3
        ));
        lines.extend(self.notes.iter().cloned());
        lines.extend(self.problems.iter().map(|p| format!("PROBLEM: {p}")));
        lines
    }
}

/// Deploys, drives and checks one workload. Returns the still-listening
/// deployment, which the traced ladder scrapes, and the report.
pub fn measure(args: &Args, traced: bool) -> Res<(Deployment, Report)> {
    match args.workload {
        Workload::LookupMix => lookup_mix(args, traced),
        Workload::BatchScan => batch_scan(args, traced),
        Workload::IngestRefresh => ingest_refresh(args, traced),
    }
}

fn lookup_mix(args: &Args, traced: bool) -> Res<(Deployment, Report)> {
    let plane = Plane::Replicated;
    let (deployment, first_setup) = Deployment::build(plane)?;
    let reference = &deployment.reference;
    let gen = Gen::new(&deployment.dataset);
    let cycles = cycles(args.seconds);
    let (open_s, closed_s) = (CYCLE_S * OPEN_SHARE, CYCLE_S * (1.0 - OPEN_SHARE));
    // plans[k][c]: the open-loop slice of cycle k on connection c.
    let plans: Vec<Vec<Vec<Planned>>> = (0..cycles)
        .map(|k| {
            (0..CONNS)
                .map(|c| {
                    let lane = lane::OPEN + (k * CONNS + c) as u64;
                    let rate = MIX_RATE / CONNS as f64;
                    open_plan(args.seed, lane, rate, open_s, |rng, due| {
                        gen.mix(rng, reference, due)
                    })
                })
                .collect()
        })
        .collect();
    let pools: Vec<Vec<Planned>> = (0..CONNS as u64)
        .map(|c| {
            let mut rng = Rng::stream(args.seed, lane::POOL + c);
            (0..POOL).map(|_| gen.mix(&mut rng, reference, 0)).collect()
        })
        .collect();

    let mut conns = connect(&deployment, traced)?;
    let warm = warm_up(&mut conns, &pools, WARMUP);
    let mut setups = vec![first_setup];
    let (mut open, mut closed) = (Tally::default(), Tally::default());
    let (mut open_slices, mut closed_slices) = (Vec::new(), Vec::new());
    for (k, plan) in plans.iter().enumerate() {
        setup_row(plane, k, cycles, &mut setups)?;
        let start = Instant::now() + START_SLACK;
        let (tally, samples) = load::merge(load::on_each(&mut conns, |c, conn| {
            load::open_loop(conn, &plan[c], start, None)
        }));
        open.absorb(&tally);
        open_slices.push(samples);
        let (tally, samples) = closed_phase(&mut conns, &pools, closed_s);
        closed.absorb(&tally);
        closed_slices.push(samples);
    }
    setup_row(plane, cycles, cycles, &mut setups)?;
    let index_heap_bytes = index_heap_bytes(&mut conns[0])?;
    let mut notes = unhealthy_replicas(&mut conns[0])?;
    let spans = spans_of(&mut conns);
    drop(conns);

    let lookups = |q| best_cycles(&slice_quantiles(&open_slices, Kind::Lookup, q));
    let ranges = |q| best_cycles(&slice_quantiles(&open_slices, Kind::Range, q));
    let all_open: Vec<Sample> = open_slices.concat();
    let lateness_ns = lateness_of(&all_open);
    check_lateness(&lateness_ns, &mut notes);
    let e2e = E2e {
        read_p50_us: lookups(0.5),
        read_p95_us: lookups(0.95),
        read_rate_per_s: cycle_mean(&slice_rates(&closed_slices, closed_s)),
        heavy_p50_ms: ranges(0.5) / 1e3,
        heavy_p90_ms: ranges(0.9) / 1e3,
        ence: deployment.ence,
        index_heap_bytes,
    };
    let named = vec![
        metric("lookup_p50_us", e2e.read_p50_us, "us"),
        metric("lookup_p99_us", lookups(0.99), "us"),
        metric(
            "range_p99_us",
            quantile(&latencies_us(&all_open, Kind::Range), 0.99),
            "us",
        ),
        metric("lookup_capacity_rps", e2e.read_rate_per_s, "1/s"),
    ];
    notes.push(format!(
        "{cycles} cycles of {open_s:.2} s of open loop and {closed_s:.2} s of closed loop; \
         {} set-ups in {SETUP_ROWS} rows",
        setups.len()
    ));
    let first_conn: Vec<Planned> = plans.iter().flat_map(|p| p[0].iter().cloned()).collect();
    let (points, rects) = split_plan(&first_conn);
    let sample = LadderSample {
        batch: points.iter().copied().take(BATCH_POINTS).collect(),
        points,
        rects,
        bursts: gen.bursts(args.seed, BURSTS),
    };
    let phases = vec![("warmup", warm), ("open", open), ("closed", closed)];
    let report = Report {
        setup_s: fastest_tenth(&setups),
        e2e,
        phases,
        lateness_ns,
        spans,
        sample,
        named,
        problems: Vec::new(),
        notes,
    };
    Ok((deployment, report))
}

fn batch_scan(args: &Args, traced: bool) -> Res<(Deployment, Report)> {
    let plane = Plane::Replicated;
    let (deployment, first_setup) = Deployment::build(plane)?;
    let gen = Gen::new(&deployment.dataset);
    let points = gen.points(args.seed, lane::BATCH, BATCH_POINTS);
    let expected: Arc<[Decision]> = points
        .iter()
        .map(|p| {
            deployment
                .reference
                .lookup(p)
                .expect("generated points lie inside the map")
        })
        .collect();
    let batch = Planned {
        due_ns: 0,
        kind: Kind::Batch,
        request: Request::LookupBatch {
            points: points.iter().map(|p| WirePoint::new(p.x, p.y)).collect(),
        },
        expect: Expect::Decisions(expected),
    };
    let pools = vec![vec![batch]; CONNS];

    let mut conns = connect(&deployment, traced)?;
    let warm = warm_up(&mut conns, &pools, WARMUP_BATCHES);
    let cycles = cycles(args.seconds);
    let secs = CYCLE_S * BATCH_SHARE;
    let mut setups = vec![first_setup];
    let mut closed = Tally::default();
    let mut slices = Vec::new();
    for k in 0..cycles {
        setup_row(plane, k, cycles, &mut setups)?;
        let (tally, samples) = closed_phase(&mut conns, &pools, secs);
        closed.absorb(&tally);
        slices.push(samples);
    }
    setup_row(plane, cycles, cycles, &mut setups)?;
    let index_heap_bytes = index_heap_bytes(&mut conns[0])?;
    let mut notes = unhealthy_replicas(&mut conns[0])?;
    let spans = spans_of(&mut conns);
    drop(conns);

    let batches = |q| cycle_mean(&slice_quantiles(&slices, Kind::Batch, q));
    let all: Vec<Sample> = slices.concat();
    let e2e = E2e {
        read_p50_us: batches(0.5),
        read_p95_us: batches(0.95),
        read_rate_per_s: cycle_mean(&slice_rates(&slices, secs)) * BATCH_POINTS as f64,
        heavy_p50_ms: batches(0.5) / 1e3,
        heavy_p90_ms: batches(0.9) / 1e3,
        ence: deployment.ence,
        index_heap_bytes,
    };
    let named = vec![
        metric("batch_points_per_s", e2e.read_rate_per_s, "1/s"),
        metric(
            "batch_p99_ms",
            quantile(&latencies_us(&all, Kind::Batch), 0.99) / 1e3,
            "ms",
        ),
    ];
    notes.push(format!(
        "{cycles} slices of {secs:.2} s of closed loop; {} set-ups in {SETUP_ROWS} rows",
        setups.len()
    ));
    let sample = LadderSample {
        rects: gen.rects(args.seed, lane::RECTS, SAMPLED_RANGES),
        batch: points.clone(),
        points,
        bursts: gen.bursts(args.seed, BURSTS),
    };
    let report = Report {
        setup_s: fastest_tenth(&setups),
        e2e,
        phases: vec![("warmup", warm), ("closed", closed)],
        lateness_ns: lateness_of(&all),
        spans,
        sample,
        named,
        problems: Vec::new(),
        notes,
    };
    Ok((deployment, report))
}

fn ingest_refresh(args: &Args, traced: bool) -> Res<(Deployment, Report)> {
    let (deployment, first_setup) = Deployment::build(Plane::Ingesting)?;
    let mut setups = vec![first_setup];
    time_setups(Plane::Ingesting, SETUPS - 1, &mut setups)?;
    let gen = Gen::new(&deployment.dataset);
    let bursts = gen.bursts(args.seed, BURSTS);
    let interval = Duration::from_secs_f64(args.seconds * BURST_SPAN / bursts.len() as f64);
    let reader_plan = open_plan(
        args.seed,
        lane::READER,
        READER_RATE,
        READER_HORIZON_S,
        |rng, due| gen::lookup(gen.point(rng), Expect::AnyDecision, due),
    );

    let mut conns = connect(&deployment, traced)?;
    // Nothing is ingested yet, so the warm-up is checked exactly.
    let warm = warm_up(
        &mut conns,
        &lookup_pools(&gen, &deployment.reference, args.seed),
        WARMUP,
    );
    let done = AtomicBool::new(false);
    let start = Instant::now() + START_SLACK;
    let (read, writes) = {
        let [reader, writer] = conns.as_mut_slice() else {
            unreachable!("two connections")
        };
        let (done, plan, bursts, topology) = (&done, &reader_plan, &bursts, &*deployment.topology);
        std::thread::scope(|s| {
            let read = s.spawn(move || load::open_loop(reader, plan, start, Some(done)));
            let writes = s.spawn(move || {
                let writes = write_bursts(writer, bursts, interval, topology, start);
                done.store(true, Ordering::Release);
                writes
            });
            let read = read.join().expect("reader thread panicked");
            (read, writes.join().expect("writer thread panicked"))
        })
    };

    let mut problems = Vec::new();
    // A manual rebuild folds whatever a burst split across two polls left
    // buffered and waits out any pass in flight: the oracle then reads a
    // settled fleet.
    match conns[1].call(&Request::Rebuild {
        spec: deployment.spec.clone(),
    }) {
        Ok(Response::Rebuilt { .. }) => {}
        other => problems.push(format!("the settling rebuild answered {other:?}")),
    }
    let acked_points = writes.acks.ok * gen::BURST_POINTS as u64;
    match conns[1].call(&Request::Metrics)? {
        Response::Metrics { metrics } => match &metrics.ingest {
            Some(i) if i.accepted == acked_points && i.rejected == 0 && i.buffered == 0 => {}
            other => problems.push(format!(
                "ingest telemetry disagrees with the {acked_points} points acknowledged: {other:?}"
            )),
        },
        other => return Err(format!("Metrics answered {other:?}").into()),
    }
    if writes.acks.bad() > 0 {
        problems.push("an unacknowledged burst leaves the ingest log unknown".into());
    }

    // The oracle: the fleet must serve exactly a from-scratch run on
    // seed ∪ log, with the log in send order.
    let records: Vec<IngestRecord> = bursts
        .iter()
        .flatten()
        .enumerate()
        .map(|(seq, body)| IngestRecord::from_wire(seq as u64, body))
        .collect();
    let merged = fsi_ingest::merge_dataset(&deployment.dataset, &deployment.spec.task, &records)?;
    let run = fsi::Pipeline::from_spec(&merged, deployment.spec.clone()).run()?;
    let reference = run.freeze()?;
    let ence = run.eval().test.ence;
    drop(run);
    let mut probe = Tally::default();
    let mut rng = Rng::stream(args.seed, lane::PROBES);
    for _ in 0..PROBES {
        let p = if rng.unit() < 0.5 {
            gen.point(&mut rng)
        } else {
            let b = bursts[rng.below(bursts.len())][rng.below(gen::BURST_POINTS)];
            Point::new(b.x, b.y)
        };
        let answer = conns[0].call(&Request::Lookup { x: p.x, y: p.y });
        probe.record(&answer, &Expect::lookup(&reference, &p));
    }
    let pools = lookup_pools(&gen, &reference, args.seed);
    let closed_s = args.seconds * 0.3;
    let (closed, closed_samples) = closed_phase(&mut conns, &pools, closed_s);
    let index_heap_bytes = index_heap_bytes(&mut conns[0])?;
    let spans = spans_of(&mut conns);
    drop(conns);

    let (read_tally, read_samples) = load::merge(vec![read]);
    let lookups = latencies_us(&read_samples, Kind::Lookup);
    let lateness_ns = lateness_of(&read_samples);
    let e2e = E2e {
        read_p50_us: quantile(&lookups, 0.5),
        read_p95_us: quantile(&lookups, 0.95),
        read_rate_per_s: slice_rates(&[closed_samples], closed_s)[0],
        heavy_p50_ms: quantile(&writes.refresh_ms, 0.5),
        heavy_p90_ms: quantile(&writes.refresh_ms, 0.9),
        ence,
        index_heap_bytes,
    };
    let named = vec![
        metric("lookup_p50_us", e2e.read_p50_us, "us"),
        metric("lookup_p99_us", quantile(&lookups, 0.99), "us"),
        metric("refresh_p50_ms", e2e.heavy_p50_ms, "ms"),
        metric("refresh_p90_ms", e2e.heavy_p90_ms, "ms"),
        metric("ingest_ack_p90_us", quantile(&writes.ack_us, 0.9), "us"),
        metric("lookup_capacity_rps", e2e.read_rate_per_s, "1/s"),
    ];
    let mut notes = vec![format!(
        "{} bursts of {} points in {:.2} s, one due every {:.1} ms; {} waited for the previous refresh",
        bursts.len(),
        gen::BURST_POINTS,
        writes.span_s,
        interval.as_secs_f64() * 1e3,
        writes.waited
    )];
    check_lateness(&lateness_ns, &mut notes);
    let sent = read_samples.len().min(reader_plan.len());
    let sample = LadderSample {
        points: split_plan(&reader_plan[..sent]).0,
        rects: gen.rects(args.seed, lane::RECTS, SAMPLED_RANGES),
        batch: gen.points(args.seed, lane::BATCH, BATCH_POINTS),
        bursts,
    };
    let phases = vec![
        ("warmup", warm),
        ("read", read_tally),
        ("ingest", writes.acks),
        ("refresh", writes.refresh),
        ("probe", probe),
        ("closed", closed),
    ];
    let report = Report {
        setup_s: fastest_tenth(&setups),
        e2e,
        phases,
        lateness_ns,
        spans,
        sample,
        named,
        problems,
        notes,
    };
    Ok((deployment, report))
}

/// What the writer of `ingest_refresh` measured.
#[derive(Default)]
struct Writes {
    /// The `IngestBatch` round-trips.
    acks: Tally,
    /// Acknowledged bursts, and whether each came to be served by every
    /// shard.
    refresh: Tally,
    ack_us: Vec<f64>,
    refresh_ms: Vec<f64>,
    /// Bursts sent over a millisecond late because the previous refresh
    /// ran past their due time.
    waited: usize,
    /// Wall time of the whole burst schedule.
    span_s: f64,
}

/// The write half of `ingest_refresh`: each burst at its due time, or
/// once the previous one is served if that is later, then a wait until
/// every shard serves a newer generation.
fn write_bursts(
    conn: &mut Conn,
    bursts: &[Vec<IngestBody>],
    interval: Duration,
    topology: &Topology,
    start: Instant,
) -> Writes {
    let mut w = Writes::default();
    for (b, burst) in bursts.iter().enumerate() {
        let due = start + interval * b as u32;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        } else if now - due > Duration::from_millis(1) {
            w.waited += 1;
        }
        let before = served_generation(topology);
        let sent = Instant::now();
        let answer = conn.call(&Request::IngestBatch {
            points: burst.clone(),
        });
        let acked = Instant::now();
        if !w
            .acks
            .record(&answer, &Expect::Ingested(burst.len() as u64))
        {
            continue;
        }
        w.ack_us.push((acked - sent).as_secs_f64() * 1e6);
        w.refresh.sent += 1;
        loop {
            if served_generation(topology) > before {
                w.refresh_ms.push(acked.elapsed().as_secs_f64() * 1e3);
                w.refresh.ok += 1;
                break;
            }
            if acked.elapsed() > REFRESH_TIMEOUT {
                w.refresh.failed += 1;
                w.refresh.note(format!(
                    "burst {b} was not served by every shard within {REFRESH_TIMEOUT:?}"
                ));
                break;
            }
            std::thread::sleep(REFRESH_POLL);
        }
    }
    w.span_s = start.elapsed().as_secs_f64();
    w
}

/// The generation every shard serves: the oldest among them.
fn served_generation(topology: &Topology) -> u64 {
    topology.generations().into_iter().min().unwrap_or(0)
}

/// Times `n` more set-ups of `plane` in a row.
fn time_setups(plane: Plane, n: usize, setups: &mut Vec<f64>) -> Res<()> {
    for _ in 0..n {
        setups.push(Deployment::time_setup(plane)?);
    }
    Ok(())
}

/// Before cycle `k` of `cycles` (and with `k == cycles` after the last),
/// times a row of `cycles / SETUP_ROWS` set-ups at evenly spaced points
/// of the load, its start and end included. Rows rather than one set-up
/// per cycle: set-ups between slices doubled the spread of batch latency
/// and of lookup capacity between runs. Several rows rather than one:
/// the machine's fast plateau, which `setup_s` reads, may miss a row but
/// seldom all of them.
fn setup_row(plane: Plane, k: usize, cycles: usize, setups: &mut Vec<f64>) -> Res<()> {
    if (0..SETUP_ROWS).any(|row| row * cycles / (SETUP_ROWS - 1) == k) {
        time_setups(plane, cycles / SETUP_ROWS, setups)?;
    }
    Ok(())
}

/// Measurement cycles in a run of `seconds`.
fn cycles(seconds: f64) -> usize {
    ((seconds / CYCLE_S).round() as usize).max(2)
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

fn connect(deployment: &Deployment, traced: bool) -> Res<Vec<Conn>> {
    (0..CONNS)
        .map(|_| Conn::open(deployment.server.addr(), traced))
        .collect()
}

/// `rounds` closed-loop requests per connection from its pool, so
/// connection set-up and lazy initialisation are paid before timing.
fn warm_up(conns: &mut [Conn], pools: &[Vec<Planned>], rounds: usize) -> Tally {
    let lanes = load::on_each(conns, |c, conn| {
        let mut lane = Lane::default();
        for planned in pools[c].iter().cycle().take(rounds) {
            let answer = conn.call(&planned.request);
            lane.tally.record(&answer, &planned.expect);
        }
        lane
    });
    load::merge(lanes).0
}

/// A closed loop on every connection for `secs`.
fn closed_phase(conns: &mut [Conn], pools: &[Vec<Planned>], secs: f64) -> (Tally, Vec<Sample>) {
    let start = Instant::now();
    let until = start + Duration::from_secs_f64(secs);
    load::merge(load::on_each(conns, |c, conn| {
        load::closed_loop(conn, &pools[c], start, until)
    }))
}

/// Right answers per second of each closed-loop slice of `secs`,
/// counted by send time.
fn slice_rates(slices: &[Vec<Sample>], secs: f64) -> Vec<f64> {
    slices
        .iter()
        .map(|slice| slice.iter().filter(|s| s.ok).count() as f64 / secs)
        .collect()
}

/// The `q`-quantile of each slice's latencies of `kind`, in µs.
fn slice_quantiles(slices: &[Vec<Sample>], kind: Kind, q: f64) -> Vec<f64> {
    slices
        .iter()
        .map(|slice| quantile(&latencies_us(slice, kind), q))
        .collect()
}

/// One closed-loop pool of lookups per connection, checked against
/// `reference`.
fn lookup_pools(gen: &Gen, reference: &FrozenIndex, seed: u64) -> Vec<Vec<Planned>> {
    (0..CONNS as u64)
        .map(|c| {
            let mut rng = Rng::stream(seed, lane::POOL + c);
            (0..POOL)
                .map(|_| {
                    let p = gen.point(&mut rng);
                    gen::lookup(p, Expect::lookup(reference, &p), 0)
                })
                .collect()
        })
        .collect()
}

/// Latencies of the right answers of one kind, in µs, in schedule order.
fn latencies_us(samples: &[Sample], kind: Kind) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| s.ok && s.kind == kind)
        .map(|s| s.latency_ns as f64 / 1e3)
        .collect()
}

fn lateness_of(samples: &[Sample]) -> Vec<f64> {
    samples.iter().map(|s| s.late_ns as f64).collect()
}

/// Flags the run invalid in the report when the open-loop generator
/// fell behind its schedule. The run stays correct — every answer was
/// still checked — but its latencies describe a stalled machine more
/// than the program.
fn check_lateness(lateness_ns: &[f64], notes: &mut Vec<String>) {
    let late = lateness_ns.iter().filter(|&&l| l > LATE_LIMIT_NS).count();
    if late as f64 > LATE_SHARE * lateness_ns.len() as f64 {
        notes.push(format!(
            "INVALID RUN: the generator fell behind its schedule \
             ({late} of {} requests sent over {} ms late)",
            lateness_ns.len(),
            LATE_LIMIT_NS / 1e6
        ));
    }
}

fn spans_of(conns: &mut [Conn]) -> Vec<Span> {
    conns
        .iter_mut()
        .flat_map(|c| std::mem::take(&mut c.spans))
        .collect()
}

/// Σ `per_shard.heap_bytes` from `Stats`.
fn index_heap_bytes(conn: &mut Conn) -> Res<f64> {
    match conn.call(&Request::Stats)? {
        Response::Stats { stats } => {
            let shards = stats
                .per_shard
                .as_ref()
                .ok_or("Stats carries no per-shard breakdown")?;
            Ok(shards.iter().map(|s| s.heap_bytes as f64).sum())
        }
        other => Err(format!("Stats answered {other:?}").into()),
    }
}

/// A note per replica whose breaker is not closed or that failed an
/// attempt, from the coordinator's `Health`.
fn unhealthy_replicas(conn: &mut Conn) -> Res<Vec<String>> {
    match conn.call(&Request::Health)? {
        Response::Health { health } => Ok(health
            .shards
            .iter()
            .flat_map(|s| {
                s.replicas
                    .iter()
                    .filter(|r| r.state != "closed" || r.failures > 0)
                    .map(move |r| {
                        format!(
                            "shard {} replica {}: breaker {} after {} failed attempts",
                            s.shard, r.replica, r.state, r.failures
                        )
                    })
            })
            .collect()),
        other => Err(format!("Health answered {other:?}").into()),
    }
}

/// The lookup points and range rectangles of a plan, for the ladder.
fn split_plan(plan: &[Planned]) -> (Vec<Point>, Vec<Rect>) {
    let (mut points, mut rects) = (Vec::new(), Vec::new());
    for planned in plan {
        match &planned.request {
            Request::Lookup { x, y } => points.push(Point::new(*x, *y)),
            Request::RangeQuery { rect } => rects.push(
                Rect::new(rect.min_x, rect.min_y, rect.max_x, rect.max_y)
                    .expect("generated rectangles are valid"),
            ),
            _ => {}
        }
    }
    (points, rects)
}
