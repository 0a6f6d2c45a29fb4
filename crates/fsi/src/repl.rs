//! The text transport: a line-oriented REPL over the same
//! [`QueryService`] (and thus the same typed protocol) the HTTP
//! listener speaks — parsing never panics, and malformed input answers
//! an `error: …` line while the loop keeps serving.
//!
//! One query per line:
//!
//! * `X Y` — a point lookup ([`Request::Lookup`]); answers
//!   `leaf=<id> group=<g> raw=<r> calibrated=<c>` with full-precision
//!   floats, so the text output round-trips the served decision
//!   bit-identically;
//! * `batch X1 Y1 X2 Y2 …` — a batched lookup ([`Request::LookupBatch`]);
//! * `rect X0 Y0 X1 Y1` — a map-space range query
//!   ([`Request::RangeQuery`]); answers `neighborhoods: [..]`;
//! * `stats` — service statistics ([`Request::Stats`]), including one
//!   `shard#<i>` segment per backend on topology-backed services
//!   (printed uniformly as `kind@addr`, with `-` for in-process
//!   backends that have no address);
//! * `metrics` — the telemetry snapshot ([`Request::Metrics`]):
//!   per-kind request counts with latency quantiles, error totals and
//!   per-shard transport health;
//! * `health` — the fleet health picture ([`Request::Health`]): one
//!   segment per shard with its state (`up`/`degraded`/`down`) and,
//!   for replicated slots, each replica's circuit-breaker state;
//! * `ingest X Y G [L]` — append one observed point to the delta
//!   buffer ([`Request::Ingest`]): coordinates, cohort group `G`, and
//!   an optional observed outcome `L` (`0`/`1`/`true`/`false`,
//!   default `0`); answers `ingested: accepted=.. buffered=..
//!   generation=..`;
//! * `rebuild <spec JSON>` — retrain and hot-swap
//!   ([`Request::Rebuild`]), e.g. the JSON produced by serializing a
//!   [`fsi_pipeline::PipelineSpec`];
//! * `prepare <spec JSON>` / `commit` / `abort` — the two-phase rebuild
//!   barrier ([`Request::RebuildPrepare`] / [`Request::RebuildCommit`] /
//!   [`Request::RebuildAbort`]) a coordinator drives against remote
//!   shard servers.
//!
//! Anything else — wrong arity, unparsable numbers, degenerate
//! rectangles, invalid UTF-8 — produces an `error: …` response line and
//! the loop keeps serving. The `redistricting_cli serve` subcommand is a
//! thin wrapper around [`serve_queries`] over stdin/stdout; tests drive
//! the same function through an OS pipe, and the differential transport
//! test proves this path answers bit-identically to HTTP and direct
//! index calls.

use fsi_proto::{Request, Response, WirePoint, WireRect};
use fsi_serve::QueryService;
use std::io::{BufRead, Write};

/// Parses one text line into a typed [`Request`].
///
/// Returns `None` for blank lines (no response is owed), `Some(Ok)` for
/// a valid, fully validated request, and `Some(Err)` with a
/// human-readable message otherwise.
pub fn parse_line(line: &str) -> Option<Result<Request, String>> {
    let fields: Vec<&str> = line.split_whitespace().collect();
    let request = match fields.as_slice() {
        [] => return None,
        ["stats"] => Ok(Request::Stats),
        ["metrics"] => Ok(Request::Metrics),
        ["health"] => Ok(Request::Health),
        ["rect", x0, y0, x1, y1] => match (x0.parse(), y0.parse(), x1.parse(), y1.parse()) {
            (Ok(x0), Ok(y0), Ok(x1), Ok(y1)) => Ok(Request::RangeQuery {
                rect: WireRect::new(x0, y0, x1, y1),
            }),
            _ => Err("bad rect: expected `rect X0 Y0 X1 Y1` with numeric bounds".into()),
        },
        ["rect", ..] => Err("bad rect: expected `rect X0 Y0 X1 Y1` with numeric bounds".into()),
        ["batch", coords @ ..] => parse_batch(coords),
        ["ingest", rest @ ..] => parse_ingest(rest),
        ["rebuild", ..] => {
            let json = line.trim_start().trim_start_matches("rebuild").trim();
            match serde_json::from_str(json) {
                Ok(spec) => Ok(Request::Rebuild { spec }),
                Err(e) => Err(format!("bad rebuild spec: {e}")),
            }
        }
        ["commit"] => Ok(Request::RebuildCommit),
        ["abort"] => Ok(Request::RebuildAbort),
        ["prepare", ..] => {
            let json = line.trim_start().trim_start_matches("prepare").trim();
            match serde_json::from_str(json) {
                Ok(spec) => Ok(Request::RebuildPrepare { spec, delta: None }),
                Err(e) => Err(format!("bad prepare spec: {e}")),
            }
        }
        [x, y] => match (x.parse(), y.parse()) {
            (Ok(x), Ok(y)) => Ok(Request::Lookup { x, y }),
            _ => Err("bad point: expected `X Y` with numeric coordinates".into()),
        },
        _ => Err(format!("unrecognized query: `{line}`")),
    };
    // The same validation every transport runs at decode time.
    Some(request.and_then(|r| r.validate().map(|()| r).map_err(|e| e.to_string())))
}

fn parse_ingest(fields: &[&str]) -> Result<Request, String> {
    const USAGE: &str =
        "bad ingest: expected `ingest X Y G [L]` with numeric X Y G and L one of 0/1/true/false";
    let (coords, label) = match fields {
        [x, y, g] => ((x, y, g), false),
        [x, y, g, l] => {
            let label = match *l {
                "0" | "false" => false,
                "1" | "true" => true,
                _ => return Err(USAGE.into()),
            };
            ((x, y, g), label)
        }
        _ => return Err(USAGE.into()),
    };
    match (coords.0.parse(), coords.1.parse(), coords.2.parse()) {
        (Ok(x), Ok(y), Ok(group)) => Ok(Request::Ingest { x, y, group, label }),
        _ => Err(USAGE.into()),
    }
}

fn parse_batch(coords: &[&str]) -> Result<Request, String> {
    if coords.is_empty() || !coords.len().is_multiple_of(2) {
        return Err(format!(
            "bad batch: expected an even number of coordinates, got {}",
            coords.len()
        ));
    }
    let mut points = Vec::with_capacity(coords.len() / 2);
    for pair in coords.chunks_exact(2) {
        match (pair[0].parse(), pair[1].parse()) {
            (Ok(x), Ok(y)) => points.push(WirePoint::new(x, y)),
            _ => return Err(format!("bad batch point `{} {}`", pair[0], pair[1])),
        }
    }
    Ok(Request::LookupBatch { points })
}

/// Renders one decision with full-precision floats (so the text form is
/// bit-faithful to the served decision).
fn format_decision(d: &fsi_proto::DecisionBody) -> String {
    format!(
        "leaf={} group={} raw={} calibrated={}",
        d.leaf_id, d.group, d.raw_score, d.calibrated_score
    )
}

/// Renders a typed [`Response`] as one text line.
pub fn format_response(response: &Response) -> String {
    match response {
        Response::Decision { decision } => format_decision(decision),
        Response::Decisions { decisions } => {
            let items: Vec<String> = decisions.iter().map(format_decision).collect();
            format!("decisions: [{}]", items.join(", "))
        }
        Response::Regions { ids } => format!("neighborhoods: {ids:?}"),
        Response::Stats { stats } => {
            let mut line = format!(
                "stats: shards={} generations={:?} leaves={} heap_bytes={} backend={}",
                stats.shards, stats.generations, stats.num_leaves, stats.heap_bytes, stats.backend
            );
            if let Some(per_shard) = &stats.per_shard {
                for (i, shard) in per_shard.iter().enumerate() {
                    line.push_str(&format!(
                        " shard#{i}: {}@{} generation={} leaves={} heap_bytes={}",
                        shard.kind,
                        shard.addr.as_deref().unwrap_or("-"),
                        shard.generation,
                        shard.num_leaves,
                        shard.heap_bytes
                    ));
                }
            }
            line
        }
        Response::Metrics { metrics } => {
            let mut line = format!(
                "metrics: requests={} generation={} slow_queries={}",
                metrics.total_requests(),
                metrics.generation,
                metrics.slow_queries
            );
            for kind in metrics.requests.iter().filter(|r| r.count > 0) {
                line.push_str(&format!(
                    " {}: count={} p50_us={:.1} p99_us={:.1}",
                    kind.kind,
                    kind.count,
                    kind.latency.p50() as f64 / 1e3,
                    kind.latency.p99() as f64 / 1e3,
                ));
            }
            for error in &metrics.errors {
                line.push_str(&format!(" error[{}]={}", error.code, error.count));
            }
            if let Some(ingest) = &metrics.ingest {
                line.push_str(&format!(
                    " ingest: accepted={} rejected={} buffered={} drift={:.4}",
                    ingest.accepted, ingest.rejected, ingest.buffered, ingest.drift_score
                ));
            }
            for shard in &metrics.shards {
                if shard.requests > 0 || shard.failures > 0 {
                    line.push_str(&format!(
                        " shard#{}: {}@{} requests={} failures={} reconnects={}",
                        shard.shard,
                        shard.kind,
                        shard.addr.as_deref().unwrap_or("-"),
                        shard.requests,
                        shard.failures,
                        shard.reconnects
                    ));
                }
            }
            line
        }
        Response::Health { health } => {
            let overall = if health.all_up() { "up" } else { "degraded" };
            let mut line = format!("health: {overall}");
            for shard in &health.shards {
                line.push_str(&format!(
                    " shard#{}: {}@{} state={}",
                    shard.shard,
                    shard.kind,
                    shard.addr.as_deref().unwrap_or("-"),
                    shard.state
                ));
                for r in &shard.replicas {
                    line.push_str(&format!(
                        " replica#{}.{}: {}@{} breaker={} failures={}",
                        shard.shard,
                        r.replica,
                        r.kind,
                        r.addr.as_deref().unwrap_or("-"),
                        r.state,
                        r.consecutive_failures
                    ));
                }
            }
            line
        }
        Response::Rebuilt { report } => format!(
            "rebuilt: generation={} leaves={} ence={} total_ms={:.1}",
            report.generation,
            report.num_leaves,
            report.ence,
            report.total_time.as_secs_f64() * 1e3
        ),
        Response::Prepared { prepared } => format!(
            "prepared: leaves={} heap_bytes={} ence={} build_ms={:.1}",
            prepared.num_leaves,
            prepared.heap_bytes,
            prepared.ence,
            prepared.build_time.as_secs_f64() * 1e3
        ),
        Response::Ingested {
            accepted,
            buffered,
            generation,
        } => format!("ingested: accepted={accepted} buffered={buffered} generation={generation}"),
        Response::Committed { generation } => format!("committed: generation={generation}"),
        Response::Aborted => "aborted".into(),
        Response::Error { error } => format!("error: {}: {}", error.code, error.message),
    }
}

/// Answers one query line against the service. Returns `None` for blank
/// lines, `Some(response)` otherwise — malformed queries answer with a
/// line starting `error:` instead of failing.
pub fn answer_line(service: &mut QueryService, line: &str) -> Option<String> {
    Some(match parse_line(line)? {
        Ok(request) => format_response(&service.dispatch(&request)),
        Err(message) => format!("error: {message}"),
    })
}

/// What a [`serve_queries`] session did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Queries answered successfully.
    pub answered: usize,
    /// Lines answered with an `error:` response (malformed queries,
    /// out-of-bounds points, undecodable input).
    pub errors: usize,
}

/// Serves queries from `input` to `output` until EOF.
///
/// Malformed query lines — including lines that are not valid UTF-8 —
/// get an `error: …` response and the loop continues; only a genuine
/// I/O failure of the streams ends the session early.
pub fn serve_queries<R: BufRead, W: Write>(
    service: &mut QueryService,
    input: R,
    output: &mut W,
) -> std::io::Result<ServeStats> {
    let mut stats = ServeStats::default();
    for line in input.lines() {
        let response = match line {
            Ok(line) => match answer_line(service, &line) {
                Some(r) => r,
                None => continue,
            },
            // Invalid UTF-8 surfaces as InvalidData with the offending
            // bytes already consumed — answer and keep serving.
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                "error: input line is not valid UTF-8".into()
            }
            Err(e) => return Err(e),
        };
        if response.starts_with("error:") {
            stats.errors += 1;
        } else {
            stats.answered += 1;
        }
        writeln!(output, "{response}")?;
    }
    output.flush()?;
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fsi_geo::{Grid, Partition};
    use fsi_pipeline::ModelSnapshot;
    use fsi_serve::FrozenIndex;

    fn service() -> QueryService {
        let grid = Grid::unit(4).unwrap();
        let partition = Partition::uniform(&grid, 2, 2).unwrap();
        let snapshot = ModelSnapshot::uniform(4, 0.25).unwrap();
        QueryService::from(FrozenIndex::from_partition(&partition, &grid, &snapshot).unwrap())
    }

    #[test]
    fn well_formed_queries_answer() {
        let mut svc = service();
        let a = answer_line(&mut svc, "0.1 0.1").unwrap();
        assert!(a.starts_with("leaf="), "{a}");
        let a = answer_line(&mut svc, "rect 0.0 0.0 1.0 1.0").unwrap();
        assert!(a.starts_with("neighborhoods:"), "{a}");
        let a = answer_line(&mut svc, "batch 0.1 0.1 0.9 0.9").unwrap();
        assert!(a.starts_with("decisions:"), "{a}");
        let a = answer_line(&mut svc, "stats").unwrap();
        assert!(a.contains("shards=1"), "{a}");
        assert_eq!(answer_line(&mut svc, "   "), None);
    }

    #[test]
    fn malformed_queries_answer_with_error_lines() {
        let mut svc = service();
        for bad in [
            "nonsense",
            "1.0",
            "a b",
            "rect a b c d",
            "rect 1 2 3",
            "0.5 0.5 0.5",
            "rect 0.9 0.9 0.1 0.1",
            "9.0 9.0",
            "batch 0.1",
            "batch 0.1 oops",
            "rebuild not-json",
            "prepare not-json",
            "commit now",
            "ingest 0.5",
            "ingest 0.5 0.5 zero",
            "ingest 0.5 0.5 0 maybe",
            "ingest 9.0 9.0 0", // out of bounds at validation
        ] {
            let a = answer_line(&mut svc, bad).unwrap_or_else(|| panic!("{bad} must answer"));
            assert!(a.starts_with("error:"), "{bad} -> {a}");
        }
    }

    #[test]
    fn decisions_are_formatted_with_full_precision() {
        let mut svc = service();
        let a = answer_line(&mut svc, "0.1 0.1").unwrap();
        // raw 0.25, offset 0 → both scores print exactly.
        assert!(a.contains("raw=0.25"), "{a}");
        assert!(a.contains("calibrated=0.25"), "{a}");
    }

    #[test]
    fn serve_loop_survives_invalid_utf8_and_keeps_serving() {
        let mut svc = service();
        let mut input: Vec<u8> = Vec::new();
        input.extend_from_slice(b"0.1 0.1\n");
        input.extend_from_slice(&[0xFF, 0xFE, b'\n']); // not UTF-8
        input.extend_from_slice(b"bogus query\n");
        input.extend_from_slice(b"0.9 0.9\n");
        let mut out = Vec::new();
        let stats = serve_queries(&mut svc, &input[..], &mut out).unwrap();
        assert_eq!(stats.answered, 2);
        assert_eq!(stats.errors, 2);
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("leaf="));
        assert!(lines[1].starts_with("error:"));
        assert!(lines[2].starts_with("error:"));
        assert!(lines[3].starts_with("leaf="));
    }

    #[test]
    fn stats_line_reports_one_kind_at_addr_segment_per_shard() {
        let mut svc = service();
        let a = answer_line(&mut svc, "stats").unwrap();
        assert!(a.contains("shard#0: local@- generation=1"), "{a}");
    }

    #[test]
    fn metrics_command_reports_the_telemetry_snapshot() {
        let mut svc = service().with_lookup_sampling(1);
        answer_line(&mut svc, "0.1 0.1").unwrap();
        answer_line(&mut svc, "0.9 0.9").unwrap();
        answer_line(&mut svc, "9.0 9.0").unwrap(); // out of bounds
        let a = answer_line(&mut svc, "metrics").unwrap();
        assert!(a.starts_with("metrics: requests=3 generation=1"), "{a}");
        assert!(a.contains("lookup: count=3 p50_us="), "{a}");
        assert!(a.contains("error[out_of_bounds]=1"), "{a}");
    }

    #[test]
    fn health_command_reports_per_shard_state() {
        let mut svc = service();
        let a = answer_line(&mut svc, "health").unwrap();
        assert!(a.starts_with("health: up"), "{a}");
        assert!(a.contains("shard#0: local@- state=up"), "{a}");
    }

    #[test]
    fn two_phase_commands_parse_and_answer() {
        let mut svc = service();
        // Commit before any prepare: a structured error, not a panic.
        let a = answer_line(&mut svc, "commit").unwrap();
        assert!(a.starts_with("error: not_prepared"), "{a}");
        // Abort is idempotent: with nothing staged it still succeeds.
        assert_eq!(answer_line(&mut svc, "abort").unwrap(), "aborted");
        // Prepare without a rebuild dataset reports unavailability.
        let spec = fsi_pipeline::PipelineSpec::new(
            fsi_pipeline::TaskSpec::act(),
            fsi_pipeline::Method::MedianKd,
            2,
        );
        let line = format!("prepare {}", serde_json::to_string(&spec).unwrap());
        let a = answer_line(&mut svc, &line).unwrap();
        assert!(a.starts_with("error: rebuild_unavailable"), "{a}");
    }

    #[test]
    fn ingest_command_parses_and_answers() {
        // Parsing: label optional, both spellings accepted.
        for line in ["ingest 0.5 0.5 1", "ingest 0.5 0.5 1 true"] {
            let parsed = parse_line(line).unwrap().unwrap();
            assert!(matches!(parsed, Request::Ingest { group: 1, .. }), "{line}");
        }
        let Ok(Request::Ingest { label, .. }) = parse_line("ingest 0.5 0.5 1 1").unwrap() else {
            panic!("expected ingest");
        };
        assert!(label);
        // A service without ingestion answers a structured error line.
        let mut svc = service();
        let a = answer_line(&mut svc, "ingest 0.5 0.5 1").unwrap();
        assert!(a.starts_with("error: rebuild_unavailable"), "{a}");
    }

    #[test]
    fn rebuild_without_dataset_reports_structured_unavailability() {
        let mut svc = service();
        let spec = fsi_pipeline::PipelineSpec::new(
            fsi_pipeline::TaskSpec::act(),
            fsi_pipeline::Method::MedianKd,
            2,
        );
        let line = format!("rebuild {}", serde_json::to_string(&spec).unwrap());
        let a = answer_line(&mut svc, &line).unwrap();
        assert!(a.starts_with("error: rebuild_unavailable"), "{a}");
    }
}
