//! The result line on stdout and the readable report on stderr.

use crate::Res;

/// One measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The end-to-end metrics of an untraced run, `(name, unit)` in
/// `BENCHMARK.json` order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("read_p50_us", "us"),
    ("read_p95_us", "us"),
    ("read_rate_per_s", "1/s"),
    ("heavy_p50_ms", "ms"),
    ("heavy_p90_ms", "ms"),
    ("ok_ratio", "ratio"),
    ("ence", "ratio"),
    ("index_heap_bytes", "B"),
    ("rss_peak_mb", "MB"),
];

/// The per-layer metrics of a traced run, `(name, unit)` in
/// `BENCHMARK.json` order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("frozen.lookup_ns", "ns"),
    ("frozen.batch_ns_per_pt", "ns"),
    ("frozen.range_us", "us"),
    ("service.lookup_ns", "ns"),
    ("service.batch_ns_per_pt", "ns"),
    ("service.range_us", "us"),
    ("topology.lookup_ns", "ns"),
    ("topology.batch_ns_per_pt", "ns"),
    ("topology.range_us", "us"),
    ("topology.range_fanout", "count"),
    ("resil.lookup_ns", "ns"),
    ("resil.attempts_per_request", "ratio"),
    ("resil.retries", "count"),
    ("proto.lookup_codec_ns", "ns"),
    ("proto.batch_codec_ns_per_pt", "ns"),
    ("proto.range_codec_us", "us"),
    ("proto.batch_req_bytes_per_pt", "B"),
    ("proto.batch_resp_bytes_per_pt", "B"),
    ("http.lookup_rtt_us", "us"),
    ("http.batch_rtt_ms", "ms"),
    ("http.read_p50_us", "us"),
    ("http.handle_p50_us", "us"),
    ("http.write_p50_us", "us"),
    ("http.self_us", "us"),
    ("client.encode_us", "us"),
    ("client.transport_us", "us"),
    ("client.decode_us", "us"),
    ("ingest.accept_ns_per_pt", "ns"),
    ("ingest.batch_dispatch_us", "us"),
    ("ingest.drift_measure_us", "us"),
    ("ingest.merge_ms", "ms"),
    ("ingest.accepted", "count"),
    ("ingest.rejected", "count"),
    ("pipeline.run_spec_seed_ms", "ms"),
    ("pipeline.run_spec_merged_ms", "ms"),
    ("pipeline.partition_ms", "ms"),
    ("pipeline.fit_eval_ms", "ms"),
    ("serve.compile_us", "us"),
    ("serve.clip_us", "us"),
    ("serve.maintenance_p50_ms", "ms"),
    ("serve.barrier_ms", "ms"),
    ("gen.lateness_p99_us", "us"),
    ("gen.sent", "count"),
    ("gen.completed", "count"),
    ("trace.overhead_p50_us", "us"),
    ("trace.overhead_p95_us", "us"),
    ("trace.overhead_rate_pct", "%"),
];

/// What one run prints.
#[derive(Debug)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Readable lines printed to stderr before the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Lays `values` out in `schema` order. Every schema metric must be
    /// measured exactly once and be finite, and nothing else may be.
    pub fn new(
        correct: bool,
        attempted: u64,
        failed: u64,
        schema: &[(&'static str, &'static str)],
        values: &[(&'static str, f64)],
        notes: Vec<String>,
    ) -> Res<Self> {
        if let Some((name, _)) = values
            .iter()
            .find(|(n, _)| !schema.iter().any(|(s, _)| s == n))
        {
            return Err(format!("metric {name} is not in the schema").into());
        }
        let mut metrics = Vec::with_capacity(schema.len());
        for &(name, unit) in schema {
            let found: Vec<f64> = values
                .iter()
                .filter(|(n, _)| *n == name)
                .map(|&(_, v)| v)
                .collect();
            match found[..] {
                [value] if value.is_finite() => metrics.push(Metric { name, value, unit }),
                [value] => return Err(format!("metric {name} measured {value}").into()),
                [] => return Err(format!("metric {name} was not measured").into()),
                _ => return Err(format!("metric {name} was measured {} times", found.len()).into()),
            }
        }
        Ok(Self {
            correct,
            attempted,
            failed,
            metrics,
            notes,
        })
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The readable report, on stderr.
    pub fn print_report(&self) {
        for line in &self.notes {
            eprintln!("  {line}");
        }
        for m in &self.metrics {
            eprintln!("  {:<30} {:>16.4} {}", m.name, m.value, m.unit);
        }
        eprintln!(
            "  correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn rss_peak_mb() -> Res<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let schema = &[("a_s", "s"), ("b", "count")];
        let outcome =
            Outcome::new(true, 10, 1, schema, &[("b", 2.0), ("a_s", 0.25)], vec![]).unwrap();
        assert_eq!(
            outcome.to_json(),
            r#"{"correct": true, "attempted": 10, "failed": 1, "metrics": {"a_s": {"value": 0.25, "unit": "s"}, "b": {"value": 2, "unit": "count"}}}"#
        );
    }

    #[test]
    fn missing_repeated_unknown_or_non_finite_metrics_are_refused() {
        let schema = &[("a", "s")];
        for values in [
            &[][..],
            &[("a", 1.0), ("a", 2.0)],
            &[("a", 1.0), ("b", 2.0)],
            &[("a", f64::NAN)],
        ] {
            assert!(
                Outcome::new(true, 1, 0, schema, values, vec![]).is_err(),
                "{values:?}"
            );
        }
    }

    #[test]
    fn the_peak_resident_set_is_read() {
        assert!(rss_peak_mb().unwrap() > 0.0);
    }

    /// `BENCHMARK.json` must list exactly the metrics this program
    /// prints, with the same units, and only workloads it runs.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let json = include_str!("../../BENCHMARK.json");
        for (section, schema) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = json
                .find(&format!("\"{section}\""))
                .expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            assert_eq!(body.matches("\"name\"").count(), schema.len(), "{section}");
            for (name, unit) in schema {
                let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(body.contains(&entry), "{section} lacks {name} [{unit}]");
            }
        }
        // Every listed workload is one this program runs; the two steady
        // ones must be listed.
        let start = json.find("\"workloads\"").expect("workloads present");
        let listed = &json[start..start + json[start..].find(']').expect("workloads close")];
        let runnable =
            crate::Workload::ALL.map(|w| format!("{{\"name\": \"{}\", \"why\"", w.name()));
        assert_eq!(
            listed.matches("\"name\"").count(),
            runnable
                .iter()
                .filter(|entry| listed.contains(entry.as_str()))
                .count()
        );
        for name in ["lookup_mix", "batch_scan"] {
            assert!(
                listed.contains(&format!("{{\"name\": \"{name}\", \"why\"")),
                "{name}"
            );
        }
    }
}
