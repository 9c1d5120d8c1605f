//! Metric names, units, and the result line.

use std::collections::BTreeMap;

/// End-to-end metrics: every untraced run reports each of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_per_s", "1/s"),
    ("latency_p50_us", "us"),
    ("correct_frac", "fraction"),
    ("error_mean_pct", "%"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics: every traced run reports each of them; a layer the
/// workload's traffic never reaches reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("lane.mats_per_s", "1/s"),
    ("lane.gflops", "GFLOP/s"),
    ("lane.bytes_per_mat", "bytes"),
    ("former.pack_ns_per_req", "ns"),
    ("former.occupancy", "fraction"),
    ("former.batches", "count"),
    ("former.form1024_us", "us"),
    ("former.form1031_us", "us"),
    ("service.submit_reply_us_p50", "us"),
    ("service.submit_reply_us_p99", "us"),
    ("service.wait_us", "us"),
    ("service.rejected", "count"),
    ("wire.tcp_overhead_us_p50", "us"),
    ("wire.encode_ns_per_req", "ns"),
    ("wire.decode_ns_per_reply", "ns"),
    ("wire.bytes_per_req", "bytes"),
    ("router.hop_us_p50", "us"),
    ("router.max_shard_share", "fraction"),
    ("router.resubmits", "count"),
    ("router.backpressured", "count"),
    ("fleet.spawn_s", "s"),
    ("fleet.respawns", "count"),
    ("tiled.pack_ms", "ms"),
    ("tiled.exec_seq_ms", "ms"),
    ("tiled.exec_par_ms", "ms"),
    ("tiled.par_speedup", "ratio"),
    ("tiled.tasks", "count"),
    ("tiled.serve_wait_ms", "ms"),
    ("plan.builds", "count"),
    ("plan.hit_frac", "fraction"),
    ("plan.ms", "ms"),
    ("price.ms", "ms"),
    ("select.configs_evaluated", "count"),
    ("select.rank_ms", "ms"),
    ("select.regret_max_pct", "%"),
    ("autotune.tune_s", "s"),
    ("latency.p99_us", "us"),
    ("gen.lag_p99_us", "us"),
    ("attrib.unattributed_frac", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// One run's outcome.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Problems found by checks that are not per-request (a table
    /// missing a size, a respawned shard, a wrong kernel result).
    pub violations: Vec<String>,
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn violation(&mut self, what: impl Into<String>) {
        self.violations.push(what.into());
    }

    pub fn count(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty() && self.attempted > 0
    }

    /// Renders the result line with exactly the metrics of `set`;
    /// a per-layer set defaults unreached layers to 0.
    pub fn result_line(&self, set: &[(&str, &str)], default_zero: bool) -> Result<String, String> {
        let mut metrics = Vec::with_capacity(set.len());
        for &(name, unit) in set {
            let value = match self.values.get(name) {
                Some(&v) => v,
                None if default_zero => 0.0,
                None => return Err(format!("metric {name} was not measured")),
            };
            if !value.is_finite() {
                return Err(format!("metric {name} is not finite ({value})"));
            }
            metrics.push(format!(
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed.min(self.attempted.max(1)),
            metrics.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn declared(section: &str) -> Vec<(String, String)> {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json beside the benchmark directory");
        let v = serde_json::parse(&text).expect("valid JSON");
        match v.get(section) {
            Some(serde_json::Value::Array(items)) => items
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(|x| x.as_str()).unwrap().to_string(),
                        m.get("unit").and_then(|x| x.as_str()).unwrap().to_string(),
                    )
                })
                .collect(),
            _ => panic!("no {section} array"),
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let pairs = |set: &[(&str, &str)]| -> Vec<(String, String)> {
            set.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), pairs(END_TO_END));
        assert_eq!(declared("per_layer"), pairs(PER_LAYER));
    }

    #[test]
    fn result_line_has_every_metric_and_fails_on_gaps() {
        let mut r = Report::default();
        r.count(10, 0);
        for (name, _) in END_TO_END {
            r.set(name, 1.5);
        }
        let line = r.result_line(END_TO_END, false).unwrap();
        let v = serde_json::parse(&line).unwrap();
        assert_eq!(v.get("correct").and_then(|c| c.as_bool()), Some(true));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        let empty = Report::default();
        assert!(empty.result_line(END_TO_END, false).is_err());
        assert!(empty.result_line(PER_LAYER, true).is_ok());
    }
}
