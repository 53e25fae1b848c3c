//! The metric vocabulary (names and units as listed in `BENCHMARK.json`)
//! and the result line.

use stc::pipeline::Json;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("req_per_s", "1/s"),
    ("req_ms_geomean", "ms"),
    ("peak_rss_mb", "MiB"),
    ("register_bits", "count"),
    ("success_ratio", "ratio"),
];

/// Per-layer metrics, printed by every traced run.  A layer a workload
/// never calls reads 0.
pub const PER_LAYER: [(&str, &str); 36] = [
    ("solve.busy_s", "s"),
    ("solve.share", "ratio"),
    ("solve.basis_s", "s"),
    ("solve.search_s", "s"),
    ("solve.nodes", "count"),
    ("solve.nodes_per_s", "1/s"),
    ("solve.parallel_speedup", "ratio"),
    ("encode.busy_s", "s"),
    ("logic.busy_s", "s"),
    ("logic.share", "ratio"),
    ("logic.gates", "count"),
    ("logic.literals", "count"),
    ("bist.busy_s", "s"),
    ("bist.share", "ratio"),
    ("bist.fault_patterns", "count"),
    ("bist.fault_patterns_per_s", "1/s"),
    ("coverage.busy_s", "s"),
    ("coverage.faults", "count"),
    ("coverage.fault_coverage", "ratio"),
    ("optimize.busy_s", "s"),
    ("optimize.share", "ratio"),
    ("optimize.candidates", "count"),
    ("optimize.test_length", "count"),
    ("emit.busy_s", "s"),
    ("emit.bytes", "bytes"),
    ("report.render_s", "s"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.req_p50_ms", "ms"),
    ("serve.req_p99_ms", "ms"),
    ("serve.req_p99_beyond", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.evictions", "count"),
    ("kiss2.parse_s", "s"),
    ("trace.span_cover", "ratio"),
    ("trace.overhead", "ratio"),
];

/// The measured values of one run, by metric name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records a metric; the name must be in one of the two tables.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(&PER_LAYER)
                .any(|(known, _)| *known == name),
            "unknown metric {name}"
        );
        self.0.insert(name, value);
    }

    /// The `metrics` object of the result line: every end-to-end metric
    /// (untraced run) or every per-layer metric (traced run).
    pub fn to_json(&self, traced: bool) -> Json {
        let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
        Json::Object(
            table
                .iter()
                .map(|(name, unit)| {
                    let value = match self.0.get(name) {
                        Some(value) => *value,
                        None if traced => 0.0,
                        None => panic!("end-to-end metric {name} was not measured"),
                    };
                    let metric = Json::Object(vec![
                        ("value".into(), Json::Number(value)),
                        ("unit".into(), Json::String((*unit).into())),
                    ]);
                    ((*name).to_string(), metric)
                })
                .collect(),
        )
    }
}

/// What a run measured, for the result line and the run record.
pub struct Outcome {
    pub attempted: usize,
    pub failed: usize,
    pub metrics: Metrics,
    /// Extra facts for the run record (sample counts, per-machine medians).
    pub details: Vec<(String, Json)>,
}

impl Outcome {
    /// Adds a wall-clock figure to the run record's `wall` object, next to
    /// the metric of the same name that is scaled to the reference speed.
    pub fn wall(&mut self, name: &str, value: f64) {
        let entry = (name.to_string(), Json::Number(value));
        match self.details.iter_mut().find(|(key, _)| key == "wall") {
            Some((_, Json::Object(fields))) => fields.push(entry),
            _ => self.details.push(("wall".into(), Json::Object(vec![entry]))),
        }
    }

    /// The benchmark's last output line.
    pub fn result_line(&self, traced: bool) -> String {
        Json::Object(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::from_usize(self.attempted)),
            ("failed".into(), Json::from_usize(self.failed)),
            ("metrics".into(), self.metrics.to_json(traced)),
        ])
        .to_compact()
    }
}

/// Quality-of-result counts summed over a workload's distinct machines,
/// read from their reports — exact, whatever the timing.
#[derive(Default)]
pub struct Qor {
    pub register_bits: u64,
    nodes: u64,
    gates: u64,
    literals: u64,
    fault_patterns: u64,
    coverage_faults: u64,
    coverage_undetected: u64,
    candidates: u64,
    test_length: u64,
    emitted_bytes: u64,
}

impl Qor {
    /// Adds one machine report (the JSON of `MachineReport`).
    pub fn add(&mut self, report: &Json) {
        let at = |path: &[&str]| {
            path.iter()
                .try_fold(report, |json, key| json.get(key))
                .and_then(Json::as_u64)
                .unwrap_or(0)
        };
        self.register_bits += at(&["solve", "pipeline_ff"]);
        self.nodes += at(&["solve", "nodes_investigated"]);
        self.gates += at(&["logic", "gates"]);
        self.literals += at(&["logic", "literals"]);
        for session in ["session1", "session2"] {
            let faults = at(&["bist", session, "total_faults"]);
            self.fault_patterns += faults * at(&["bist", session, "patterns"]);
            self.candidates += at(&["optimize", session, "candidates"]);
            if report
                .get("bist")
                .and_then(|b| b.get("measured_coverage"))
                .is_some()
            {
                self.coverage_faults += faults;
            }
        }
        self.coverage_undetected += at(&["bist", "undetected_faults"]);
        self.test_length += at(&["optimize", "total_length"]);
        if let Some(modules) = report
            .get("emit")
            .and_then(|e| e.get("modules"))
            .and_then(Json::as_array)
        {
            self.emitted_bytes += modules
                .iter()
                .filter_map(|m| m.get("bytes").and_then(Json::as_u64))
                .sum::<u64>();
        }
    }

    /// Records the per-layer counts.
    pub fn record_layers(&self, metrics: &mut Metrics) {
        metrics.set("solve.nodes", self.nodes as f64);
        metrics.set("logic.gates", self.gates as f64);
        metrics.set("logic.literals", self.literals as f64);
        metrics.set("bist.fault_patterns", self.fault_patterns as f64);
        metrics.set("coverage.faults", self.coverage_faults as f64);
        if self.coverage_faults > 0 {
            let detected = self.coverage_faults - self.coverage_undetected;
            metrics.set(
                "coverage.fault_coverage",
                detected as f64 / self.coverage_faults as f64,
            );
        }
        metrics.set("optimize.candidates", self.candidates as f64);
        metrics.set("optimize.test_length", self.test_length as f64);
        metrics.set("emit.bytes", self.emitted_bytes as f64);
    }

    pub fn fault_patterns(&self) -> f64 {
        self.fault_patterns as f64
    }
}
