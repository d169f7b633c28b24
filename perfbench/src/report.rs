//! Metric catalog, operation accounting and the result line.
//!
//! Every run prints each metric of its mode (end-to-end when untraced,
//! per-layer when traced) as a readable line with its unit and samples,
//! then one JSON object as the last line of standard output.

use std::collections::BTreeMap;

/// End-to-end metrics (printed by untraced runs): name and unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("multiply_ms_p50", "ms"),
    ("mprod_per_s", "Mprod/s"),
    ("sim_multiply_ms_p50", "ms"),
    ("sim_kernel_us", "sim_us"),
    ("sim_peak_mem_mb", "MiB"),
    ("jobs_per_s", "1/s"),
    ("job_latency_ms_p50", "ms"),
    ("job_latency_ms_p99", "ms"),
];

/// Per-layer metrics (printed by traced runs): name and unit.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("plan.ms_p50", "ms"),
    ("plan.ns_per_row", "ns/row"),
    ("host.symbolic.ms_p50", "ms"),
    ("host.symbolic.ns_per_product", "ns/product"),
    ("host.symbolic.probes_per_product", "count"),
    ("host.numeric.ms_p50", "ms"),
    ("host.numeric.ns_per_product", "ns/product"),
    ("host.numeric.ns_per_output_nnz", "ns/nnz"),
    ("host.numeric.probes_per_product", "count"),
    ("sim.symbolic.ms_p50", "ms"),
    ("sim.numeric.ms_p50", "ms"),
    ("sim.host_ns_per_product", "ns/product"),
    ("sim.setup_us", "sim_us"),
    ("sim.count_us", "sim_us"),
    ("sim.malloc_us", "sim_us"),
    ("sim.calc_us", "sim_us"),
    ("sim.probes", "count"),
    ("floor.gustavson_ms_p50", "ms"),
    ("floor.gustavson_ratio", "ratio"),
    ("batched.ms_p50", "ms"),
    ("batched.batches", "count"),
    ("batched.retries", "count"),
    ("batched.overhead_ratio", "ratio"),
    ("engine.queue_wait_ms_p50", "ms"),
    ("engine.exec_ms_p50.hit", "ms"),
    ("engine.exec_ms_p50.miss", "ms"),
    ("engine.exec_ms_p50.batched", "ms"),
    ("engine.cache_hit_ratio", "ratio"),
    ("engine.symbolic_runs", "count"),
    ("engine.batched_jobs", "count"),
    ("engine.queued_jobs", "count"),
    ("engine.budget_peak_mb", "MiB"),
    ("engine.fingerprint_us", "us"),
    ("engine.estimate_us", "us"),
    ("trace.untraced_ms_p50", "ms"),
    ("trace.traced_ms_p50", "ms"),
    ("trace.overhead_frac", "ratio"),
];

pub const MIB: f64 = 1024.0 * 1024.0;

struct Metric {
    value: f64,
    unit: &'static str,
    note: String,
}

/// Metrics, operation counts and failures of one run.
pub struct Report {
    catalog: &'static [(&'static str, &'static str)],
    metrics: BTreeMap<&'static str, Metric>,
    pub attempted: u64,
    pub failed: u64,
    errors: Vec<String>,
}

impl Report {
    pub fn new(traced: bool) -> Self {
        Report {
            catalog: if traced { PER_LAYER } else { END_TO_END },
            metrics: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
        }
    }

    /// Record a metric of this run's mode; its unit comes from the
    /// catalog, `note` says how it was measured (samples, tails, bases).
    pub fn put(&mut self, name: &'static str, value: f64, note: impl Into<String>) {
        let Some(&(_, unit)) = self.catalog.iter().find(|(n, _)| *n == name) else {
            self.error(format!("metric {name} is not in this mode's catalog"));
            return;
        };
        self.metrics.insert(name, Metric { value, unit, note: note.into() });
    }

    /// Count one checked operation; an `Err` counts it as failed.
    pub fn op(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            self.error(e);
        }
    }

    /// A failed run-level check (accounting, exactness, shutdown state).
    pub fn error(&mut self, e: String) {
        eprintln!("perfbench: CHECK FAILED: {e}");
        self.errors.push(e);
    }

    /// Print every metric and the result line; `true` when the run is
    /// correct: no failed operation, no failed check, every catalog
    /// metric present and finite.
    pub fn finish(mut self) -> bool {
        for &(name, _) in self.catalog {
            match self.metrics.get(name) {
                None => self.error(format!("metric {name} was not measured")),
                Some(m) if !m.value.is_finite() => {
                    let e = format!("metric {name} is not finite ({}; {})", m.value, m.note);
                    self.error(e);
                }
                Some(_) => {}
            }
        }
        if self.attempted == 0 {
            self.error("no operation was attempted".into());
        }
        for (name, m) in &self.metrics {
            println!("{name:<36} {:>16.6} {:<10} {}", m.value, m.unit, m.note);
        }
        let correct = self.failed == 0 && self.errors.is_empty();
        println!("{}", self.json(correct));
        correct
    }

    fn json(&self, correct: bool) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .filter(|(_, m)| m.value.is_finite())
            .map(|(name, m)| {
                format!("\"{name}\": {{\"value\": {:?}, \"unit\": \"{}\"}}", m.value, m.unit)
            })
            .collect();
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line =
        status.lines().find(|l| l.starts_with("VmHWM:")).ok_or("no VmHWM in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("VmHWM: {e}"))?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report::new(false);
        r.put("setup_s", 0.25, "");
        r.op(Ok(()));
        let line = r.json(true);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn failures_and_unknown_metrics_make_the_run_incorrect() {
        let mut r = Report::new(true);
        r.put("setup_s", 1.0, "");
        assert!(!r.errors.is_empty());
        let mut r = Report::new(false);
        r.op(Err("mismatch".into()));
        assert_eq!((r.attempted, r.failed), (1, 1));
    }

    #[test]
    fn catalog_matches_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let names = json.matches("\"unit\":").count();
        assert_eq!(names, END_TO_END.len() + PER_LAYER.len(), "BENCHMARK.json has extra metrics");
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
