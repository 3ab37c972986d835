//! Statistics over samples, operation accounting, and the result line.

use std::fmt::Display;

/// The `q`-quantile of `values` (0 ≤ q ≤ 1), linearly interpolated between
/// order statistics. Panics on an empty slice: every caller measures at
/// least one sample before asking.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Restart the kernel's peak-RSS counter from the current resident size, so
/// the next [`peak_rss_mb`] covers only what ran since. Best effort: where
/// `/proc/self/clear_refs` is not writable the peak covers the whole run.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The process's peak resident set size in MiB, read from `/proc`.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// One reported metric.
struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// Everything one run reports: its metrics and its operation counts.
#[derive(Default)]
pub struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
}

impl Report {
    /// Record a metric measured over `samples` samples.
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Whether metric `name` was reported.
    pub fn has(&self, name: &str) -> bool {
        self.metrics.iter().any(|m| m.name == name)
    }

    /// Count one operation; a failed one is also described on stderr.
    pub fn op(&mut self, ok: bool, what: impl Display) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: FAILED {what}");
        }
        ok
    }

    /// Count `n` operations that all succeeded.
    pub fn ops_ok(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Print a readable table, then the JSON result as the last line.
    pub fn print(&self, workload: &str) {
        println!(
            "workload {workload}: {} operations, {} failed",
            self.attempted, self.failed
        );
        for m in &self.metrics {
            println!(
                "  {:<34} {:>16.6} {:<10} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }

    /// True when every operation succeeded and every metric is a number.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }
}

/// A finite float in JSON syntax with all its digits; non-finite values
/// (which make the run incorrect) are written as 0.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".into()
    }
}
