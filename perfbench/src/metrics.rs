//! The metrics the benchmark reports — the single list `BENCHMARK.json` must
//! agree with — and the statistics and output format shared by every report.

use std::collections::BTreeMap;

/// Which direction of change is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    /// The spelling `BENCHMARK.json` uses.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Decl {
    /// Metric name, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
    /// Which direction is an improvement.
    pub better: Better,
}

const fn d(name: &'static str, unit: &'static str, better: Better) -> Decl {
    Decl { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, from untraced repetitions. Times are host time on the
/// process CPU clock ([`crate::host::cpu_seconds`]); `profile_*` are
/// simulated.
pub const END_TO_END: &[Decl] = &[
    d("setup_s", "s", Lower),
    d("batch_cpu_s", "s", Lower),
    d("job_latency_cpu_p50_s", "s", Lower),
    d("job_latency_cpu_p90_s", "s", Lower),
    d("peak_rss_mb", "MB", Lower),
    d("success_rate", "fraction", Higher),
    d("profile_energy_savings_pct", "%", Higher),
    d("profile_slowdown_pct", "%", Lower),
];

/// Per-layer metrics, from the traced run. Each layer is named after the
/// module it measures.
pub const PER_LAYER: &[Decl] = &[
    d("workloads.trace_gen_s", "s", Lower),
    d("workloads.instructions", "count", Higher),
    d("workloads.minst_per_s", "Minst/s", Higher),
    d("sim.baseline_s", "s", Lower),
    d("sim.minst_per_s", "Minst/s", Higher),
    d("sim.replay_lane_s", "s", Lower),
    d("sim.lanes", "count", Higher),
    d("pipeline.analyze_s", "s", Lower),
    d("pipeline.capture_s", "s", Lower),
    d("pipeline.dag_s", "s", Lower),
    d("pipeline.shaker_s", "s", Lower),
    d("pipeline.threshold_s", "s", Lower),
    d("pipeline.windows", "count", Higher),
    d("pipeline.events", "count", Lower),
    d("pipeline.peak_resident_events", "count", Lower),
    d("profile.plan_s", "s", Lower),
    d("profile.train_s", "s", Lower),
    d("scheme.offline_s", "s", Lower),
    d("scheme.online_s", "s", Lower),
    d("scheme.profile_s", "s", Lower),
    d("scheme.global_s", "s", Lower),
    d("scheme.pid_s", "s", Lower),
    d("scheme.sysscale_s", "s", Lower),
    d("scheme.learned_s", "s", Lower),
    d("artifact.hits", "count", Higher),
    d("artifact.misses", "count", Lower),
    d("artifact.writes", "count", Lower),
    d("artifact.errors", "count", Lower),
    d("artifact.lock_waits", "count", Lower),
    d("artifact.bytes", "B", Lower),
    d("artifact.read_s", "s", Lower),
    d("artifact.write_s", "s", Lower),
    d("service.queue_wait_p50_s", "s", Lower),
    d("service.queue_wait_max_s", "s", Lower),
    d("service.baseline_ready_s", "s", Lower),
    d("service.first_result_s", "s", Lower),
    d("service.memo_hits", "count", Higher),
    d("service.memo_misses", "count", Lower),
    d("service.passes", "count", Lower),
    d("service.lanes_per_pass", "count", Higher),
    d("service.peak_queue_depth", "count", Lower),
    d("service.fusion_gain", "ratio", Higher),
    d("trace.attributed_frac", "fraction", Higher),
    d("trace.overhead_frac", "fraction", Lower),
];

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Renders the result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric of `decls` (name, value, unit). Fails if a
/// declared metric has no value or a value has no declaration.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    decls: &[Decl],
    values: &Values,
) -> Result<String, String> {
    if let Some(extra) = values.keys().find(|k| !decls.iter().any(|d| d.name == **k)) {
        return Err(format!("metric `{extra}` is not declared"));
    }
    let mut metrics = Vec::with_capacity(decls.len());
    for decl in decls {
        let value = values
            .get(decl.name)
            .ok_or_else(|| format!("metric `{}` was not measured", decl.name))?;
        if !value.is_finite() {
            return Err(format!("metric `{}` is not finite: {value}", decl.name));
        }
        metrics.push(format!(
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            decl.name,
            json_number(*value),
            decl.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    ))
}

/// A finite `f64` as a JSON number with all its digits (integers without a
/// fractional part).
fn json_number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Median of a non-empty sample (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `q` (0–100) of a non-empty sample, as the
/// load-test harness computes it.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    mcd_bench::loadtest::percentile(&sorted, q)
}
