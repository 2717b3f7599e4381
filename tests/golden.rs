//! Golden-metrics regression harness.
//!
//! Snapshots the three headline metrics (slowdown, energy savings,
//! energy-delay improvement) of every scheme on a fixed panel of benchmarks —
//! three from the paper tier and two from the second (server/interactive)
//! tier — against checked-in expected values at the fixed workload/input
//! seeds. The evaluation pipeline is deterministic, so these values are
//! stable across runs, parallelism levels, and machines; the tolerance only
//! absorbs floating-point reassociation from legitimate numeric refactors.
//! A controller or pipeline change that shifts results now fails loudly here
//! instead of silently bending every figure.
//!
//! When a drift is intentional (a deliberate modelling change), the failure
//! message prints the full replacement table to paste over `GOLDEN`.
//!
//! Coverage note: the evaluator has one execution path — every job runs as a
//! batch, a lone job as a batch of one — and this harness pins its absolute
//! output. The relative properties around it are checked elsewhere: reused
//! slowdown-independent artifacts (packed trace, window/training histograms)
//! must match a cold evaluation
//! (`tests/service.rs::slowdown_only_changes_reuse_capture_and_dag_artifacts`),
//! and N-member batches must match N one-member batches
//! (`tests/properties.rs::batched_lanes_match_serial_submission_bitwise`),
//! so any reuse or lane-isolation bug that slipped past them would still
//! surface here as a golden drift.

mod common;

use mcd_dvfs::evaluation::{BenchmarkEvaluation, EvaluationConfig};
use mcd_dvfs::service::{EvalJob, Evaluator};
use std::sync::OnceLock;

/// The slowdown target of the headline figures (7% dilation).
const SLOWDOWN_TARGET: f64 = 0.07;

/// Absolute tolerance on each metric (fractions, so 2e-3 = 0.2 percentage
/// points): far wider than floating-point noise (the pipeline is
/// bit-deterministic), far tighter than any behavioural change.
const TOLERANCE: f64 = 2e-3;

/// The benchmark panel: three paper-tier programs covering the
/// integer/FP/memory-bound corners, plus one server and one interactive
/// program from the second tier.
const PANEL: [&str; 5] = [
    "adpcm decode",
    "gsm decode",
    "mcf",
    "web serve",
    "sensor hub",
];

/// One golden record: `(benchmark, scheme)` → the three headline metrics.
struct GoldenRow {
    benchmark: &'static str,
    scheme: &'static str,
    slowdown: f64,
    energy: f64,
    energy_delay: f64,
}

/// The checked-in expected values. Regenerate by running this test and
/// pasting the replacement table its failure message prints.
#[rustfmt::skip]
const GOLDEN: &[GoldenRow] = &[
    GoldenRow { benchmark: "adpcm decode", scheme: "offline", slowdown: 0.173191, energy: 0.226834, energy_delay: 0.092929 },
    GoldenRow { benchmark: "adpcm decode", scheme: "online", slowdown: -0.001380, energy: 0.036475, energy_delay: 0.037804 },
    GoldenRow { benchmark: "adpcm decode", scheme: "profile", slowdown: 0.161567, energy: 0.204755, energy_delay: 0.076270 },
    GoldenRow { benchmark: "adpcm decode", scheme: "pid", slowdown: -0.010636, energy: 0.053183, energy_delay: 0.063253 },
    GoldenRow { benchmark: "adpcm decode", scheme: "sysscale", slowdown: 0.173017, energy: 0.190386, energy_delay: 0.050309 },
    GoldenRow { benchmark: "adpcm decode", scheme: "learned", slowdown: 0.108308, energy: 0.129014, energy_delay: 0.034680 },
    GoldenRow { benchmark: "adpcm decode", scheme: "global", slowdown: 0.134247, energy: 0.140917, energy_delay: 0.025588 },
    GoldenRow { benchmark: "gsm decode", scheme: "offline", slowdown: 0.160110, energy: 0.231066, energy_delay: 0.107952 },
    GoldenRow { benchmark: "gsm decode", scheme: "online", slowdown: 0.058034, energy: 0.088741, energy_delay: 0.035857 },
    GoldenRow { benchmark: "gsm decode", scheme: "profile", slowdown: 0.152799, energy: 0.217171, energy_delay: 0.097556 },
    GoldenRow { benchmark: "gsm decode", scheme: "pid", slowdown: -0.001325, energy: 0.068118, energy_delay: 0.069353 },
    GoldenRow { benchmark: "gsm decode", scheme: "sysscale", slowdown: 0.167429, energy: 0.198416, energy_delay: 0.064207 },
    GoldenRow { benchmark: "gsm decode", scheme: "learned", slowdown: 0.117910, energy: 0.153101, energy_delay: 0.053244 },
    GoldenRow { benchmark: "gsm decode", scheme: "global", slowdown: 0.125234, energy: 0.142931, energy_delay: 0.035597 },
    GoldenRow { benchmark: "mcf", scheme: "offline", slowdown: 0.051431, energy: 0.332166, energy_delay: 0.297819 },
    GoldenRow { benchmark: "mcf", scheme: "online", slowdown: 0.426794, energy: 0.416479, energy_delay: 0.167436 },
    GoldenRow { benchmark: "mcf", scheme: "profile", slowdown: 0.042791, energy: 0.321005, energy_delay: 0.291950 },
    GoldenRow { benchmark: "mcf", scheme: "pid", slowdown: 0.434487, energy: 0.279497, energy_delay: -0.033552 },
    GoldenRow { benchmark: "mcf", scheme: "sysscale", slowdown: 0.025864, energy: 0.271227, energy_delay: 0.252378 },
    GoldenRow { benchmark: "mcf", scheme: "learned", slowdown: 0.015281, energy: 0.222495, energy_delay: 0.210613 },
    GoldenRow { benchmark: "mcf", scheme: "global", slowdown: 0.006418, energy: 0.039311, energy_delay: 0.033145 },
    GoldenRow { benchmark: "web serve", scheme: "offline", slowdown: 0.111076, energy: 0.282235, energy_delay: 0.202508 },
    GoldenRow { benchmark: "web serve", scheme: "online", slowdown: 0.151905, energy: 0.215942, energy_delay: 0.096840 },
    GoldenRow { benchmark: "web serve", scheme: "profile", slowdown: 0.104630, energy: 0.269313, energy_delay: 0.192861 },
    GoldenRow { benchmark: "web serve", scheme: "pid", slowdown: 0.069400, energy: 0.162183, energy_delay: 0.104038 },
    GoldenRow { benchmark: "web serve", scheme: "sysscale", slowdown: 0.085666, energy: 0.235953, energy_delay: 0.170501 },
    GoldenRow { benchmark: "web serve", scheme: "learned", slowdown: 0.073484, energy: 0.219583, energy_delay: 0.162234 },
    GoldenRow { benchmark: "web serve", scheme: "global", slowdown: 0.048571, energy: 0.095422, energy_delay: 0.051487 },
    GoldenRow { benchmark: "sensor hub", scheme: "offline", slowdown: 0.161586, energy: 0.220609, energy_delay: 0.094671 },
    GoldenRow { benchmark: "sensor hub", scheme: "online", slowdown: 0.016279, energy: 0.058442, energy_delay: 0.043114 },
    GoldenRow { benchmark: "sensor hub", scheme: "profile", slowdown: 0.167420, energy: 0.215410, energy_delay: 0.084054 },
    GoldenRow { benchmark: "sensor hub", scheme: "pid", slowdown: -0.088662, energy: 0.060057, energy_delay: 0.143394 },
    GoldenRow { benchmark: "sensor hub", scheme: "sysscale", slowdown: 0.176637, energy: 0.192024, energy_delay: 0.049305 },
    GoldenRow { benchmark: "sensor hub", scheme: "learned", slowdown: 0.153362, energy: 0.176870, energy_delay: 0.050634 },
    GoldenRow { benchmark: "sensor hub", scheme: "global", slowdown: 0.134676, energy: 0.140572, energy_delay: 0.024828 },
];

/// Evaluates the panel once per process (both tests share the result).
fn panel_evaluations() -> &'static [BenchmarkEvaluation] {
    static EVALS: OnceLock<Vec<BenchmarkEvaluation>> = OnceLock::new();
    EVALS.get_or_init(|| evaluate(&PANEL))
}

/// The headline configuration: global DVS and the controller zoo included,
/// cache disabled, fixed seeds.
fn config() -> EvaluationConfig {
    EvaluationConfig {
        include_global: true,
        include_zoo: true,
        ..EvaluationConfig::default()
    }
    .with_slowdown(SLOWDOWN_TARGET)
    .with_parallelism(2)
}

/// One full-registry evaluation of the given benchmarks under [`config`],
/// each outcome checked against the conservation laws.
fn evaluate(benchmarks: &[&str]) -> Vec<BenchmarkEvaluation> {
    let config = config();
    let machine = config.machine.clone();
    let evaluator = Evaluator::builder().config(config).build();
    let jobs = benchmarks
        .iter()
        .map(|name| EvalJob::named(name).expect("panel benchmark exists"))
        .collect();
    let evals = evaluator
        .submit_all(jobs)
        .collect()
        .expect("panel evaluation succeeds");
    for eval in &evals {
        common::check_evaluation(eval, &machine);
    }
    evals
}

/// Formats the actual metrics as a replacement for the `GOLDEN` constant.
fn replacement_table(evals: &[BenchmarkEvaluation]) -> String {
    let mut out = String::from("const GOLDEN: &[GoldenRow] = &[\n");
    for eval in evals {
        for outcome in &eval.schemes {
            let m = &outcome.result.metrics;
            out.push_str(&format!(
                "    GoldenRow {{ benchmark: \"{}\", scheme: \"{}\", slowdown: {:.6}, \
                 energy: {:.6}, energy_delay: {:.6} }},\n",
                eval.name,
                outcome.name,
                m.performance_degradation,
                m.energy_savings,
                m.energy_delay_improvement
            ));
        }
    }
    out.push_str("];");
    out
}

/// Every `(benchmark, scheme)` metric matches its checked-in golden value
/// within the tolerance, and the golden table covers the whole panel.
#[test]
fn golden_metrics_match_checked_in_values() {
    let evals = panel_evaluations();
    assert_eq!(evals.len(), PANEL.len());

    let mut failures = Vec::new();
    for eval in evals {
        for outcome in &eval.schemes {
            let m = &outcome.result.metrics;
            let golden = GOLDEN
                .iter()
                .find(|g| g.benchmark == eval.name && g.scheme == outcome.name);
            let Some(golden) = golden else {
                failures.push(format!("{} / {}: no golden row", eval.name, outcome.name));
                continue;
            };
            for (metric, actual, expected) in [
                ("slowdown", m.performance_degradation, golden.slowdown),
                ("energy", m.energy_savings, golden.energy),
                (
                    "energy-delay",
                    m.energy_delay_improvement,
                    golden.energy_delay,
                ),
            ] {
                if (actual - expected).abs() > TOLERANCE {
                    failures.push(format!(
                        "{} / {} / {metric}: actual {actual:.6} vs golden {expected:.6}",
                        eval.name, outcome.name
                    ));
                }
            }
        }
    }
    // Stale rows (a scheme or benchmark that no longer runs) also fail.
    for golden in GOLDEN {
        let present = evals.iter().any(|e| {
            e.name == golden.benchmark && e.schemes.iter().any(|o| o.name == golden.scheme)
        });
        if !present {
            failures.push(format!(
                "{} / {}: golden row for a result that no longer exists",
                golden.benchmark, golden.scheme
            ));
        }
    }

    assert!(
        failures.is_empty(),
        "golden metrics drifted:\n  {}\n\nIf the change is intentional, replace the \
         GOLDEN constant with:\n\n{}\n",
        failures.join("\n  "),
        replacement_table(evals)
    );
}

/// Two consecutive evaluations of the second-tier panel members produce
/// bit-identical metrics — the determinism the golden harness rests on.
#[test]
fn golden_panel_is_deterministic_across_runs() {
    let again = evaluate(&["web serve", "sensor hub"]);
    let first = panel_evaluations();
    for rerun in &again {
        let original = first
            .iter()
            .find(|e| e.name == rerun.name)
            .expect("panel contains the benchmark");
        assert_eq!(original.schemes.len(), rerun.schemes.len());
        for (a, b) in original.schemes.iter().zip(&rerun.schemes) {
            assert_eq!(a.name, b.name);
            assert_eq!(
                a.result.stats.run_time.as_ns().to_bits(),
                b.result.stats.run_time.as_ns().to_bits(),
                "{}: {} diverged between consecutive runs",
                rerun.name,
                a.name
            );
            assert_eq!(
                a.result.stats.total_energy.as_units().to_bits(),
                b.result.stats.total_energy.as_units().to_bits()
            );
        }
    }
}
