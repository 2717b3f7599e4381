//! Shared infrastructure for the benchmark harness that regenerates every
//! table and figure of the paper.
//!
//! Each binary in `src/bin/` reproduces one table or figure; this library
//! provides the common pieces: one flag parser ([`cli::Options`]), the
//! evaluation configuration, suite selection, the [`Evaluator`]-backed batch
//! entry point with streamed progress and one stderr counter line,
//! scheme-agnostic metric tables, the instrumentation replay behind Table 4
//! and Figure 12, error-reporting `main` plumbing, and plain-text formatting
//! that mirrors the rows/series the paper reports.

#![warn(missing_docs)]

pub mod cli;
pub mod loadtest;
pub mod tournament;

use mcd_dvfs::artifact::ArtifactCache;
use mcd_dvfs::error::McdError;
use mcd_dvfs::evaluation::{BenchmarkEvaluation, EvaluationConfig, Summary};
use mcd_dvfs::service::{EvalEvent, EvalJob, Evaluator};
use mcd_profiling::edit::{InstrumentationPlan, RuntimeTracker};
use mcd_sim::config::MachineConfig;
use mcd_sim::simulator::{NullHooks, Simulator};
use mcd_sim::stats::{RelativeMetrics, SimStats};
use mcd_sim::trace::PackedTrace;
use mcd_workloads::suite::{self, Benchmark, SuiteKind};
use std::sync::{Arc, OnceLock};

pub use cli::{Options, SuiteSelection};

/// The slowdown target used for the headline results (the paper's Figures 4–7
/// use a dilation target of roughly 7%).
pub const HEADLINE_SLOWDOWN: f64 = 0.07;

/// Returns the paper-tier benchmarks to evaluate. `quick` restricts the run
/// to a representative six-benchmark subset (useful while iterating); the
/// full suite is all nineteen programs.
pub fn selected_suite(quick: bool) -> Vec<Benchmark> {
    const QUICK: [&str; 6] = [
        "adpcm decode",
        "epic encode",
        "jpeg compress",
        "mcf",
        "swim",
        "art",
    ];
    suite::select(|name, kind| kind.is_batch() && (!quick || QUICK.contains(&name)))
}

/// Returns the benchmarks selected by `--suite` / `MCD_SUITE` (falling back
/// to `default` when absent), honouring `--quick`.
///
/// The second-tier selections are already small (three or six benchmarks),
/// so `--quick` only subsets the paper tier: `paper` quick is the
/// representative six, `all` quick pairs that subset with the whole second
/// tier, and `server` / `interactive` / `tier2` are unaffected.
pub fn selected_benchmarks(
    options: &Options,
    default: SuiteSelection,
) -> Result<Vec<Benchmark>, McdError> {
    Ok(match options.suite_selection(default)? {
        SuiteSelection::Paper => selected_suite(options.quick),
        SuiteSelection::Server => suite::tier(SuiteKind::Server),
        SuiteSelection::Interactive => suite::tier(SuiteKind::Interactive),
        SuiteSelection::Tier2 => suite::server_suite(),
        SuiteSelection::All => {
            let mut benches = selected_suite(options.quick);
            benches.extend(suite::server_suite());
            benches
        }
    })
}

/// The cache shared by every evaluation this process runs, resolved once from
/// the first caller's [`Options`] (so hit/miss counters accumulate across a
/// binary's sweeps).
static SHARED_CACHE: OnceLock<Arc<ArtifactCache>> = OnceLock::new();

/// The artifact cache shared by every evaluation this process runs: resolved
/// once from `--no-cache` / `MCD_NO_CACHE` / `MCD_CACHE_DIR` (defaulting to
/// `.mcd-cache/`).
pub fn shared_cache(options: &Options) -> Arc<ArtifactCache> {
    SHARED_CACHE
        .get_or_init(|| {
            if options.no_cache {
                Arc::new(ArtifactCache::disabled())
            } else {
                Arc::new(ArtifactCache::from_env())
            }
        })
        .clone()
}

/// Reports the shared cache's counters on stderr (machine-greppable, used by
/// the CI cold/warm smoke test) and appends them to the cache directory's
/// stats log so `cache_stats` can aggregate across processes. A process that
/// never touched the shared cache reports nothing.
pub fn report_cache() {
    let Some(cache) = SHARED_CACHE.get() else {
        return;
    };
    if !cache.is_enabled() {
        return;
    }
    let s = cache.stats();
    if s.lookups() == 0 && s.writes == 0 {
        return;
    }
    eprintln!(
        "mcd-cache: hits={} misses={} writes={} errors={} dir={}",
        s.hits,
        s.misses,
        s.writes,
        s.errors,
        cache
            .dir()
            .expect("enabled cache has a directory")
            .display()
    );
    // Per-kind breakdown: the CI sweep smoke asserts `misses=0` on the
    // expensive slowdown-independent kinds specifically (packed-trace,
    // window-histograms), not just on the aggregate.
    for (kind, k) in cache.kind_stats_all() {
        eprintln!(
            "mcd-cache[{kind}]: hits={} misses={} writes={} errors={}",
            k.hits, k.misses, k.writes, k.errors
        );
    }
    cache.flush_stats_log();
}

/// The default evaluation configuration used by the figure binaries.
pub fn default_config(options: &Options, include_global: bool) -> EvaluationConfig {
    EvaluationConfig {
        include_global,
        parallelism: options.parallelism(),
        ..EvaluationConfig::default()
    }
    .with_slowdown(HEADLINE_SLOWDOWN)
    .with_cache(shared_cache(options))
}

/// Evaluates every benchmark in `benches` under `config` through one
/// [`Evaluator`], one job per benchmark, narrating per-job progress on stderr
/// as events arrive and closing with the evaluator's counter line
/// ([`report_batch`]). Evaluations return in submission order.
///
/// Sweeps that evaluate many configurations should build one [`Evaluator`]
/// themselves and submit every configuration's jobs to it, so reference
/// traces and baselines are shared across the whole sweep.
pub fn evaluate_all(
    benches: &[Benchmark],
    config: &EvaluationConfig,
) -> Result<Vec<BenchmarkEvaluation>, McdError> {
    eprintln!(
        "  evaluating {} benchmark(s) on {} thread(s) ...",
        benches.len(),
        config.parallelism.max(1)
    );
    let workers = config.parallelism.max(1).min(benches.len().max(1));
    let evaluator = Evaluator::builder()
        .config(config.clone())
        .workers(workers)
        .build();
    let jobs = benches.iter().cloned().map(EvalJob::new).collect();
    let evals = evaluator
        .submit_all(jobs)
        .collect_with(|event| match event {
            EvalEvent::JobCompleted { evaluation, .. } => {
                eprintln!("    {}: done", evaluation.name);
            }
            EvalEvent::JobFailed {
                benchmark, error, ..
            } => {
                eprintln!("    {benchmark}: FAILED: {error}");
            }
            _ => {}
        })?;
    report_batch(&evaluator);
    Ok(evals)
}

/// Reports `evaluator`'s batch and reference-trace memo counters on stderr
/// as one machine-greppable line (`mcd-batch: groups=... passes=... ...`,
/// read by the CI tournament smoke like the cache line).
pub fn report_batch(evaluator: &Evaluator) {
    let b = evaluator.batch_stats();
    let memo = evaluator.memo_stats();
    eprintln!(
        "mcd-batch: groups={} members={} passes={} lanes={} baselines_computed={} \
         baselines_reused={} traces_produced={} traces_reused={}",
        b.groups,
        b.members,
        b.passes,
        b.lanes,
        b.baselines_computed,
        b.baselines_reused,
        memo.misses,
        memo.hits
    );
}

/// Runs `trace` at full speed on `machine`: the baseline every relative
/// metric and overhead fraction is measured against.
pub fn full_speed_stats(trace: &PackedTrace, machine: &MachineConfig) -> SimStats {
    Simulator::new(machine.clone())
        .run(trace.iter(), &mut NullHooks, false)
        .stats
}

/// Feeds every marker of `trace` to a fresh run-time tracker of `plan`,
/// returning the tracker with the run's dynamic instrumentation counts and
/// overhead cycles (Table 4 and Figure 12). Only the instrumentation is
/// emulated: nothing is simulated and nothing reconfigures.
pub fn replay_instrumentation<'a>(
    plan: &'a InstrumentationPlan,
    trace: &PackedTrace,
) -> RuntimeTracker<'a> {
    let mut tracker = plan.tracker();
    for item in trace.iter() {
        if let Some(marker) = item.as_marker() {
            tracker.on_marker(marker);
        }
    }
    tracker
}

/// One of the paper's three headline metrics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Performance degradation relative to the MCD baseline (Figure 4).
    Slowdown,
    /// Energy savings relative to the MCD baseline (Figure 5).
    EnergySavings,
    /// Energy·delay improvement relative to the MCD baseline (Figure 6).
    EnergyDelay,
}

impl Metric {
    /// Extracts this metric from a set of relative metrics.
    pub fn of(self, m: &RelativeMetrics) -> f64 {
        match self {
            Metric::Slowdown => m.performance_degradation,
            Metric::EnergySavings => m.energy_savings,
            Metric::EnergyDelay => m.energy_delay_improvement,
        }
    }
}

/// Runs the standard per-benchmark, per-scheme figure: evaluates the selected
/// suite (tier selection via `--suite`, paper tier by default) and prints one
/// row per benchmark with one column per registered scheme, plus a suite
/// average (the shape of Figures 4–6).
pub fn metric_figure(title: &str, metric: Metric, options: &Options) -> Result<(), McdError> {
    let benches = selected_benchmarks(options, SuiteSelection::Paper)?;
    let config = default_config(options, false);
    let evals = evaluate_all(&benches, &config)?;
    print!("{}", metric_table(title, &evals, metric));
    report_cache();
    Ok(())
}

/// The table's columns: the union of scheme `(name, label)` pairs across all
/// evaluations, in first-appearance order (evaluations from one registry keep
/// its order; schemes that only appear in later rows are appended rather than
/// dropped).
pub fn scheme_columns(evals: &[BenchmarkEvaluation]) -> Vec<(String, String)> {
    let mut columns: Vec<(String, String)> = Vec::new();
    for eval in evals {
        for outcome in &eval.schemes {
            if !columns.iter().any(|(name, _)| *name == outcome.name) {
                columns.push((outcome.name.clone(), outcome.label.clone()));
            }
        }
    }
    columns
}

/// Renders one per-benchmark, per-scheme metric table with a closing
/// average row, in the layout of [`format::header`]. Columns are the union
/// of schemes over all evaluations ([`scheme_columns`]), so rows from
/// different registries align by name and every scheme is shown; a row that
/// lacks a column's scheme shows "-".
pub fn metric_table(title: &str, evals: &[BenchmarkEvaluation], metric: Metric) -> String {
    let mut out = format!("{title}\n\n");
    if evals.is_empty() {
        out.push_str("(no benchmarks selected)\n");
        return out;
    }
    let schemes = scheme_columns(evals);
    let mut columns: Vec<(&str, usize)> = vec![("Benchmark", 16)];
    for (_, label) in &schemes {
        columns.push((label, label.len().max(9)));
    }
    out.push_str(&format::header(&columns));
    let mut sums = vec![Vec::new(); schemes.len()];
    for eval in evals {
        out.push_str(&format!("{:>16}", eval.name));
        for (i, (name, _)) in schemes.iter().enumerate() {
            let cell = match eval.result(name) {
                Some(result) => {
                    let value = metric.of(&result.metrics);
                    sums[i].push(value);
                    format::pct(value)
                }
                None => "-".to_string(),
            };
            out.push_str(&format!("  {cell:>width$}", width = columns[i + 1].1));
        }
        out.push('\n');
    }
    out.push_str(&format!("\n{:>16}", "average"));
    for (sum, (_, width)) in sums.iter().zip(&columns[1..]) {
        out.push_str(&format!("  {:>width$}", format::pct(Summary::of(sum).mean)));
    }
    out.push('\n');
    out
}

pub use mcd_dvfs::error::run_main;

/// Formatting helpers for the text tables the binaries print.
pub mod format {
    /// Formats a fraction as a percentage with one decimal.
    pub fn pct(fraction: f64) -> String {
        format!("{:6.1}%", fraction * 100.0)
    }

    /// Renders a header row (each name right-aligned in its width, then two
    /// spaces) followed by a separator as long as that row, each ending in a
    /// newline.
    pub fn header(columns: &[(&str, usize)]) -> String {
        let mut line = String::new();
        for (name, width) in columns {
            line.push_str(&format!("{name:>width$}  ", width = width));
        }
        let rule = "-".repeat(line.len().max(1));
        format!("{line}\n{rule}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_dvfs::evaluation::SchemeResult;
    use mcd_dvfs::scheme::SchemeOutcome;
    use mcd_sim::stats::SimStats;

    #[test]
    fn quick_suite_is_a_subset() {
        let quick = selected_suite(true);
        let full = selected_suite(false);
        assert_eq!(full.len(), 19);
        assert!(quick.len() < full.len());
        assert!(quick.len() >= 5);
        for b in &quick {
            assert!(full.iter().any(|f| f.name == b.name));
        }
    }

    #[test]
    fn suite_selection_picks_the_right_tier() {
        let with_suite = |suite: Option<&str>, quick: bool| Options {
            suite: suite.map(|s| s.to_string()),
            quick,
            ..Options::default()
        };
        let paper = selected_benchmarks(&with_suite(None, false), SuiteSelection::Paper).unwrap();
        assert_eq!(paper.len(), 19);
        let tier2 =
            selected_benchmarks(&with_suite(Some("tier2"), false), SuiteSelection::Paper).unwrap();
        assert_eq!(tier2.len(), 6);
        // The default argument applies when no flag is given.
        let defaulted =
            selected_benchmarks(&with_suite(None, false), SuiteSelection::Tier2).unwrap();
        assert_eq!(defaulted.len(), 6);
        // --quick subsets only the paper tier.
        let tier2_quick =
            selected_benchmarks(&with_suite(Some("tier2"), true), SuiteSelection::Paper).unwrap();
        assert_eq!(tier2_quick.len(), 6);
        let all_quick =
            selected_benchmarks(&with_suite(Some("all"), true), SuiteSelection::Paper).unwrap();
        assert_eq!(all_quick.len(), 12); // 6 paper subset + 6 second tier
        let server =
            selected_benchmarks(&with_suite(Some("server"), false), SuiteSelection::Paper).unwrap();
        assert_eq!(server.len(), 3);
        assert!(server.iter().all(|b| b.suite == SuiteKind::Server));
        assert!(
            selected_benchmarks(&with_suite(Some("bogus"), false), SuiteSelection::Paper).is_err()
        );
    }

    #[test]
    fn default_config_uses_headline_slowdown() {
        let options = Options {
            no_cache: true,
            ..Options::default()
        };
        let cfg = default_config(&options, true);
        assert!((cfg.training.slowdown - HEADLINE_SLOWDOWN).abs() < 1e-12);
        assert!((cfg.offline.slowdown - HEADLINE_SLOWDOWN).abs() < 1e-12);
        assert!(cfg.include_global);
        assert!(cfg.parallelism >= 1);
    }

    #[test]
    fn pct_formats_one_decimal() {
        assert_eq!(format::pct(0.314).trim(), "31.4%");
    }

    #[test]
    fn metric_extracts_the_right_field() {
        let m = RelativeMetrics {
            performance_degradation: 0.05,
            energy_savings: 0.2,
            energy_delay_improvement: 0.16,
        };
        assert_eq!(Metric::Slowdown.of(&m), 0.05);
        assert_eq!(Metric::EnergySavings.of(&m), 0.2);
        assert_eq!(Metric::EnergyDelay.of(&m), 0.16);
    }

    fn fake_eval(bench: &str, schemes: &[(&str, &str)]) -> BenchmarkEvaluation {
        BenchmarkEvaluation {
            name: bench.to_string(),
            schemes: schemes
                .iter()
                .map(|(name, label)| SchemeOutcome {
                    name: name.to_string(),
                    label: label.to_string(),
                    result: SchemeResult {
                        stats: SimStats::default(),
                        metrics: RelativeMetrics::default(),
                    },
                })
                .collect(),
            baseline: SimStats::default(),
        }
    }

    #[test]
    fn scheme_columns_take_the_union_across_rows_in_first_appearance_order() {
        // The second row carries a scheme the first row lacks (`global`), and
        // the third carries one nothing else has (`pid`): both must appear,
        // after the schemes the first row established.
        let evals = vec![
            fake_eval(
                "adpcm decode",
                &[("offline", "off-line"), ("online", "on-line")],
            ),
            fake_eval(
                "gsm decode",
                &[
                    ("offline", "off-line"),
                    ("online", "on-line"),
                    ("global", "global"),
                ],
            ),
            fake_eval("art", &[("offline", "off-line"), ("pid", "pid")]),
        ];
        let columns = scheme_columns(&evals);
        let names: Vec<&str> = columns.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, vec!["offline", "online", "global", "pid"]);
    }

    #[test]
    fn scheme_columns_of_a_uniform_registry_keep_registry_order() {
        let evals = vec![
            fake_eval("a", &[("offline", "off-line"), ("profile", "profile L+F")]),
            fake_eval("b", &[("offline", "off-line"), ("profile", "profile L+F")]),
        ];
        let columns = scheme_columns(&evals);
        let names: Vec<&str> = columns.iter().map(|(name, _)| name.as_str()).collect();
        assert_eq!(names, vec!["offline", "profile"]);
        assert_eq!(columns[1].1, "profile L+F");
    }
}
