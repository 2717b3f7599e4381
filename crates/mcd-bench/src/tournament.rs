//! The controller tournament: every registered scheme, every suite tier, one
//! [`Evaluator`](mcd_dvfs::service::Evaluator), one ranked scheme × benchmark
//! matrix.
//!
//! The `tournament` binary evaluates the selected benchmarks with the full
//! registry (the paper's four schemes plus the controller zoo) through
//! [`crate::evaluate_all`]: one evaluator, one job per benchmark; within a
//! job, the profile and learned schemes share one training capture through
//! the batch's artifact pools. [`render`] is a pure function from the evaluations to the report text,
//! so the output is byte-stable across runs, across cold/warm caches, and
//! across `--jobs` values (the snapshot test and the CI smoke both rely on
//! this).
//!
//! The report has two parts: the three per-benchmark metric matrices
//! (slowdown, energy savings, energy·delay improvement — the figures'
//! [`metric_table`], widened to every scheme), and ranking tables per suite
//! tier plus overall, ordered by mean energy·delay improvement (the metric
//! the paper treats as the headline trade-off).

use crate::{format, metric_table, scheme_columns, Metric};
use mcd_dvfs::evaluation::{BenchmarkEvaluation, Summary};
use mcd_workloads::suite::{self, SuiteKind};

/// One scheme's aggregate over a set of benchmarks: the per-metric means the
/// ranking tables report.
#[derive(Debug, Clone)]
struct SchemeAggregate {
    name: String,
    label: String,
    slowdown: f64,
    energy: f64,
    energy_delay: f64,
    covered: usize,
}

/// Aggregates each scheme over `evals`, ranked by mean energy·delay
/// improvement (descending; ties break on the scheme name so the order is
/// total and stable).
fn ranking(evals: &[BenchmarkEvaluation]) -> Vec<SchemeAggregate> {
    let mut aggregates: Vec<SchemeAggregate> = Vec::new();
    for (name, label) in scheme_columns(evals) {
        let mut slowdown = Vec::new();
        let mut energy = Vec::new();
        let mut energy_delay = Vec::new();
        for eval in evals {
            if let Some(result) = eval.result(&name) {
                slowdown.push(result.metrics.performance_degradation);
                energy.push(result.metrics.energy_savings);
                energy_delay.push(result.metrics.energy_delay_improvement);
            }
        }
        if energy_delay.is_empty() {
            continue;
        }
        aggregates.push(SchemeAggregate {
            name,
            label,
            slowdown: Summary::of(&slowdown).mean,
            energy: Summary::of(&energy).mean,
            energy_delay: Summary::of(&energy_delay).mean,
            covered: energy_delay.len(),
        });
    }
    aggregates.sort_by(|a, b| {
        b.energy_delay
            .partial_cmp(&a.energy_delay)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| a.name.cmp(&b.name))
    });
    aggregates
}

/// Renders one ranking table (rank, scheme, per-metric means, coverage).
fn ranking_table(title: &str, evals: &[BenchmarkEvaluation]) -> String {
    let mut out = String::new();
    out.push_str(title);
    out.push_str("\n\n");
    let header = format!(
        "{:>4}  {:<14}{:>10}{:>10}{:>14}{:>8}",
        "rank", "scheme", "slowdown", "energy", "energy-delay", "n"
    );
    out.push_str(&header);
    out.push('\n');
    out.push_str(&"-".repeat(header.len()));
    out.push('\n');
    for (i, agg) in ranking(evals).iter().enumerate() {
        out.push_str(&format!(
            "{:>4}  {:<14}{:>10}{:>10}{:>14}{:>8}\n",
            i + 1,
            agg.label,
            format::pct(agg.slowdown).trim(),
            format::pct(agg.energy).trim(),
            format::pct(agg.energy_delay).trim(),
            agg.covered
        ));
    }
    out
}

/// The ranking tier a named benchmark belongs to (`None` for a name outside
/// the registered suites — such rows only join the overall ranking). The
/// paper's three source suites (MediaBench, SPECint, SPECfp) rank as one
/// tier, matching how the figures aggregate them.
fn tier_of(name: &str) -> Option<Tier> {
    Some(match suite::benchmark(name)?.suite {
        SuiteKind::MediaBench | SuiteKind::SpecInt | SuiteKind::SpecFp => Tier::Paper,
        SuiteKind::Server => Tier::Server,
        SuiteKind::Interactive => Tier::Interactive,
    })
}

/// The three ranking tiers of the tournament report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tier {
    Paper,
    Server,
    Interactive,
}

/// Renders the full tournament report: the three metric matrices over every
/// benchmark, then ranking tables per populated suite tier and overall. Pure
/// and deterministic in `evals`, so equal inputs render byte-identical text.
pub fn render(evals: &[BenchmarkEvaluation]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "MCD controller tournament — {} benchmark(s), {} scheme(s)\n\n",
        evals.len(),
        scheme_columns(evals).len()
    ));
    out.push_str(&metric_table(
        "== Slowdown (performance degradation vs MCD baseline) ==",
        evals,
        Metric::Slowdown,
    ));
    out.push('\n');
    out.push_str(&metric_table(
        "== Energy savings vs MCD baseline ==",
        evals,
        Metric::EnergySavings,
    ));
    out.push('\n');
    out.push_str(&metric_table(
        "== Energy-delay improvement vs MCD baseline ==",
        evals,
        Metric::EnergyDelay,
    ));
    out.push('\n');
    for (kind, title) in [
        (Tier::Paper, "== Ranking: paper tier =="),
        (Tier::Server, "== Ranking: server tier =="),
        (Tier::Interactive, "== Ranking: interactive tier =="),
    ] {
        let tier: Vec<BenchmarkEvaluation> = evals
            .iter()
            .filter(|e| tier_of(&e.name) == Some(kind))
            .cloned()
            .collect();
        if tier.is_empty() {
            continue;
        }
        out.push_str(&ranking_table(title, &tier));
        out.push('\n');
    }
    out.push_str(&ranking_table("== Ranking: overall ==", evals));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_dvfs::evaluation::SchemeResult;
    use mcd_dvfs::scheme::SchemeOutcome;
    use mcd_sim::stats::{RelativeMetrics, SimStats};

    fn eval_with(bench: &str, schemes: &[(&str, f64)]) -> BenchmarkEvaluation {
        BenchmarkEvaluation {
            name: bench.to_string(),
            baseline: SimStats::default(),
            schemes: schemes
                .iter()
                .map(|(name, ed)| SchemeOutcome {
                    name: name.to_string(),
                    label: name.to_string(),
                    result: SchemeResult {
                        stats: SimStats::default(),
                        metrics: RelativeMetrics {
                            performance_degradation: 0.05,
                            energy_savings: 0.2,
                            energy_delay_improvement: *ed,
                        },
                    },
                })
                .collect(),
        }
    }

    #[test]
    fn ranking_orders_by_mean_energy_delay_with_name_tiebreak() {
        let evals = vec![
            eval_with("adpcm decode", &[("online", 0.10), ("pid", 0.30)]),
            eval_with("mcf", &[("online", 0.20), ("pid", 0.20)]),
        ];
        let ranked = ranking(&evals);
        assert_eq!(ranked[0].name, "pid");
        assert!((ranked[0].energy_delay - 0.25).abs() < 1e-12);
        assert_eq!(ranked[1].name, "online");
        // Exact tie ranks alphabetically.
        let tied = vec![eval_with("mcf", &[("b", 0.1), ("a", 0.1)])];
        let ranked = ranking(&tied);
        assert_eq!(ranked[0].name, "a");
        assert_eq!(ranked[1].name, "b");
    }

    #[test]
    fn render_is_deterministic_and_covers_every_tier_present() {
        let evals = vec![
            eval_with("adpcm decode", &[("online", 0.1)]),
            eval_with("web serve", &[("online", 0.2)]),
            eval_with("sensor hub", &[("online", 0.3)]),
        ];
        let a = render(&evals);
        let b = render(&evals);
        assert_eq!(a, b, "render must be pure");
        assert!(a.contains("== Ranking: paper tier =="));
        assert!(a.contains("== Ranking: server tier =="));
        assert!(a.contains("== Ranking: interactive tier =="));
        assert!(a.contains("== Ranking: overall =="));
        // A paper-tier-only panel renders no empty tier sections.
        let paper_only = render(&[eval_with("mcf", &[("online", 0.1)])]);
        assert!(!paper_only.contains("server tier"));
        assert!(!paper_only.contains("interactive tier"));
    }

    #[test]
    fn schemes_missing_from_a_row_do_not_poison_the_aggregates() {
        let evals = vec![
            eval_with("adpcm decode", &[("online", 0.1), ("pid", 0.4)]),
            eval_with("mcf", &[("online", 0.2)]),
        ];
        let ranked = ranking(&evals);
        let pid = ranked.iter().find(|a| a.name == "pid").expect("pid ranked");
        assert_eq!(pid.covered, 1);
        assert!((pid.energy_delay - 0.4).abs() < 1e-12);
        let online = ranked.iter().find(|a| a.name == "online").unwrap();
        assert_eq!(online.covered, 2);
    }
}
