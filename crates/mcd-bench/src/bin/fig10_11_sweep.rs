//! Figures 10 and 11: energy savings and energy×delay improvement versus
//! achieved slowdown for the on-line, off-line and profile-based (L+F)
//! algorithms, produced by sweeping the slowdown threshold (off-line and
//! profile) and the controller aggressiveness (on-line).
//!
//! This sweep is the evaluation service's showcase: per benchmark the whole
//! parameter series is submitted as one *batched job group*
//! ([`EvalJob::batch`]), so the benchmark's reference trace and full-speed
//! baseline are paid for once per batch, the threshold series re-derives
//! every slowdown point from a single capture/shaker pass, and each scheme
//! replays all points as parallel lanes of one fused trace pass.
//! The printed figures are bit-identical to submitting every job
//! independently — only the wall clock (and the stderr statistics) differ.

use mcd_bench::{
    default_config, report_metrics, run_main, selected_benchmarks, Options, SuiteSelection,
};
use mcd_dvfs::evaluation::{BenchmarkEvaluation, Summary};
use mcd_dvfs::online::OnlineConfig;
use mcd_dvfs::scheme::names;
use mcd_dvfs::service::{EvalJob, Evaluator, ResultStream};
use mcd_workloads::suite::Benchmark;
use std::process::ExitCode;

fn scheme_means(evals: &[&BenchmarkEvaluation], scheme: &str) -> (f64, f64, f64) {
    let collect = |f: &dyn Fn(&BenchmarkEvaluation) -> Option<f64>| -> f64 {
        Summary::of(&evals.iter().filter_map(|e| f(e)).collect::<Vec<_>>()).mean
    };
    (
        collect(&|e| Some(e.result(scheme)?.metrics.performance_degradation)),
        collect(&|e| Some(e.result(scheme)?.metrics.energy_savings)),
        collect(&|e| Some(e.result(scheme)?.metrics.energy_delay_improvement)),
    )
}

fn print_row(series: &str, parameter: &str, means: (f64, f64, f64)) {
    println!(
        "{:<12} {:>12} {:>16.1} {:>16.1} {:>22.1}",
        series,
        parameter,
        means.0 * 100.0,
        means.1 * 100.0,
        means.2 * 100.0
    );
}

fn main() -> ExitCode {
    run_main(|| {
        let options = Options::parse()?;
        // The sweep multiplies run time by the number of points, so it always
        // uses a compact subset unless --full is given explicitly; --suite
        // picks the tier the sweep (and its subset rule) applies to.
        let subset = Options {
            quick: !options.full || options.quick,
            ..options.clone()
        };
        let benches = selected_benchmarks(&subset, SuiteSelection::Paper)?;

        let slowdown_targets = [0.02, 0.04, 0.07, 0.10, 0.14];
        let online_decays = [2.0, 6.0, 12.0, 25.0, 50.0];

        // One service for the whole sweep: shared baselines, shared cache
        // (installed by default_config), one worker pool. The base config's
        // slowdown/online values are irrelevant — every job overrides the
        // parameter its series sweeps.
        let evaluator = Evaluator::builder()
            .config(default_config(&options, false))
            .build();

        // One batched group per (benchmark, series): a batch spans one
        // benchmark, so the series axis runs *inside* the batch — five
        // slowdown (or decay) points as lanes of shared trace passes. All
        // groups are submitted up front; workers chew through them in
        // parallel.
        let threshold_groups: Vec<ResultStream> = benches
            .iter()
            .map(|b: &Benchmark| {
                let jobs = slowdown_targets
                    .iter()
                    .map(|&d| {
                        EvalJob::new(b.clone())
                            .with_slowdown(d)
                            .with_schemes([names::OFFLINE, names::PROFILE])
                    })
                    .collect();
                Ok(evaluator.submit_batch(EvalJob::batch(jobs)?))
            })
            .collect::<Result<_, mcd_dvfs::error::McdError>>()?;
        let decay_groups: Vec<ResultStream> = benches
            .iter()
            .map(|b: &Benchmark| {
                let jobs = online_decays
                    .iter()
                    .map(|&decay| {
                        EvalJob::new(b.clone())
                            .with_online(OnlineConfig {
                                decay_mhz: decay,
                                ..OnlineConfig::default()
                            })
                            .with_schemes([names::ONLINE])
                    })
                    .collect();
                Ok(evaluator.submit_batch(EvalJob::batch(jobs)?))
            })
            .collect::<Result<_, mcd_dvfs::error::McdError>>()?;

        println!("Figures 10 and 11. Energy savings and energy-delay improvement vs. slowdown.");
        println!();
        println!(
            "{:<12} {:>12} {:>16} {:>16} {:>22}",
            "series", "parameter", "slowdown (%)", "energy save (%)", "energy-delay impr (%)"
        );
        println!("{}", "-".repeat(84));

        // Each group's stream yields its benchmark's evaluations in point
        // order; regroup by point to print the same per-point suite means as
        // ever.
        let collect_groups = |groups: Vec<ResultStream>| -> Result<
            Vec<Vec<BenchmarkEvaluation>>,
            mcd_dvfs::error::McdError,
        > {
            groups
                .into_iter()
                .zip(&benches)
                .map(|(stream, b)| {
                    eprintln!("  collecting {} ...", b.name);
                    stream.collect()
                })
                .collect()
        };

        // Off-line and profile-based: sweep the slowdown threshold d.
        let per_bench = collect_groups(threshold_groups)?;
        for (pi, &d) in slowdown_targets.iter().enumerate() {
            let evals: Vec<&BenchmarkEvaluation> = per_bench.iter().map(|e| &e[pi]).collect();
            let label = format!("d={:.0}%", d * 100.0);
            print_row("off-line", &label, scheme_means(&evals, names::OFFLINE));
            print_row("L+F", &label, scheme_means(&evals, names::PROFILE));
        }

        // On-line: sweep the decay rate (more aggressive decay = more slowdown).
        let per_bench = collect_groups(decay_groups)?;
        for (pi, &decay) in online_decays.iter().enumerate() {
            let evals: Vec<&BenchmarkEvaluation> = per_bench.iter().map(|e| &e[pi]).collect();
            print_row(
                "on-line",
                &format!("decay={decay}"),
                scheme_means(&evals, names::ONLINE),
            );
        }

        report_metrics(&evaluator);
        Ok(())
    })
}
