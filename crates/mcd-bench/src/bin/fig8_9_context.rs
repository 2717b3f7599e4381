//! Figures 8 and 9: sensitivity of performance degradation and energy savings
//! to the definition of calling context, for the benchmarks where the choice
//! makes a visible difference (mpeg2 decode, epic encode, plus the loop-heavy
//! applu and art).
//!
//! One [`Evaluator`] serves the whole study: each (benchmark, policy) point
//! is a job restricted to the profile scheme, and each benchmark's six
//! policy jobs form one batched group ([`EvalJob::batch`]), so the group
//! shares one reference trace and one baseline lane.

use mcd_bench::{
    default_config, format, report_batch, report_cache, run_main, Options, SuiteSelection,
};
use mcd_dvfs::error::find_benchmark;
use mcd_dvfs::scheme::names;
use mcd_dvfs::service::{EvalJob, Evaluator};
use mcd_profiling::context::ContextPolicy;
use std::process::ExitCode;

fn main() -> ExitCode {
    run_main(|| {
        let options = Options::parse()?;
        // This study runs a fixed benchmark list (the programs where the
        // context policy visibly matters), so a tier selection cannot apply;
        // still validate the value, and say so instead of silently ignoring.
        options.suite_selection(SuiteSelection::Paper)?;
        if options.suite.is_some() {
            eprintln!("  note: --suite/MCD_SUITE ignored — this study uses a fixed benchmark list");
        }
        let bench_names = [
            "mpeg2 decode",
            "epic encode",
            "applu",
            "art",
            "adpcm decode",
            "gsm decode",
        ];
        let policies = ContextPolicy::ALL;

        let evaluator = Evaluator::builder()
            .config(default_config(&options, false))
            .build();
        // One batch per benchmark (a printed row), all submitted up front.
        let mut rows = Vec::new();
        for name in bench_names {
            let bench = find_benchmark(name)?;
            let jobs = policies
                .iter()
                .map(|&policy| {
                    EvalJob::new(bench.clone())
                        .with_policy(policy)
                        .with_schemes([names::PROFILE])
                })
                .collect();
            rows.push((bench.name, evaluator.submit_batch(EvalJob::batch(jobs)?)));
        }

        println!("Figures 8 and 9. Sensitivity to the definition of calling context.");
        println!("(performance degradation / energy savings per policy)");
        println!();
        let mut cols: Vec<(&str, usize)> = vec![("Benchmark", 16)];
        for p in &policies {
            cols.push((p.abbreviation(), 15));
        }
        print!("{}", format::header(&cols));

        for (name, stream) in rows {
            let evals = stream.collect()?;
            print!("{name:>16}");
            for eval in &evals {
                let metrics = eval.metrics(names::PROFILE)?;
                print!(
                    "  {:>5.1}%/{:>5.1}%",
                    metrics.performance_degradation * 100.0,
                    metrics.energy_savings * 100.0
                );
            }
            println!();
        }
        report_batch(&evaluator);
        report_cache();
        Ok(())
    })
}
