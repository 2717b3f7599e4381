//! Table 3: number of long-running (reconfiguration) nodes and total call-tree
//! nodes when profiling with the training versus the reference input, the
//! nodes common to both, and the coverage fractions — under the most
//! aggressive context definition (L+F+C+P).
//!
//! Defaults to the paper's nineteen benchmarks; `--quick` and `--suite`
//! select benchmarks as in every other binary.

use mcd_bench::{run_main, selected_benchmarks, Options, SuiteSelection};
use mcd_dvfs::profile::{instrumentation_plan, TrainingConfig};
use mcd_profiling::context::ContextPolicy;
use mcd_profiling::coverage::CoverageReport;
use mcd_workloads::generator::generate_packed;
use std::process::ExitCode;

fn main() -> ExitCode {
    run_main(|| {
        let benches = selected_benchmarks(&Options::parse()?, SuiteSelection::Paper)?;
        let config = TrainingConfig {
            policy: ContextPolicy::LoopFuncSitePath,
            ..TrainingConfig::default()
        };

        println!("Table 3. Reconfiguration nodes / total call-tree nodes when profiling with");
        println!("the training and reference input sets (L+F+C+P).");
        println!();
        println!(
            "{:<16} {:>12} {:>12} {:>12} {:>14}",
            "Benchmark", "TRAIN", "REF", "Common", "Coverage"
        );
        println!("{}", "-".repeat(72));

        for bench in &benches {
            let train = instrumentation_plan(
                &generate_packed(&bench.program, &bench.inputs.training),
                &config,
            );
            let reference = instrumentation_plan(
                &generate_packed(&bench.program, &bench.inputs.reference),
                &config,
            );
            let report = CoverageReport::compare(
                train.tree(),
                train.long_running(),
                reference.tree(),
                reference.long_running(),
            );
            println!(
                "{:<16} {:>5} {:>5} {:>6} {:>5} {:>6} {:>5} {:>7.2} {:>6.2}",
                bench.name,
                report.train_long_running,
                report.train_total,
                report.reference_long_running,
                report.reference_total,
                report.common_long_running,
                report.common_total,
                report.long_running_coverage(),
                report.total_coverage(),
            );
        }
        Ok(())
    })
}
