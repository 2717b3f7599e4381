//! Table 4: static and dynamic reconfiguration/instrumentation points and the
//! estimated run-time overhead of the inserted code, for the L+F+C+P policy
//! (profiling on the training input, running on the reference input).
//!
//! Defaults to the paper's nineteen benchmarks; `--quick` and `--suite`
//! select benchmarks as in every other binary.

use mcd_bench::{
    full_speed_stats, replay_instrumentation, run_main, selected_benchmarks, Options,
    SuiteSelection,
};
use mcd_dvfs::profile::{instrumentation_plan, TrainingConfig};
use mcd_profiling::context::ContextPolicy;
use mcd_sim::config::MachineConfig;
use mcd_workloads::generator::generate_packed;
use std::process::ExitCode;

fn main() -> ExitCode {
    run_main(|| {
        let benches = selected_benchmarks(&Options::parse()?, SuiteSelection::Paper)?;
        let machine = MachineConfig::default();
        let config = TrainingConfig {
            policy: ContextPolicy::LoopFuncSitePath,
            ..TrainingConfig::default()
        };

        println!("Table 4. Static and dynamic reconfiguration and instrumentation points, and");
        println!("estimated run-time overhead for L+F+C+P.");
        println!();
        println!(
            "{:<16} {:>18} {:>22} {:>10} {:>12}",
            "Benchmark", "Static (rec/instr)", "Dynamic (rec/instr)", "Overhead", "Tables (KB)"
        );
        println!("{}", "-".repeat(84));

        for bench in &benches {
            let plan = instrumentation_plan(
                &generate_packed(&bench.program, &bench.inputs.training),
                &config,
            );
            let reference = generate_packed(&bench.program, &bench.inputs.reference);
            let tracker = replay_instrumentation(&plan, &reference);
            let baseline = full_speed_stats(&reference, &machine);
            let overhead_fraction = tracker.overhead_cycles() / baseline.run_time.as_ns();

            println!(
                "{:<16} {:>8} {:>9} {:>10} {:>11} {:>9.2}% {:>11.1}",
                bench.name,
                plan.static_reconfiguration_points(),
                plan.static_instrumentation_points(),
                tracker.dynamic_reconfigurations(),
                tracker.dynamic_instrumentations(),
                overhead_fraction * 100.0,
                plan.lookup_table_bytes() as f64 / 1024.0,
            );
        }
        Ok(())
    })
}
