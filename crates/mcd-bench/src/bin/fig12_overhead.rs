//! Figure 12: number of static reconfiguration and instrumentation points, and
//! run-time instrumentation overhead, for each context policy, normalized to
//! L+F+C+P (averaged across the suite).

use mcd_bench::{
    full_speed_stats, replay_instrumentation, run_main, selected_benchmarks, Options,
    SuiteSelection,
};
use mcd_dvfs::evaluation::Summary;
use mcd_dvfs::profile::{instrumentation_plan, TrainingConfig};
use mcd_profiling::context::ContextPolicy;
use mcd_sim::config::MachineConfig;
use mcd_workloads::generator::generate_packed;
use std::process::ExitCode;

fn main() -> ExitCode {
    run_main(run)
}

fn run() -> Result<(), mcd_dvfs::error::McdError> {
    let benches = selected_benchmarks(&Options::parse()?, SuiteSelection::Paper)?;
    let machine = MachineConfig::default();
    let policies = ContextPolicy::ALL;

    // Per policy: averaged static reconfig points, static instrumentation
    // points, and run-time overhead fraction.
    let mut reconfig_points = vec![Vec::new(); policies.len()];
    let mut instr_points = vec![Vec::new(); policies.len()];
    let mut overheads = vec![Vec::new(); policies.len()];

    for bench in &benches {
        eprintln!("  analysing {} ...", bench.name);
        let training = generate_packed(&bench.program, &bench.inputs.training);
        let reference = generate_packed(&bench.program, &bench.inputs.reference);
        // Overhead is a fraction of the baseline run time (in 1 GHz cycles =
        // ns), which no policy changes.
        let baseline_ns = full_speed_stats(&reference, &machine).run_time.as_ns();
        for (pi, &policy) in policies.iter().enumerate() {
            let config = TrainingConfig {
                policy,
                ..TrainingConfig::default()
            };
            let plan = instrumentation_plan(&training, &config);
            reconfig_points[pi].push(plan.static_reconfiguration_points() as f64);
            instr_points[pi].push(plan.static_instrumentation_points() as f64);

            // Replay only the instrumentation over the reference input (no
            // reconfiguration), to isolate its cost exactly as the paper does.
            let tracker = replay_instrumentation(&plan, &reference);
            overheads[pi].push(tracker.overhead_cycles() / baseline_ns);
        }
    }

    println!("Figure 12. Static reconfiguration/instrumentation points and run-time");
    println!("overhead per context policy, normalized to L+F+C+P (suite average).");
    println!();
    println!(
        "{:<10} {:>16} {:>18} {:>16} {:>14}",
        "policy", "reconfig points", "instrum. points", "overhead (%)", "norm overhead"
    );
    println!("{}", "-".repeat(80));
    let mean = |values: &[f64]| Summary::of(values).mean;
    let base_overhead = mean(&overheads[0]).max(1e-12);
    for (pi, policy) in policies.iter().enumerate() {
        println!(
            "{:<10} {:>16.1} {:>18.1} {:>16.4} {:>14.3}",
            policy.abbreviation(),
            mean(&reconfig_points[pi]),
            mean(&instr_points[pi]),
            mean(&overheads[pi]) * 100.0,
            mean(&overheads[pi]) / base_overhead
        );
    }
    Ok(())
}
