//! Quickstart: train the profile-driven DVFS mechanism on one benchmark's
//! training input and evaluate it on the reference input.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mcd_dvfs::error::{find_benchmark, run_main, McdError};
use mcd_dvfs::profile::{train, TrainingConfig};
use mcd_sim::config::MachineConfig;
use mcd_sim::domain::Domain;
use mcd_sim::simulator::{NullHooks, Simulator};
use mcd_sim::stats::RelativeMetrics;
use mcd_workloads::generator::generate_trace;
use std::process::ExitCode;

fn run() -> Result<(), McdError> {
    // 1. Pick a benchmark from the suite (the MediaBench ADPCM decoder).
    let bench = find_benchmark("adpcm decode")?;
    let machine = MachineConfig::default();

    // 2. Train on the small training input: profile, build the call tree, pick
    //    long-running nodes, shake their dependence DAGs and choose per-node
    //    frequencies for every clock domain.
    let plan = train(
        &bench.program,
        &bench.inputs.training,
        &machine,
        &TrainingConfig::default(),
    );
    println!("trained `{}`:", bench.name);
    println!(
        "  reconfiguration points: {}",
        plan.instrumentation.static_reconfiguration_points()
    );
    println!("  frequency-table entries: {}", plan.table.len());
    for (key, setting) in plan.table.iter() {
        println!(
            "  {:?}: front-end {:.0} MHz, integer {:.0} MHz, FP {:.0} MHz, memory {:.0} MHz",
            key,
            setting.get(Domain::FrontEnd).as_mhz(),
            setting.get(Domain::Integer).as_mhz(),
            setting.get(Domain::FloatingPoint).as_mhz(),
            setting.get(Domain::Memory).as_mhz(),
        );
    }

    // 3. Run the (larger) reference input twice: once at full speed (the MCD
    //    baseline) and once under profile-driven reconfiguration.
    let reference = generate_trace(&bench.program, &bench.inputs.reference);
    let simulator = Simulator::new(machine);
    let baseline = simulator
        .run(reference.iter().copied(), &mut NullHooks, false)
        .stats;
    let mut hooks = plan.hooks();
    let controlled = simulator
        .run(reference.iter().copied(), &mut hooks, false)
        .stats;

    // 4. Report the paper's metrics.
    let metrics = RelativeMetrics::relative_to(&controlled, &baseline);
    println!();
    println!("reference run ({} instructions):", baseline.instructions);
    println!(
        "  performance degradation:  {:.1}%",
        metrics.degradation_percent()
    );
    println!(
        "  energy savings:           {:.1}%",
        metrics.energy_savings_percent()
    );
    println!(
        "  energy-delay improvement: {:.1}%",
        metrics.energy_delay_percent()
    );
    println!(
        "  register writes:          {}",
        controlled.reconfigurations
    );
    Ok(())
}

fn main() -> ExitCode {
    run_main(run)
}
