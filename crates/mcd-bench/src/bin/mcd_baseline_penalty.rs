//! The MCD processor's inherent penalty relative to a globally synchronous
//! processor (Section 4.1 of the paper reports approximately 1.3% performance
//! and 0.8% energy, with maxima of 3.6% / 2.1%).

use mcd_bench::{run_main, selected_benchmarks, Options, SuiteSelection};
use mcd_dvfs::evaluation::mcd_baseline_penalty;
use mcd_dvfs::evaluation::Summary;
use mcd_sim::config::MachineConfig;
use std::process::ExitCode;

fn main() -> ExitCode {
    run_main(|| {
        let benches = selected_benchmarks(&Options::parse()?, SuiteSelection::Paper)?;
        let machine = MachineConfig::default();

        println!(
            "Inherent MCD penalty versus a globally synchronous processor (both at full speed)."
        );
        println!();
        println!(
            "{:<16} {:>16} {:>14}",
            "Benchmark", "perf penalty", "energy penalty"
        );
        println!("{}", "-".repeat(50));
        let mut perf = Vec::new();
        let mut energy = Vec::new();
        for bench in &benches {
            let (p, e) = mcd_baseline_penalty(bench, &machine)?;
            println!(
                "{:<16} {:>15.2}% {:>13.2}%",
                bench.name,
                p * 100.0,
                e * 100.0
            );
            perf.push(p);
            energy.push(e);
        }
        println!();
        println!(
            "{:<16} {:>15.2}% {:>13.2}%",
            "average",
            Summary::of(&perf).mean * 100.0,
            Summary::of(&energy).mean * 100.0
        );
        println!(
            "{:<16} {:>15.2}% {:>13.2}%",
            "maximum",
            perf.iter().copied().fold(f64::MIN, f64::max) * 100.0,
            energy.iter().copied().fold(f64::MIN, f64::max) * 100.0
        );
        Ok(())
    })
}
