//! Table 2: instruction windows simulated for the training and reference
//! input sets of every benchmark (scaled-down equivalents of the paper's
//! windows; the README's workload section describes how they were scaled).

use mcd_bench::{format, run_main, Options};
use mcd_workloads::suite::suite;
use std::process::ExitCode;

fn main() -> ExitCode {
    run_main(run)
}

fn run() -> Result<(), mcd_dvfs::error::McdError> {
    // The table always lists the whole suite; parsing still rejects a
    // misspelt flag.
    Options::parse()?;
    println!("Table 2. Instruction windows for the training and reference input sets.");
    println!();
    print!(
        "{}",
        format::header(&[("Benchmark", 16), ("Training", 28), ("Reference", 28)])
    );
    for bench in suite() {
        println!(
            "{:>16}  {:>28}  {:>28}",
            bench.name,
            bench.inputs.training.window_description(),
            bench.inputs.reference.window_description(),
        );
    }
    Ok(())
}
