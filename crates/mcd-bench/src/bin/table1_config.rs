//! Table 1: the SimpleScalar-style machine configuration of the simulated MCD
//! processor.

use mcd_bench::{run_main, Options};
use mcd_sim::config::MachineConfig;
use std::process::ExitCode;

fn main() -> ExitCode {
    run_main(run)
}

fn run() -> Result<(), mcd_dvfs::error::McdError> {
    // The table has no selection; parsing still rejects a misspelt flag.
    Options::parse()?;
    println!("Table 1. Simulator configuration.");
    println!();
    let cfg = MachineConfig::default();
    for (name, value) in cfg.table1_rows() {
        println!("{name:<42} {value}");
    }
    Ok(())
}
