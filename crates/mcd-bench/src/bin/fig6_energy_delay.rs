//! Figure 6: energy×delay improvement of every registered reconfiguration
//! scheme relative to the MCD baseline.
//!
//! Run with `--quick` to evaluate a six-benchmark subset.

use mcd_bench::{metric_figure, run_main, Metric, Options};
use std::process::ExitCode;

fn main() -> ExitCode {
    run_main(|| {
        metric_figure(
            "Figure 6. Energy-delay improvement results (relative to the MCD baseline).",
            Metric::EnergyDelay,
            &Options::parse()?,
        )
    })
}
