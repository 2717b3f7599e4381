//! Figure 5: energy savings of every registered reconfiguration scheme
//! relative to the baseline MCD processor.
//!
//! Run with `--quick` to evaluate a six-benchmark subset.

use mcd_bench::{metric_figure, run_main, Metric, Options};
use std::process::ExitCode;

fn main() -> ExitCode {
    run_main(|| {
        metric_figure(
            "Figure 5. Energy savings results (relative to the MCD baseline).",
            Metric::EnergySavings,
            &Options::parse()?,
        )
    })
}
