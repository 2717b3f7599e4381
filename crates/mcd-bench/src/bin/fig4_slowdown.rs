//! Figure 4: performance degradation of every registered reconfiguration
//! scheme relative to the baseline MCD processor.
//!
//! Run with `--quick` to evaluate a six-benchmark subset.

use mcd_bench::{metric_figure, run_main, Metric, Options};
use std::process::ExitCode;

fn main() -> ExitCode {
    run_main(|| {
        metric_figure(
            "Figure 4. Performance degradation results (relative to the MCD baseline).",
            Metric::Slowdown,
            &Options::parse()?,
        )
    })
}
