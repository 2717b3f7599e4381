//! Figure 13 (extension, not in the paper): all four reconfiguration schemes
//! on the second workload tier — the server-style request-loop and
//! bursty/interactive benchmarks.
//!
//! The paper evaluates only batch programs; this figure asks whether the
//! schemes' relative ranking survives request-loop and idle–burst phase
//! structure. Defaults to the whole second tier (`--suite tier2`); use
//! `--suite server` or `--suite interactive` for one half, or `--suite all`
//! to put the paper's benchmarks alongside. `--quick` keeps all six
//! second-tier benchmarks (the tier is already small).

use mcd_bench::{
    default_config, evaluate_all, metric_table, run_main, selected_benchmarks, Metric, Options,
    SuiteSelection,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    run_main(|| {
        let options = Options::parse()?;
        let benches = selected_benchmarks(&options, SuiteSelection::Tier2)?;
        let config = default_config(&options, true);
        let evals = evaluate_all(&benches, &config)?;
        for (title, metric) in [
            (
                "Figure 13a. Server/interactive tier: performance degradation \
                 (relative to the MCD baseline).",
                Metric::Slowdown,
            ),
            (
                "Figure 13b. Server/interactive tier: energy savings.",
                Metric::EnergySavings,
            ),
            (
                "Figure 13c. Server/interactive tier: energy-delay improvement.",
                Metric::EnergyDelay,
            ),
        ] {
            println!("{}", metric_table(title, &evals, metric));
        }
        Ok(())
    })
}
