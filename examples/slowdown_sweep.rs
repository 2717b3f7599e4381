//! Slowdown sweep: vary the tolerable-slowdown parameter d of the off-line
//! analysis and the profile-driven mechanism on a single benchmark, printing
//! the (achieved slowdown, energy savings, energy-delay improvement) series of
//! Figures 10 and 11.
//!
//! One [`Evaluator`] serves every sweep point: the benchmark's reference
//! trace is produced for the first job and reused by the other four, and so
//! is the full-speed baseline once a job's pass has stored it (two workers
//! starting together may both compute it; watch the memo line the example
//! prints).
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example slowdown_sweep [benchmark-name]
//! ```

use mcd_dvfs::error::{find_benchmark, run_main, McdError};
use mcd_dvfs::scheme::names;
use mcd_dvfs::service::{EvalJob, Evaluator};
use std::process::ExitCode;

fn run() -> Result<(), McdError> {
    let name = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "jpeg compress".to_string());
    let bench = find_benchmark(&name)?;
    let targets = [0.02, 0.04, 0.07, 0.10, 0.14];

    // Build the service once, then submit one job per sweep point. The jobs
    // only run the two schemes this table reads.
    let evaluator = Evaluator::builder().parallelism(2).build();
    let stream = evaluator.submit_all(
        targets
            .iter()
            .map(|&d| {
                EvalJob::new(bench.clone())
                    .with_slowdown(d)
                    .with_schemes([names::OFFLINE, names::PROFILE])
            })
            .collect(),
    );

    println!("slowdown sweep on `{}`", bench.name);
    println!();
    println!(
        "{:>6}  {:>24}  {:>26}",
        "d", "off-line (slow/save/ED)", "profile L+F (slow/save/ED)"
    );
    println!("{}", "-".repeat(62));

    for (&d, eval) in targets.iter().zip(stream.collect()?) {
        let offline = eval.metrics(names::OFFLINE)?;
        let profile = eval.metrics(names::PROFILE)?;
        println!(
            "{:>5.0}%  {:>7.1}%/{:>5.1}%/{:>5.1}%  {:>8.1}%/{:>5.1}%/{:>5.1}%",
            d * 100.0,
            offline.degradation_percent(),
            offline.energy_savings_percent(),
            offline.energy_delay_percent(),
            profile.degradation_percent(),
            profile.energy_savings_percent(),
            profile.energy_delay_percent(),
        );
    }

    let memo = evaluator.memo_stats();
    println!();
    println!(
        "memo: reference trace produced {} time(s), reused {} time(s) across {} jobs; \
         baseline computed {} time(s)",
        memo.misses,
        memo.hits,
        memo.lookups(),
        evaluator.batch_stats().baselines_computed
    );
    println!(
        "Energy savings and energy-delay improvement grow roughly linearly with the \
         slowdown target for both off-line and profile-based reconfiguration; the \
         profile-based series tracks the oracle closely."
    );
    Ok(())
}

fn main() -> ExitCode {
    run_main(run)
}
