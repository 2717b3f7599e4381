//! Context sensitivity: compare the six definitions of calling context
//! (L+F+C+P … F) on a benchmark whose training and reference inputs exercise
//! different code paths (mpeg2 decode), reproducing the effect behind
//! Figures 8 and 9 for a single benchmark.
//!
//! The six policies are six jobs on one [`Evaluator`], each restricted to the
//! profile scheme; the reference trace is produced once and shared by all
//! six, and so is the baseline once the first pass has stored it.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example context_sensitivity
//! ```

use mcd_dvfs::error::{find_benchmark, run_main, McdError};
use mcd_dvfs::scheme::names;
use mcd_dvfs::service::{EvalJob, Evaluator};
use mcd_profiling::context::ContextPolicy;
use std::process::ExitCode;

fn run() -> Result<(), McdError> {
    let bench = find_benchmark("mpeg2 decode")?;

    let evaluator = Evaluator::builder().parallelism(2).build();
    let stream = evaluator.submit_all(
        ContextPolicy::ALL
            .iter()
            .map(|&policy| {
                EvalJob::new(bench.clone())
                    .with_policy(policy)
                    .with_schemes([names::PROFILE])
            })
            .collect(),
    );

    println!("context sensitivity on `{}`", bench.name);
    println!(
        "(the reference clip contains B-frames the training clip never decodes, so \
         path-tracking policies refuse to reconfigure on those unseen paths)"
    );
    println!();
    println!(
        "{:<10} {:>14} {:>16} {:>22} {:>14}",
        "policy", "slowdown", "energy savings", "energy-delay improv.", "reconfigs"
    );
    println!("{}", "-".repeat(80));

    for (policy, eval) in ContextPolicy::ALL.iter().zip(stream.collect()?) {
        let result = eval.require(names::PROFILE)?;
        println!(
            "{:<10} {:>13.1}% {:>15.1}% {:>21.1}% {:>14}",
            policy.abbreviation(),
            result.metrics.degradation_percent(),
            result.metrics.energy_savings_percent(),
            result.metrics.energy_delay_percent(),
            result.stats.reconfigurations,
        );
    }

    let memo = evaluator.memo_stats();
    println!();
    println!(
        "memo: reference trace produced {} time(s), reused {} time(s); \
         baseline computed {} time(s)",
        memo.misses,
        memo.hits,
        evaluator.batch_stats().baselines_computed
    );
    println!(
        "The L+F and F rows reconfigure whenever a long-running static structure is \
         entered — even over paths unseen in training — which yields higher energy \
         savings (and slightly higher slowdown) than the path-tracking policies, \
         exactly the behaviour the paper reports for mpeg2 decode."
    );
    Ok(())
}

fn main() -> ExitCode {
    run_main(run)
}
