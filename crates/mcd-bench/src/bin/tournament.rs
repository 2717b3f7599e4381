//! The controller tournament: every registered scheme (the paper's four plus
//! the controller zoo) across every selected suite tier, through one batched
//! `Evaluator`, reported as metric matrices plus per-tier and overall
//! rankings.
//!
//! ```text
//! tournament [--quick] [--suite <paper|server|interactive|tier2|all>]
//!            [--jobs N] [--no-cache]
//! ```
//!
//! Defaults to `--suite all` (paper + server + interactive); `--quick` keeps
//! the representative paper subset plus the whole second tier. The report
//! goes to stdout; cache (`mcd-cache: ...`) and batch (`mcd-batch: ...`)
//! counters go to stderr for the CI cold/warm smoke.

use mcd_bench::{
    default_config, evaluate_all, report_cache, run_main, selected_benchmarks, tournament, Options,
    SuiteSelection,
};
use std::process::ExitCode;

fn main() -> ExitCode {
    run_main(|| {
        let options = Options::parse()?;
        let benches = selected_benchmarks(&options, SuiteSelection::All)?;
        let mut config = default_config(&options, true);
        config.include_zoo = true;
        let evals = evaluate_all(&benches, &config)?;
        print!("{}", tournament::render(&evals));
        report_cache();
        Ok(())
    })
}
