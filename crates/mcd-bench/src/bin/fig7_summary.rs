//! Figure 7: minimum, maximum and average slowdown, energy savings and
//! energy×delay improvement across the suite, for every scheme in the
//! registry (global DVS included).

use mcd_bench::{
    default_config, evaluate_all, run_main, scheme_columns, selected_benchmarks, Metric, Options,
    SuiteSelection,
};
use mcd_dvfs::evaluation::Summary;
use std::process::ExitCode;

fn main() -> ExitCode {
    run_main(|| {
        let options = Options::parse()?;
        let benches = selected_benchmarks(&options, SuiteSelection::Paper)?;
        let config = default_config(&options, true);
        let evals = evaluate_all(&benches, &config)?;

        println!("Figure 7. Minimum, maximum and average slowdown, energy savings and");
        println!("energy-delay improvement (percent, relative to the MCD baseline).");
        println!();
        println!("{:<26} {:>8} {:>8} {:>8}", "series", "min", "avg", "max");
        println!("{}", "-".repeat(54));

        let columns = scheme_columns(&evals);

        for (series, metric) in [
            ("slowdown", Metric::Slowdown),
            ("energy", Metric::EnergySavings),
            ("energy-delay", Metric::EnergyDelay),
        ] {
            for (name, label) in &columns {
                let values: Vec<f64> = evals
                    .iter()
                    .filter_map(|e| e.result(name).map(|r| metric.of(&r.metrics)))
                    .collect();
                let s = Summary::of(&values);
                println!(
                    "{:<26} {:>7.1}% {:>7.1}% {:>7.1}%",
                    format!("{series}: {label}"),
                    s.min * 100.0,
                    s.mean * 100.0,
                    s.max * 100.0
                );
            }
        }
        Ok(())
    })
}
