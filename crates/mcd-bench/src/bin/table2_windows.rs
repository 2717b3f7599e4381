//! Table 2: instruction windows simulated for the training and reference
//! input sets of every benchmark (scaled-down equivalents of the paper's
//! windows; the README's workload section describes how they were scaled).

use mcd_bench::format;
use mcd_workloads::suite::suite;

fn main() {
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
}
