//! Checks shared by the integration tests.

use mcd_dvfs::evaluation::BenchmarkEvaluation;
use mcd_sim::stats::SimStats;
use mcd_sim::{Domain, MachineConfig};

/// Asserts the conservation laws every finished run obeys on `machine`:
///
/// * `total_energy` is bit-equal to the sum of `domain_energy` in
///   [`Domain::ALL`] order (the order the simulator's energy account sums
///   in);
/// * no more branch mispredictions than branches, and no more L1D or L2
///   misses than accesses;
/// * no more instructions than the machine can retire at full speed:
///   `retire_width` per cycle at the grid's top frequency over the run time.
pub fn check_stats(stats: &SimStats, machine: &MachineConfig) {
    let mut domain_sum = 0.0;
    for d in Domain::ALL {
        domain_sum += stats.domain_energy[d];
    }
    assert_eq!(
        stats.total_energy.as_units().to_bits(),
        domain_sum.to_bits(),
        "total energy {} is not the sum of the domain energies {domain_sum}",
        stats.total_energy.as_units()
    );
    for (what, part, whole) in [
        (
            "branch mispredicts",
            stats.branch_mispredicts,
            stats.branches,
        ),
        ("L1D misses", stats.l1d_misses, stats.l1d_accesses),
        ("L2 misses", stats.l2_misses, stats.l2_accesses),
    ] {
        assert!(part <= whole, "{what} {part} exceed their total {whole}");
    }
    let peak_per_ns = f64::from(machine.retire_width) * machine.grid.max().as_mhz() / 1e3;
    assert!(
        stats.instructions as f64 <= peak_per_ns * stats.run_time.as_ns(),
        "{} instructions retired in {} ns, above the peak of {peak_per_ns} per ns",
        stats.instructions,
        stats.run_time.as_ns()
    );
}

/// [`check_stats`] on an evaluation's baseline and every scheme outcome.
pub fn check_evaluation(eval: &BenchmarkEvaluation, machine: &MachineConfig) {
    check_stats(&eval.baseline, machine);
    for outcome in &eval.schemes {
        check_stats(&outcome.result.stats, machine);
    }
}
