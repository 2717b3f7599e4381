//! The benchmark registry: the nineteen MediaBench and SPEC CPU2000 programs
//! the paper evaluates (the *batch* tier), plus the second-tier server and
//! interactive workloads, with their training and reference inputs.
//!
//! Benchmarks are organized in tiers by [`SuiteKind`]. [`suite`] keeps
//! returning exactly the paper's nineteen batch programs (every figure
//! binary's default); [`server_suite`] returns the second tier, and
//! [`full_suite`] both. All tiers share one namespace, one static table of
//! names, tiers and constructors: every lookup filters the table first and
//! builds only the programs it returns, and [`benchmark`] looks names up
//! (case-insensitively) across every tier.

use crate::input::InputPair;
use crate::program::Program;
use crate::programs;

/// Which suite a benchmark comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SuiteKind {
    /// MediaBench multimedia kernels.
    MediaBench,
    /// SPEC CPU2000 integer benchmarks.
    SpecInt,
    /// SPEC CPU2000 floating-point benchmarks.
    SpecFp,
    /// Second tier: server-style request-loop programs.
    Server,
    /// Second tier: bursty/interactive duty-cycle programs.
    Interactive,
}

impl SuiteKind {
    /// Every tier, in registry order.
    pub const ALL: [SuiteKind; 5] = [
        SuiteKind::MediaBench,
        SuiteKind::SpecInt,
        SuiteKind::SpecFp,
        SuiteKind::Server,
        SuiteKind::Interactive,
    ];

    /// Whether this tier is part of the paper's original nineteen-benchmark
    /// batch evaluation.
    pub fn is_batch(self) -> bool {
        matches!(
            self,
            SuiteKind::MediaBench | SuiteKind::SpecInt | SuiteKind::SpecFp
        )
    }
}

impl std::fmt::Display for SuiteKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SuiteKind::MediaBench => f.write_str("MediaBench"),
            SuiteKind::SpecInt => f.write_str("SPEC CINT2000"),
            SuiteKind::SpecFp => f.write_str("SPEC CFP2000"),
            SuiteKind::Server => f.write_str("Server"),
            SuiteKind::Interactive => f.write_str("Interactive"),
        }
    }
}

/// One benchmark: its program model and input pair.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Benchmark name as the paper spells it (e.g. `"adpcm decode"`).
    pub name: &'static str,
    /// The suite the benchmark belongs to.
    pub suite: SuiteKind,
    /// The structural program model.
    pub program: Program,
    /// Training and reference inputs.
    pub inputs: InputPair,
}

/// One registry row: a benchmark's name, tier and constructor.
type Entry = (&'static str, SuiteKind, fn() -> (Program, InputPair));

/// Every benchmark of every tier, in registry order: the paper's nineteen in
/// the order its tables list them, then the second tier. Names are lowercase
/// ASCII and unique across tiers (checked by the unit tests).
const REGISTRY: [Entry; 25] = [
    (
        "adpcm decode",
        SuiteKind::MediaBench,
        programs::adpcm::decode,
    ),
    (
        "adpcm encode",
        SuiteKind::MediaBench,
        programs::adpcm::encode,
    ),
    ("epic decode", SuiteKind::MediaBench, programs::epic::decode),
    ("epic encode", SuiteKind::MediaBench, programs::epic::encode),
    ("g721 decode", SuiteKind::MediaBench, programs::g721::decode),
    ("g721 encode", SuiteKind::MediaBench, programs::g721::encode),
    ("gsm decode", SuiteKind::MediaBench, programs::gsm::decode),
    ("gsm encode", SuiteKind::MediaBench, programs::gsm::encode),
    (
        "jpeg compress",
        SuiteKind::MediaBench,
        programs::jpeg::compress,
    ),
    (
        "jpeg decompress",
        SuiteKind::MediaBench,
        programs::jpeg::decompress,
    ),
    (
        "mpeg2 decode",
        SuiteKind::MediaBench,
        programs::mpeg2::decode,
    ),
    (
        "mpeg2 encode",
        SuiteKind::MediaBench,
        programs::mpeg2::encode,
    ),
    ("gzip", SuiteKind::SpecInt, programs::gzip::gzip),
    ("vpr", SuiteKind::SpecInt, programs::vpr::vpr),
    ("mcf", SuiteKind::SpecInt, programs::mcf::mcf),
    ("swim", SuiteKind::SpecFp, programs::swim::swim),
    ("applu", SuiteKind::SpecFp, programs::applu::applu),
    ("art", SuiteKind::SpecFp, programs::art::art),
    ("equake", SuiteKind::SpecFp, programs::equake::equake),
    ("web serve", SuiteKind::Server, programs::server::web_serve),
    ("kv store", SuiteKind::Server, programs::server::kv_store),
    (
        "media relay",
        SuiteKind::Server,
        programs::server::media_relay,
    ),
    (
        "photo edit",
        SuiteKind::Interactive,
        programs::interactive::photo_edit,
    ),
    (
        "sensor hub",
        SuiteKind::Interactive,
        programs::interactive::sensor_hub,
    ),
    (
        "speech wake",
        SuiteKind::Interactive,
        programs::interactive::speech_wake,
    ),
];

impl Benchmark {
    fn build(&(name, suite, construct): &Entry) -> Self {
        let (program, inputs) = construct();
        Benchmark {
            name,
            suite,
            program,
            inputs,
        }
    }
}

/// The benchmarks whose name and tier satisfy `keep`, in registry order.
/// Only the selected programs are constructed.
pub fn select(keep: impl Fn(&str, SuiteKind) -> bool) -> Vec<Benchmark> {
    REGISTRY
        .iter()
        .filter(|(name, kind, _)| keep(name, *kind))
        .map(Benchmark::build)
        .collect()
}

/// The paper's nineteen batch benchmarks, in the order its tables list them.
pub fn suite() -> Vec<Benchmark> {
    select(|_, kind| kind.is_batch())
}

/// The second workload tier: three server-style and three bursty/interactive
/// benchmarks beyond the paper's nineteen.
pub fn server_suite() -> Vec<Benchmark> {
    select(|_, kind| !kind.is_batch())
}

/// Every benchmark of every tier: the paper's nineteen followed by the
/// second tier.
pub fn full_suite() -> Vec<Benchmark> {
    select(|_, _| true)
}

/// The benchmarks of one tier, in registry order.
pub fn tier(kind: SuiteKind) -> Vec<Benchmark> {
    select(|_, k| k == kind)
}

/// Looks up a single benchmark by name (case-insensitive), across all tiers.
pub fn benchmark(name: &str) -> Option<Benchmark> {
    // Registry names are lowercase ASCII, so comparing them ASCII-insensitively
    // against the lowercased query matches exactly the names whose lowercase
    // form equals it.
    let lower = name.to_lowercase();
    REGISTRY
        .iter()
        .find(|(entry, _, _)| entry.eq_ignore_ascii_case(&lower))
        .map(Benchmark::build)
}

/// The names of all benchmarks across all tiers, in registry order (the
/// paper's table order first, then the second tier).
pub fn benchmark_names() -> Vec<&'static str> {
    REGISTRY.iter().map(|(name, _, _)| *name).collect()
}

/// The benchmark names of one tier, in registry order.
pub fn benchmark_names_for(kind: SuiteKind) -> Vec<&'static str> {
    REGISTRY
        .iter()
        .filter(|(_, k, _)| *k == kind)
        .map(|(name, _, _)| *name)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_nineteen_benchmarks() {
        let s = suite();
        assert_eq!(s.len(), 19);
        let media = s
            .iter()
            .filter(|b| b.suite == SuiteKind::MediaBench)
            .count();
        let spec_int = s.iter().filter(|b| b.suite == SuiteKind::SpecInt).count();
        let spec_fp = s.iter().filter(|b| b.suite == SuiteKind::SpecFp).count();
        assert_eq!(media, 12);
        assert_eq!(spec_int, 3);
        assert_eq!(spec_fp, 4);
        assert!(s.iter().all(|b| b.suite.is_batch()));
    }

    #[test]
    fn second_tier_has_six_benchmarks() {
        let s = server_suite();
        assert_eq!(s.len(), 6);
        assert_eq!(s.iter().filter(|b| b.suite == SuiteKind::Server).count(), 3);
        assert_eq!(
            s.iter()
                .filter(|b| b.suite == SuiteKind::Interactive)
                .count(),
            3
        );
        assert!(s.iter().all(|b| !b.suite.is_batch()));
        assert_eq!(full_suite().len(), 25);
    }

    #[test]
    fn names_are_unique_across_tiers() {
        for (i, (name, _, _)) in REGISTRY.iter().enumerate() {
            // Lowercase ASCII, which `benchmark`'s case-insensitive match
            // relies on.
            assert!(
                name.bytes()
                    .all(|b| !b.is_ascii_uppercase() && b.is_ascii()),
                "`{name}` is not lowercase ASCII"
            );
            assert!(
                REGISTRY[..i]
                    .iter()
                    .all(|(earlier, _, _)| !earlier.eq_ignore_ascii_case(name)),
                "`{name}` is registered more than once"
            );
        }
    }

    #[test]
    fn selections_keep_registry_order() {
        let picked = select(|name, _| name == "mcf" || name == "sensor hub");
        let names: Vec<&str> = picked.iter().map(|b| b.name).collect();
        assert_eq!(names, ["mcf", "sensor hub"]);
        assert_eq!(
            suite().iter().map(|b| b.name).collect::<Vec<_>>(),
            benchmark_names()[..19]
        );
        assert_eq!(
            server_suite().iter().map(|b| b.name).collect::<Vec<_>>(),
            benchmark_names()[19..]
        );
    }

    #[test]
    fn lookup_by_name_is_tier_aware() {
        assert!(benchmark("mcf").is_some());
        assert!(benchmark("MCF").is_some());
        assert!(benchmark("jpeg compress").is_some());
        assert_eq!(
            benchmark("web serve").map(|b| b.suite),
            Some(SuiteKind::Server)
        );
        assert_eq!(
            benchmark("Sensor Hub").map(|b| b.suite),
            Some(SuiteKind::Interactive)
        );
        assert!(benchmark("does-not-exist").is_none());
    }

    #[test]
    fn tier_selection_partitions_the_full_suite() {
        let total: usize = SuiteKind::ALL.iter().map(|&k| tier(k).len()).sum();
        assert_eq!(total, full_suite().len());
        assert_eq!(benchmark_names_for(SuiteKind::Server).len(), 3);
        assert_eq!(benchmark_names_for(SuiteKind::Interactive).len(), 3);
    }

    #[test]
    fn every_benchmark_reference_window_at_least_training() {
        for b in full_suite() {
            assert!(
                b.inputs.reference.max_instructions >= b.inputs.training.max_instructions,
                "{}: reference window smaller than training",
                b.name
            );
        }
    }
}
