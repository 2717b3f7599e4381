//! The shared error type for user-facing operations.
//!
//! Library internals keep using panics for genuine invariant violations, but
//! everything a binary or example can trigger from the command line — unknown
//! benchmark or scheme names, invalid slowdown targets or machine
//! configurations — surfaces as an [`McdError`] instead.

use crate::fault::FaultSite;
use mcd_workloads::suite::Benchmark;
use std::fmt;
use std::process::ExitCode;

/// Errors reported by the evaluation pipeline and its entry points.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum McdError {
    /// A benchmark name did not match any suite entry.
    UnknownBenchmark(String),
    /// A scheme name did not match any entry of
    /// [`names::ALL`](crate::scheme::names::ALL).
    UnknownScheme(String),
    /// A scheme was looked up in an evaluation it was not part of (for
    /// example `global` when `EvaluationConfig::include_global` was false).
    SchemeNotEvaluated(String),
    /// A scheme needed the result of another scheme that has not run.
    MissingDependency {
        /// The scheme that could not run.
        scheme: String,
        /// The scheme whose result it needed.
        requires: String,
    },
    /// A configuration value was rejected.
    InvalidConfig(String),
    /// A submission was turned away by the evaluator's admission control
    /// (bounded queue or rate limiter); the message names the reason. The
    /// producer should back off and retry — nothing was evaluated.
    Rejected(String),
    /// The evaluator shut down (its drop drained past the shutdown timeout)
    /// before this queued job reached a worker.
    Shutdown,
    /// An *injected* fault (see [`crate::fault`]) terminated this job: the
    /// chaos harness fired `site` and the service converted it into a clean
    /// per-job failure. Distinct from [`McdError::Panic`], which is a
    /// genuine bug, and from [`McdError::Io`], which is an exhausted retry
    /// budget — chaos assertions and operators triage the three differently.
    Fault {
        /// The injection site that fired.
        site: FaultSite,
    },
    /// An artifact-store I/O operation failed every attempt of its bounded
    /// retry budget. The store itself falls back (reads recompute, writes
    /// count an error), so this surfaces on user-facing paths only where no
    /// fallback exists.
    Io {
        /// Which injection/IO site the operation belongs to.
        site: FaultSite,
        /// Re-attempts taken after the first failure.
        retries: u32,
    },
    /// The worker task executing this job panicked; the payload carries the
    /// panic message. The worker thread survives (`catch_unwind`) and the
    /// panic poisons only this job.
    Panic(String),
    /// An internal pipeline invariant failed (reported, not panicked, so the
    /// figure binaries exit cleanly).
    Internal(String),
}

impl fmt::Display for McdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            McdError::UnknownBenchmark(name) => {
                write!(
                    f,
                    "unknown benchmark `{name}` (see `suite::benchmark_names()`)"
                )
            }
            McdError::UnknownScheme(name) => write!(f, "unknown scheme `{name}`"),
            McdError::SchemeNotEvaluated(name) => write!(
                f,
                "scheme `{name}` was not part of this evaluation (name it with \
                 `EvalJob::with_schemes`, or set `EvaluationConfig::include_global` / \
                 `include_zoo`)"
            ),
            McdError::MissingDependency { scheme, requires } => write!(
                f,
                "scheme `{scheme}` requires the result of `{requires}`, which has not run \
                 (a job that names `{scheme}` with `EvalJob::with_schemes` must also name \
                 the schemes it reads)"
            ),
            McdError::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
            McdError::Rejected(reason) => write!(f, "submission rejected: {reason}"),
            McdError::Shutdown => write!(
                f,
                "the evaluator shut down before this queued job could run"
            ),
            McdError::Fault { site } => {
                write!(f, "injected fault at site `{site}` terminated the job")
            }
            McdError::Io { site, retries } => write!(
                f,
                "artifact I/O at site `{site}` failed after {retries} retr{}",
                if *retries == 1 { "y" } else { "ies" }
            ),
            McdError::Panic(msg) => write!(f, "worker panicked: {msg}"),
            McdError::Internal(msg) => write!(f, "internal evaluation error: {msg}"),
        }
    }
}

impl std::error::Error for McdError {}

impl From<mcd_sim::config::MachineConfigError> for McdError {
    fn from(err: mcd_sim::config::MachineConfigError) -> Self {
        McdError::InvalidConfig(err.to_string())
    }
}

/// Looks up a benchmark by name, producing an [`McdError`] instead of an
/// `Option` for use on user-facing paths.
pub fn find_benchmark(name: &str) -> Result<Benchmark, McdError> {
    mcd_workloads::suite::benchmark(name)
        .ok_or_else(|| McdError::UnknownBenchmark(name.to_string()))
}

/// Runs `f` and reports any error on stderr, returning a non-zero exit code —
/// the shared `main` wrapper for binaries and examples, keeping panics off
/// user-facing paths.
pub fn run_main(f: impl FnOnce() -> Result<(), McdError>) -> ExitCode {
    match f() {
        Ok(()) => ExitCode::SUCCESS,
        Err(err) => {
            eprintln!("error: {err}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn find_benchmark_reports_unknown_names() {
        assert!(find_benchmark("adpcm decode").is_ok());
        let err = find_benchmark("no-such-benchmark").unwrap_err();
        assert_eq!(err, McdError::UnknownBenchmark("no-such-benchmark".into()));
        assert!(err.to_string().contains("no-such-benchmark"));
    }

    #[test]
    fn find_benchmark_is_tier_aware() {
        // Second-tier benchmarks resolve through the same user-facing path.
        let bench = find_benchmark("web serve").expect("server tier visible");
        assert_eq!(bench.suite, mcd_workloads::suite::SuiteKind::Server);
    }

    #[test]
    fn fault_taxonomy_distinguishes_injection_retries_and_panics() {
        let fault = McdError::Fault {
            site: FaultSite::WorkerPanic,
        };
        assert!(fault.to_string().contains("injected fault"));
        assert!(fault.to_string().contains("worker-panic"));

        let io = McdError::Io {
            site: FaultSite::ArtifactWrite,
            retries: 2,
        };
        assert!(io.to_string().contains("artifact-write"));
        assert!(io.to_string().contains("2 retries"));
        let io_one = McdError::Io {
            site: FaultSite::ArtifactRead,
            retries: 1,
        };
        assert!(io_one.to_string().contains("1 retry"));

        let panic = McdError::Panic("index out of bounds".into());
        assert!(panic.to_string().contains("worker panicked"));
        assert!(panic.to_string().contains("index out of bounds"));

        // The three are distinct values — chaos assertions match on them.
        assert_ne!(fault, io);
        assert_ne!(io, panic);
    }

    #[test]
    fn display_is_informative() {
        let err = McdError::MissingDependency {
            scheme: "global".into(),
            requires: "offline".into(),
        };
        let msg = err.to_string();
        assert!(msg.contains("global") && msg.contains("offline"));
    }
}
