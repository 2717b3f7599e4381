//! # mcd-dvfs — profile-based DVFS control for a Multiple Clock Domain processor
//!
//! This crate implements the contribution of *"Profile-based Dynamic Voltage
//! and Frequency Scaling for a Multiple Clock Domain Microprocessor"*
//! (Magklis, Scott, Semeraro, Albonesi and Dropsho, ISCA 2003) together with
//! the comparison schemes its evaluation uses:
//!
//! * [`dag`], [`shaker`], [`histogram`], [`threshold`] — the off-line analysis
//!   machinery: dependence-DAG slack distribution (the shaker) and per-domain
//!   slowdown thresholding;
//! * [`profile`] — profile-driven reconfiguration: train on a small input,
//!   edit the binary (via `mcd-profiling`), choose per-node frequencies, and
//!   reconfigure at subroutine/loop boundaries during production runs;
//! * [`pipeline`] — the staged analysis pipeline behind the off-line oracle:
//!   trace capture, window slicing, window-parallel shaker/threshold analysis
//!   (bit-identical to the serial order), and schedule assembly/replay;
//! * [`artifact`] — the content-addressed on-disk artifact cache that lets
//!   evaluations and figure binaries reuse off-line schedules and training
//!   plans instead of re-training;
//! * [`offline`] — the off-line oracle with perfect future knowledge;
//! * [`online`] — the hardware attack–decay controller;
//! * [`global_dvs`] — the conventional whole-chip DVS baseline;
//! * [`pid`], [`sysscale`], [`learned`] — the controller zoo: a PID loop on
//!   queue occupancy, a SysScale-style shared-power-budget policy, and a
//!   table-driven policy learned offline from the profile pipeline's capture
//!   artifacts (compared against the paper's schemes by the `tournament`
//!   harness in `mcd-bench`);
//! * [`scheme`] — the [`DvfsScheme`] trait unifying every control scheme
//!   behind one `prepare` method, plus the standard registry;
//! * [`evaluation`] — the configuration and result types of a comparison,
//!   producing the paper's metrics (performance degradation, energy savings,
//!   energy·delay improvement);
//! * [`service`] — the job-oriented [`Evaluator`], the crate's one front
//!   door: build it once, submit `(benchmark, overrides)` jobs, share
//!   memoized baselines across configurations, and stream per-scheme results
//!   as events;
//! * [`fault`] — the deterministic, seeded fault-injection layer that
//!   chaos-tests the artifact store and the service (worker panics, torn
//!   writes, I/O errors, lock stalls), plus the retry policy the store
//!   recovers under;
//! * [`error`] — the shared [`McdError`] type reported on every user-facing
//!   path.
//!
//! ## Quick start
//!
//! ```
//! use mcd_dvfs::profile::{train, TrainingConfig};
//! use mcd_sim::config::MachineConfig;
//! use mcd_workloads::suite;
//!
//! let bench = suite::benchmark("adpcm decode").expect("known benchmark");
//! let machine = MachineConfig::default();
//! let plan = train(&bench.program, &bench.inputs.training, &machine, &TrainingConfig::default());
//! assert!(!plan.table.is_empty());
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod artifact;
pub mod controller;
pub mod dag;
pub mod error;
pub mod evaluation;
pub mod fault;
pub mod global_dvs;
pub mod histogram;
pub mod learned;
pub mod offline;
pub mod online;
mod parallel;
pub mod pid;
pub mod pipeline;
pub mod profile;
pub mod scheme;
pub mod service;
pub mod shaker;
pub mod sysscale;
pub mod threshold;

pub use artifact::{ArtifactCache, ArtifactKey, CacheStats};
pub use controller::{FrequencyTable, SettingStack};
pub use error::{find_benchmark, run_main, McdError};
pub use evaluation::{BenchmarkEvaluation, EvaluationConfig, SchemeResult};
pub use fault::{FaultConfig, FaultPlan, FaultSite, FaultStats, RetryPolicy, RetryStats};
pub use learned::{LearnedConfig, LearnedPolicy, LearnedTable};
pub use offline::{run_offline, OfflineConfig, OfflineResult, OfflineSchedule};
pub use online::{OnlineConfig, OnlineController};
pub use pid::{PidConfig, PidController};
pub use pipeline::AnalysisPipeline;
pub use profile::{train, train_and_run, ProfileHooks, ProfilePlan, TrainingConfig};
pub use scheme::{
    configured_registry, full_registry, subset_registry, DvfsScheme, GlobalDvsScheme, Lane,
    LearnedScheme, OfflineScheme, OnlineScheme, PidScheme, Pools, Prepared, ProfileScheme,
    SchemeContext, SchemeOutcome, SysScaleScheme,
};
pub use service::{
    EvalEvent, EvalJob, Evaluator, EvaluatorBuilder, JobId, MemoStats, ResultStream,
};
pub use shaker::{Shaker, ShakerConfig};
pub use sysscale::{SysScaleConfig, SysScaleController};
pub use threshold::SlowdownThreshold;
