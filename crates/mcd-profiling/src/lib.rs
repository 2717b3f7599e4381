//! # mcd-profiling — ATOM-style profiling, call trees and binary editing
//!
//! This crate reproduces phases one and four of the paper's profile-driven
//! reconfiguration pipeline:
//!
//! 1. **Profiling / call-tree construction** ([`call_tree`]): the dynamic
//!    marker stream of an instrumented run is compressed into a call tree with
//!    per-node instance and instruction counts, under any of the six
//!    definitions of calling context ([`context`]).
//! 2. **Candidate selection** ([`candidates`]): nodes whose average instance
//!    exceeds 10 000 instructions (excluding long-running descendants) become
//!    reconfiguration points.
//! 3. **Coverage analysis** ([`coverage`]): how well training-input trees
//!    predict reference-input trees (Table 3).
//! 4. **Application editing** ([`edit`]): which subroutines, loops and call
//!    sites receive instrumentation, how big the run-time lookup tables are,
//!    and a [`RuntimeTracker`] that emulates the inserted
//!    code during simulation, charging the overhead model of [`overhead`].
//!
//! The frequency values themselves are chosen by the `mcd-dvfs` crate (the
//! shaker and slowdown-thresholding algorithms); this crate only decides *where*
//! reconfiguration happens and *what it costs*.
//!
//! ## Example
//!
//! ```
//! use mcd_profiling::call_tree::CallTree;
//! use mcd_profiling::candidates::LongRunningSet;
//! use mcd_profiling::context::ContextPolicy;
//! use mcd_profiling::edit::InstrumentationPlan;
//! use mcd_workloads::{generate_trace, suite};
//!
//! let bench = suite::benchmark("gsm decode").expect("known benchmark");
//! let trace = generate_trace(&bench.program, &bench.inputs.training);
//! let tree = CallTree::build(&trace, ContextPolicy::LoopFunc);
//! let long_running = LongRunningSet::identify(&tree);
//! let plan = InstrumentationPlan::new(tree, long_running, ContextPolicy::LoopFunc);
//! assert!(plan.static_reconfiguration_points() > 0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod call_tree;
pub mod candidates;
pub mod context;
pub mod coverage;
pub mod edit;
pub mod overhead;

pub use call_tree::{CallTree, CallTreeNode, NodeId, NodeKind};
pub use candidates::{LongRunningSet, DEFAULT_THRESHOLD};
pub use context::ContextPolicy;
pub use coverage::CoverageReport;
pub use edit::{InstrumentationPlan, MarkerOutcome, NodeKey, ReconfigEvent, RuntimeTracker};
