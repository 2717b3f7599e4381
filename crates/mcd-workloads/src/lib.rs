//! # mcd-workloads — synthetic MediaBench and SPEC CPU2000 workload models
//!
//! The paper evaluates its profile-driven DVFS mechanism on nineteen
//! benchmarks compiled for Alpha and traced with ATOM. Neither the binaries
//! nor the toolchain are available as Rust, so this crate provides the
//! substitute substrate, with windows scaled down from the paper's (the
//! `table2_windows` binary prints them; the README's figure table lists it):
//! each benchmark is modelled as a structural [`Program`] — subroutines,
//! loops, call sites, and input-dependent regions — whose compute blocks
//! carry instruction-mix descriptors ([`mix::InstructionMix`]). The [`generator`] expands a program
//! under a training or reference [`input::InputSet`] into the dynamic
//! instruction/marker trace the `mcd-sim` simulator consumes and the
//! `mcd-profiling` crate builds call trees from.
//!
//! Beyond the paper's nineteen batch programs, the [`server`] module
//! composes a second workload tier — server-style request loops
//! ([`server::ServerWorkload`]) and bursty/interactive duty cycles
//! ([`server::BurstProfile`]) — registered under
//! [`suite::SuiteKind::Server`] / [`suite::SuiteKind::Interactive`] and
//! returned by [`suite::server_suite`].
//!
//! ## Example
//!
//! ```
//! use mcd_workloads::suite;
//! use mcd_workloads::generator::generate_trace;
//!
//! let bench = suite::benchmark("adpcm decode").expect("known benchmark");
//! let trace = generate_trace(&bench.program, &bench.inputs.training);
//! assert!(trace.len() > 10_000);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod generator;
pub mod input;
pub mod mix;
pub mod program;
pub mod programs;
pub mod rng;
pub mod server;
pub mod suite;

pub use generator::{generate_trace, TraceGenerator};
pub use input::{InputPair, InputSet};
pub use mix::InstructionMix;
pub use program::{InputKind, Program, ProgramBuilder, TripCount};
pub use server::{BurstProfile, RequestClass, ServerWorkload};
pub use suite::{benchmark, full_suite, server_suite, suite, Benchmark, SuiteKind};
