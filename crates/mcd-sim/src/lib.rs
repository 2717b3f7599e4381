//! # mcd-sim — a Multiple Clock Domain (MCD) processor simulator
//!
//! This crate is the hardware substrate of the reproduction of *"Profile-based
//! Dynamic Voltage and Frequency Scaling for a Multiple Clock Domain
//! Microprocessor"* (Magklis et al., ISCA 2003). It models:
//!
//! * an out-of-order superscalar processor split into four independently
//!   clocked domains — front end, integer, floating point, memory — plus an
//!   external main-memory domain that always runs at full speed
//!   ([`domain`]),
//! * per-domain dynamic voltage and frequency scaling with the XScale-style
//!   73.3 ns/MHz ramp and a 250 MHz–1 GHz / 0.65 V–1.20 V operating range
//!   ([`freq`], [`reconfig`]),
//! * the Sjogren–Myers inter-domain synchronization circuit with normally
//!   distributed clock jitter ([`sync`]),
//! * caches, a combining branch predictor, issue queues, a reorder buffer and
//!   functional-unit pools matching Table 1 of the paper ([`cache`],
//!   [`branch`], [`resources`], [`config`]),
//! * a Wattch-style per-domain energy model ([`power`]), and
//! * an event-driven timing simulator that records the primitive-event
//!   dependence traces consumed by the paper's off-line analysis
//!   ([`simulator`], [`events`]).
//!
//! Control algorithms (the paper's profile-driven reconfiguration, the off-line
//! oracle, the on-line attack–decay controller and the global-DVS baseline)
//! live in the `mcd-dvfs` crate and drive this simulator through the
//! [`simulator::SimHooks`] trait.
//!
//! ## Example
//!
//! ```
//! use mcd_sim::config::MachineConfig;
//! use mcd_sim::instruction::{Instr, InstrClass, TraceItem};
//! use mcd_sim::simulator::{NullHooks, Simulator};
//!
//! // A tiny burst of dependent integer instructions.
//! let trace: Vec<TraceItem> = (0..1000)
//!     .map(|i| TraceItem::Instr(Instr::op(0x400000 + i * 4, InstrClass::IntAlu).with_dep1(1)))
//!     .collect();
//!
//! let sim = Simulator::new(MachineConfig::default());
//! let result = sim.run(trace, &mut NullHooks, false);
//! assert_eq!(result.stats.instructions, 1000);
//! assert!(result.stats.total_energy.as_units() > 0.0);
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod branch;
pub mod cache;
pub mod config;
pub mod domain;
pub mod events;
pub mod fingerprint;
pub mod freq;
pub mod instruction;
pub mod power;
pub mod reconfig;
pub mod recorder;
pub mod resources;
pub mod simulator;
pub mod stats;
pub mod sync;
pub mod time;
pub mod trace;

pub use config::{MachineConfig, MachineConfigError};
pub use domain::{Domain, PerDomain};
pub use fingerprint::{Fingerprint, Fnv1a};
pub use instruction::{Instr, InstrClass, Marker, TraceItem};
pub use reconfig::FrequencySetting;
pub use simulator::{HookAction, NullHooks, SimHooks, SimResult, Simulator};
pub use stats::{RelativeMetrics, SimStats};
pub use time::{Energy, MegaHertz, TimeNs, Volts};
pub use trace::{PackedCursor, PackedTrace, PackedWord};
