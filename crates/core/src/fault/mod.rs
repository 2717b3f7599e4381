//! Deterministic, seeded fault injection for chaos-testing the service.
//!
//! Production services are judged under worst-case *infrastructure* behavior
//! the same way the paper's controllers are judged under worst-case phase
//! behavior: a worker panics mid-job, a disk read returns garbage, a write is
//! torn by a crash, a lock holder dies. This module makes those events
//! *injectable, deterministic, and countable* so the recovery machinery —
//! `catch_unwind` isolation in the [`Evaluator`](crate::service::Evaluator),
//! retry-with-backoff and crash-consistent publication in the
//! [`ArtifactCache`](crate::artifact::ArtifactCache) — can be exercised on
//! every CI run instead of on the first production incident.
//!
//! The pieces:
//!
//! * [`FaultSite`] — the enumerated injection points threaded through the
//!   artifact store and the service layer.
//! * [`FaultConfig`] — per-site probabilities plus the seed; start from the
//!   [`FaultConfig::chaos`] preset (what `loadtest --chaos-only --fault-seed N`
//!   runs) or the all-zero default, and tune single sites with
//!   [`FaultConfig::with_probability`].
//! * [`FaultPlan`] — the shared decision engine: every potential injection
//!   point asks [`FaultPlan::should`], which draws from a per-site
//!   counter-keyed splitmix64 sequence. The per-site sequences depend only on
//!   `(seed, site, draw index)` — not on thread interleaving — so a failure
//!   found under seed `S` replays under seed `S`. A disabled plan answers
//!   with a single relaxed load of one boolean. Every evaluator installs a
//!   plan (a disabled one by default), so every performance gate prices
//!   that load along with the rest of the hot path.
//! * [`RetryPolicy`] / [`RetryStats`] — the bounded, deterministic
//!   backoff schedule the artifact store retries transient I/O under.
//!
//! Nothing here is compiled out: the hooks are runtime-gated so the very
//! binary that is benchmarked is the one chaos-tested.

pub mod plan;
pub mod retry;

pub use plan::{FaultConfig, FaultPlan, FaultSite, FaultStats, InjectedPanic};
pub use retry::{RetryPolicy, RetryStats};
