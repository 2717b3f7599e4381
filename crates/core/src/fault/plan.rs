//! The seeded fault plan: sites, probabilities, and the decision engine.

use std::sync::atomic::{AtomicU64, Ordering};

/// One injection point in the artifact store or the service layer.
///
/// Each site is a place where real infrastructure fails: the two read sites
/// model disk errors and truncation, the two write sites model full disks and
/// crashes mid-publication, the stall site models a slow or descheduled lock
/// holder, and the panic site models a bug (or OOM-killed allocation) inside
/// a worker's job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// An artifact read fails with an I/O error before any bytes arrive.
    ArtifactRead,
    /// An artifact read returns only a prefix of the file (the codec's
    /// trailing checksum is what turns this into a detected miss).
    ShortRead,
    /// An artifact write fails with an I/O error.
    ArtifactWrite,
    /// An artifact write is torn: half the payload reaches the temporary
    /// file and the publishing rename never happens — exactly the on-disk
    /// state a process crash leaves behind.
    TornWrite,
    /// A lock or queue acquisition stalls for [`LOCK_STALL`] before
    /// proceeding, widening every race window the protocol has.
    LockStall,
    /// The worker task executing a job panics.
    WorkerPanic,
}

/// How long a [`FaultSite::LockStall`] injection sleeps.
pub const LOCK_STALL: std::time::Duration = std::time::Duration::from_millis(10);

impl FaultSite {
    /// Every site, in the order used by per-site counter arrays.
    pub const ALL: [FaultSite; 6] = [
        FaultSite::ArtifactRead,
        FaultSite::ShortRead,
        FaultSite::ArtifactWrite,
        FaultSite::TornWrite,
        FaultSite::LockStall,
        FaultSite::WorkerPanic,
    ];

    /// Index into per-site arrays.
    pub(crate) fn index(self) -> usize {
        match self {
            FaultSite::ArtifactRead => 0,
            FaultSite::ShortRead => 1,
            FaultSite::ArtifactWrite => 2,
            FaultSite::TornWrite => 3,
            FaultSite::LockStall => 4,
            FaultSite::WorkerPanic => 5,
        }
    }

    /// Stable machine-readable name (used in error messages and reports).
    pub fn label(self) -> &'static str {
        match self {
            FaultSite::ArtifactRead => "artifact-read",
            FaultSite::ShortRead => "short-read",
            FaultSite::ArtifactWrite => "artifact-write",
            FaultSite::TornWrite => "torn-write",
            FaultSite::LockStall => "lock-stall",
            FaultSite::WorkerPanic => "worker-panic",
        }
    }
}

impl std::fmt::Display for FaultSite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-site injection probabilities plus the seed that makes them replayable.
///
/// The default is all-zero (nothing injects); [`FaultConfig::chaos`] is the
/// preset the loadtest chaos phase and the CI `chaos-smoke` matrix run under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Seed of every per-site draw sequence. Two plans with the same seed
    /// and probabilities inject at the same per-site draw indices.
    pub seed: u64,
    /// Probability of [`FaultSite::ArtifactRead`] per read attempt.
    pub read_error: f64,
    /// Probability of [`FaultSite::ShortRead`] per successful read.
    pub short_read: f64,
    /// Probability of [`FaultSite::ArtifactWrite`] per write attempt.
    pub write_error: f64,
    /// Probability of [`FaultSite::TornWrite`] per write attempt.
    pub torn_write: f64,
    /// Probability of [`FaultSite::LockStall`] per lock/queue acquisition.
    pub lock_stall: f64,
    /// Probability of [`FaultSite::WorkerPanic`] per job (or batch member).
    pub worker_panic: f64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            read_error: 0.0,
            short_read: 0.0,
            write_error: 0.0,
            torn_write: 0.0,
            lock_stall: 0.0,
            worker_panic: 0.0,
        }
    }
}

impl FaultConfig {
    /// The chaos preset: every site nonzero, aggressive enough that a smoke
    /// run of a few dozen jobs sees several injections of each kind, gentle
    /// enough that most jobs still complete (so the bit-identical-digest
    /// assertion has subjects).
    pub fn chaos(seed: u64) -> Self {
        FaultConfig {
            seed,
            read_error: 0.10,
            short_read: 0.10,
            write_error: 0.10,
            torn_write: 0.10,
            lock_stall: 0.05,
            worker_panic: 0.10,
        }
    }

    /// The probability of one site.
    pub fn probability(&self, site: FaultSite) -> f64 {
        match site {
            FaultSite::ArtifactRead => self.read_error,
            FaultSite::ShortRead => self.short_read,
            FaultSite::ArtifactWrite => self.write_error,
            FaultSite::TornWrite => self.torn_write,
            FaultSite::LockStall => self.lock_stall,
            FaultSite::WorkerPanic => self.worker_panic,
        }
    }

    /// Returns the config with `site`'s probability replaced.
    pub fn with_probability(mut self, site: FaultSite, p: f64) -> Self {
        let slot = match site {
            FaultSite::ArtifactRead => &mut self.read_error,
            FaultSite::ShortRead => &mut self.short_read,
            FaultSite::ArtifactWrite => &mut self.write_error,
            FaultSite::TornWrite => &mut self.torn_write,
            FaultSite::LockStall => &mut self.lock_stall,
            FaultSite::WorkerPanic => &mut self.worker_panic,
        };
        *slot = p;
        self
    }

    /// True when at least one site can ever fire.
    pub fn any_enabled(&self) -> bool {
        FaultSite::ALL.iter().any(|&s| self.probability(s) > 0.0)
    }
}

/// The payload of an *injected* worker panic, distinguishable (by downcast)
/// from a genuine bug's panic so [`McdError::Fault`](crate::error::McdError)
/// and [`McdError::Panic`](crate::error::McdError) stay separate.
#[derive(Debug, Clone, Copy)]
pub struct InjectedPanic;

/// Snapshot of a plan's per-site counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultStats {
    /// Draws taken per site ([`FaultSite::ALL`] order).
    pub draws: [u64; 6],
    /// Injections fired per site ([`FaultSite::ALL`] order).
    pub injected: [u64; 6],
}

impl FaultStats {
    /// Draws taken at one site.
    pub fn draws_at(&self, site: FaultSite) -> u64 {
        self.draws[site.index()]
    }

    /// Injections fired at one site.
    pub fn injected_at(&self, site: FaultSite) -> u64 {
        self.injected[site.index()]
    }
}

/// The decision engine every injection point consults.
///
/// Share one plan (through an `Arc`) between the cache, the scheduler, and
/// the evaluator so the whole service runs under a single seeded schedule.
/// Each site keeps its own draw counter; draw `n` at site `s` injects iff
/// `splitmix64(seed ⊕ salt(s) ⊕ splitmix64(n)) < p(s)·2⁶⁴` — a function of
/// the seed, the site, and the index alone, so the injection pattern does
/// not depend on how threads interleave their draws.
#[derive(Debug, Default)]
pub struct FaultPlan {
    config: FaultConfig,
    enabled: bool,
    thresholds: [u128; 6],
    draws: [AtomicU64; 6],
    injected: [AtomicU64; 6],
}

/// splitmix64: the standard 64-bit finalizer-quality mixer.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Decorrelates the per-site sequences: two sites at the same draw index
/// must not fire in lockstep.
fn site_salt(site: FaultSite) -> u64 {
    splitmix64(0xC4A5_0517_u64 ^ ((site.index() as u64 + 1) << 32))
}

impl FaultPlan {
    /// A plan that fires according to `config`.
    pub fn new(config: FaultConfig) -> Self {
        let mut thresholds = [0u128; 6];
        for site in FaultSite::ALL {
            let p = config.probability(site).clamp(0.0, 1.0);
            thresholds[site.index()] = (p * (u64::MAX as f64 + 1.0)) as u128;
        }
        FaultPlan {
            enabled: config.any_enabled(),
            config,
            thresholds,
            draws: Default::default(),
            injected: Default::default(),
        }
    }

    /// A plan that never fires — the hooks' zero-cost default.
    pub fn disabled() -> Self {
        FaultPlan::default()
    }

    /// The configuration this plan fires under.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// True when any site can ever fire. The `false` branch is the one the
    /// zero-overhead gate cares about: [`should`](FaultPlan::should) returns
    /// before touching any counter.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Should this injection point fire its fault? Deterministic per
    /// `(seed, site, per-site draw index)`.
    #[inline]
    pub fn should(&self, site: FaultSite) -> bool {
        if !self.enabled {
            return false;
        }
        self.draw(site)
    }

    #[cold]
    fn draw(&self, site: FaultSite) -> bool {
        let i = site.index();
        let n = self.draws[i].fetch_add(1, Ordering::Relaxed);
        let word = splitmix64(self.config.seed ^ site_salt(site) ^ splitmix64(n));
        let fire = (word as u128) < self.thresholds[i];
        if fire {
            self.injected[i].fetch_add(1, Ordering::Relaxed);
        }
        fire
    }

    /// Snapshot of the per-site counters.
    pub fn stats(&self) -> FaultStats {
        let mut stats = FaultStats::default();
        for i in 0..6 {
            stats.draws[i] = self.draws[i].load(Ordering::Relaxed);
            stats.injected[i] = self.injected[i].load(Ordering::Relaxed);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn disabled_plan_never_fires_and_never_counts() {
        let plan = FaultPlan::disabled();
        assert!(!plan.is_enabled());
        for _ in 0..1000 {
            for site in FaultSite::ALL {
                assert!(!plan.should(site));
            }
        }
        assert_eq!(plan.stats(), FaultStats::default());
    }

    #[test]
    fn probability_one_always_fires_and_zero_never_does() {
        let config = FaultConfig::default()
            .with_probability(FaultSite::ArtifactRead, 1.0)
            .with_probability(FaultSite::TornWrite, 0.0);
        let plan = FaultPlan::new(config);
        assert!(plan.is_enabled());
        for _ in 0..100 {
            assert!(plan.should(FaultSite::ArtifactRead));
            assert!(!plan.should(FaultSite::TornWrite));
        }
        let stats = plan.stats();
        assert_eq!(stats.injected_at(FaultSite::ArtifactRead), 100);
        assert_eq!(stats.draws_at(FaultSite::ArtifactRead), 100);
        assert_eq!(stats.injected_at(FaultSite::TornWrite), 0);
        assert_eq!(stats.draws_at(FaultSite::TornWrite), 100);
        assert_eq!(stats.injected.iter().sum::<u64>(), 100);
    }

    #[test]
    fn same_seed_same_sequence_different_seed_different_sequence() {
        let seq = |seed: u64| -> Vec<bool> {
            let plan = FaultPlan::new(FaultConfig::chaos(seed));
            (0..256)
                .map(|_| plan.should(FaultSite::ShortRead))
                .collect()
        };
        assert_eq!(seq(7), seq(7), "a seed fully determines the sequence");
        assert_ne!(seq(7), seq(8), "distinct seeds diverge");
    }

    #[test]
    fn sequences_are_interleaving_independent() {
        // Two threads hammering one site take disjoint draw indices; the
        // multiset of fired indices is fixed by the seed, so the total
        // injection count equals the serial count no matter the interleaving.
        let serial = {
            let plan = FaultPlan::new(FaultConfig::chaos(42));
            for _ in 0..1000 {
                plan.should(FaultSite::ArtifactWrite);
            }
            plan.stats().injected_at(FaultSite::ArtifactWrite)
        };
        let plan = Arc::new(FaultPlan::new(FaultConfig::chaos(42)));
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let plan = plan.clone();
                scope.spawn(move || {
                    for _ in 0..250 {
                        plan.should(FaultSite::ArtifactWrite);
                    }
                });
            }
        });
        assert_eq!(plan.stats().injected_at(FaultSite::ArtifactWrite), serial);
    }

    #[test]
    fn chaos_preset_fires_every_site_within_a_small_budget() {
        let plan = FaultPlan::new(FaultConfig::chaos(3));
        for _ in 0..2000 {
            for site in FaultSite::ALL {
                plan.should(site);
            }
        }
        let stats = plan.stats();
        for site in FaultSite::ALL {
            assert!(
                stats.injected_at(site) > 0,
                "site {site} never fired in 2000 draws"
            );
            // ...but none of them dominates: most work still succeeds.
            assert!(stats.injected_at(site) < 500, "site {site} fires too often");
        }
    }

    #[test]
    fn site_labels_round_trip_through_display() {
        for site in FaultSite::ALL {
            assert_eq!(site.to_string(), site.label());
        }
        assert_eq!(FaultSite::ALL.len(), 6);
    }
}
