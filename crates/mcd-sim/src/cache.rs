//! Set-associative cache models for the L1 instruction, L1 data and unified L2
//! caches.
//!
//! The caches are functional (hit/miss) models with true LRU replacement; their
//! latencies come from [`CacheConfig`] and are
//! charged by the timing model in the clock domain that owns the cache (L1 I in
//! the front end; L1 D and L2 in the memory domain).

use crate::config::CacheConfig;

/// Result of a cache hierarchy access for a data reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessOutcome {
    /// Hit in the first-level cache.
    L1Hit,
    /// Miss in L1, hit in the unified L2.
    L2Hit,
    /// Miss in both levels; the external memory domain services the request.
    MemoryAccess,
}

impl AccessOutcome {
    /// Whether the access left the first-level cache.
    pub fn missed_l1(self) -> bool {
        !matches!(self, AccessOutcome::L1Hit)
    }

    /// Whether the access left the on-chip hierarchy entirely.
    pub fn missed_l2(self) -> bool {
        matches!(self, AccessOutcome::MemoryAccess)
    }
}

/// A single set-associative cache with LRU replacement.
#[derive(Debug, Clone)]
pub struct Cache {
    sets: Vec<Vec<u64>>, // each set holds tags in LRU order (front = MRU)
    ways: usize,
    line_shift: u32,
    set_mask: u64,
    accesses: u64,
    misses: u64,
}

impl Cache {
    /// Creates a cache from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (non-power-of-two line size or set
    /// count, or zero ways).
    pub fn new(config: &CacheConfig) -> Self {
        let sets = config.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(
            (config.line_bytes as u64).is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(config.associativity > 0, "cache must have at least one way");
        Cache {
            sets: vec![Vec::with_capacity(config.associativity as usize); sets as usize],
            ways: config.associativity as usize,
            line_shift: (config.line_bytes as u64).trailing_zeros(),
            set_mask: sets - 1,
            accesses: 0,
            misses: 0,
        }
    }

    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        ((line & self.set_mask) as usize, line)
    }

    /// Accesses `addr`; returns `true` on hit. Misses allocate the line.
    pub fn access(&mut self, addr: u64) -> bool {
        self.accesses += 1;
        let (set_idx, tag) = self.set_and_tag(addr);
        let set = &mut self.sets[set_idx];
        if let Some(pos) = set.iter().position(|&t| t == tag) {
            // Move to MRU position.
            let t = set.remove(pos);
            set.insert(0, t);
            true
        } else {
            self.misses += 1;
            if set.len() == self.ways {
                set.pop();
            }
            set.insert(0, tag);
            false
        }
    }

    /// Number of accesses so far.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Number of misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss rate (misses / accesses), or zero before any access.
    pub fn miss_rate(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }
}

/// The two-level data-side hierarchy (L1 D + unified L2) plus the L1 I cache,
/// which shares the L2.
///
/// ```
/// use mcd_sim::cache::{CacheHierarchy, AccessOutcome};
/// use mcd_sim::config::MachineConfig;
/// let cfg = MachineConfig::default();
/// let mut h = CacheHierarchy::new(&cfg);
/// // First touch of a line goes all the way to memory...
/// assert_eq!(h.access_data(0x1000), AccessOutcome::MemoryAccess);
/// // ...and the second touch hits in L1.
/// assert_eq!(h.access_data(0x1000), AccessOutcome::L1Hit);
/// ```
#[derive(Debug, Clone)]
pub struct CacheHierarchy {
    l1d: Cache,
    l1i: Cache,
    l2: Cache,
}

impl CacheHierarchy {
    /// Creates the hierarchy from the machine configuration.
    pub fn new(config: &crate::config::MachineConfig) -> Self {
        CacheHierarchy {
            l1d: Cache::new(&config.l1d),
            l1i: Cache::new(&config.l1i),
            l2: Cache::new(&config.l2),
        }
    }

    /// Performs a data access (load or store) to `addr`.
    pub fn access_data(&mut self, addr: u64) -> AccessOutcome {
        if self.l1d.access(addr) {
            AccessOutcome::L1Hit
        } else if self.l2.access(addr) {
            AccessOutcome::L2Hit
        } else {
            AccessOutcome::MemoryAccess
        }
    }

    /// Performs an instruction fetch access to `pc`.
    pub fn access_instruction(&mut self, pc: u64) -> AccessOutcome {
        if self.l1i.access(pc) {
            AccessOutcome::L1Hit
        } else if self.l2.access(pc) {
            AccessOutcome::L2Hit
        } else {
            AccessOutcome::MemoryAccess
        }
    }

    /// The L1 data cache.
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// The L1 instruction cache.
    pub fn l1i(&self) -> &Cache {
        &self.l1i
    }

    /// The unified L2 cache.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn small_cache() -> Cache {
        Cache::new(&CacheConfig {
            size_bytes: 4 * 64 * 2, // 4 sets, 2 ways, 64-byte lines
            associativity: 2,
            line_bytes: 64,
            latency_cycles: 2,
        })
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = small_cache();
        assert!(!c.access(0x100));
        assert!(c.access(0x100));
        assert!(c.access(0x13f)); // same line
        assert_eq!(c.misses(), 1);
        assert_eq!(c.accesses(), 3);
    }

    #[test]
    fn lru_replacement_evicts_oldest() {
        let mut c = small_cache();
        // Three lines mapping to the same set (set stride = 4 sets * 64 B = 256 B).
        let a = 0x0000;
        let b = 0x0100;
        let d = 0x0200;
        assert!(!c.access(a));
        assert!(!c.access(b));
        assert!(!c.access(d)); // evicts a
        assert!(!c.access(a)); // a was evicted -> miss, evicts b
        assert!(c.access(d)); // d still resident
        assert!(!c.access(b)); // b was evicted
    }

    #[test]
    fn lru_touch_refreshes() {
        let mut c = small_cache();
        let a = 0x0000;
        let b = 0x0100;
        let d = 0x0200;
        c.access(a);
        c.access(b);
        c.access(a); // refresh a; b becomes LRU
        c.access(d); // evicts b
        assert!(c.access(a));
        assert!(!c.access(b));
    }

    #[test]
    fn miss_rate_counts_misses_over_accesses() {
        let mut c = small_cache();
        assert_eq!(c.miss_rate(), 0.0, "no accesses yet");
        c.access(0x0);
        c.access(0x0);
        assert!((c.miss_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn hierarchy_outcomes() {
        let cfg = MachineConfig::default();
        let mut h = CacheHierarchy::new(&cfg);
        assert_eq!(h.access_data(0x4000), AccessOutcome::MemoryAccess);
        assert_eq!(h.access_data(0x4000), AccessOutcome::L1Hit);
        // A footprint larger than L1 (64 KB) but within L2 (1 MB) produces L2 hits
        // on the second pass.
        let stride = 64u64;
        let lines = (256 * 1024) / stride; // 256 KB footprint
        for i in 0..lines {
            h.access_data(0x10_0000 + i * stride);
        }
        let mut l2_hits = 0;
        for i in 0..lines {
            if h.access_data(0x10_0000 + i * stride) == AccessOutcome::L2Hit {
                l2_hits += 1;
            }
        }
        assert!(
            l2_hits > (lines as usize) / 2,
            "expected mostly L2 hits, got {l2_hits}"
        );
    }

    #[test]
    fn instruction_and_data_share_l2() {
        let cfg = MachineConfig::default();
        let mut h = CacheHierarchy::new(&cfg);
        assert_eq!(h.access_instruction(0x8000), AccessOutcome::MemoryAccess);
        // The same line is now in L2, so a *data* access that misses L1D hits L2.
        assert_eq!(h.access_data(0x8000), AccessOutcome::L2Hit);
    }

    #[test]
    fn outcome_predicates() {
        assert!(!AccessOutcome::L1Hit.missed_l1());
        assert!(AccessOutcome::L2Hit.missed_l1());
        assert!(!AccessOutcome::L2Hit.missed_l2());
        assert!(AccessOutcome::MemoryAccess.missed_l2());
    }
}
