//! The on-disk artifact store with hit/miss accounting.
//!
//! A cache is a directory of content-addressed files (`<kind>-<hash>.bin`).
//! Reads and writes never fail an evaluation: any I/O or decode problem is
//! counted and treated as a miss, falling back to recomputation. Writes go
//! through a temporary file plus rename, so a concurrently reading process
//! never observes a half-written artifact.
//!
//! Construction is explicit ([`ArtifactCache::new`]) or environment-driven
//! ([`ArtifactCache::from_env`]): `MCD_CACHE_DIR` overrides the default
//! `.mcd-cache` directory (an empty value, `0` or `off` disables caching) and
//! `MCD_NO_CACHE=1` disables it outright.
//!
//! # Cross-process publication locking
//!
//! N evaluator *processes* may share one cache directory. Readers stay
//! lock-free (the tmp+rename protocol guarantees they only ever see complete
//! artifacts); what needs coordination is *publication*, so the same missing
//! key is not recomputed by every cold process at once. The protocol is
//! single-writer advisory locking: a would-be publisher takes the key's lock
//! file ([`ArtifactCache::lock_publication`]), re-checks the cache under the
//! lock (another process may have published while it waited), computes and
//! publishes only on a confirmed miss, and releases by dropping the
//! [`PublishGuard`]. Lock files left behind by a crashed process are stolen
//! after [`ArtifactCache::lock_stale`]. Waits are counted per kind in
//! [`CacheStats::lock_waits`], the store's contention gauge.
//!
//! # Crash consistency and self-healing
//!
//! Publication is crash-consistent: the payload goes to a `.tmp-*` file, is
//! fsynced so the bytes are durable before they become visible, and is then
//! renamed into place atomically — a reader can never observe a torn
//! artifact, and the trailing codec checksum backstops even a corrupted one.
//! Reads and writes run under a bounded, deterministic
//! [`RetryPolicy`] (counted in
//! [`ArtifactCache::retry_stats`]); when the budget is exhausted the read
//! side falls back to recomputation and the write side counts an error.
//! [`ArtifactCache::sweep_orphans`] (run automatically by
//! [`ArtifactCache::from_env`]) quarantines stale `.tmp-*` debris and
//! removes stale `.lock-*` files a crashed process left behind. All of it is
//! exercisable deterministically through an injected
//! [`FaultPlan`] ([`ArtifactCache::with_faults`]).

use crate::artifact::codec::{self, TrainingArtifact, TrainingHistogramsArtifact};
use crate::artifact::key::ArtifactKey;
use crate::error::McdError;
use crate::fault::plan::LOCK_STALL;
use crate::fault::{FaultPlan, FaultSite, RetryPolicy, RetryStats};
use crate::metrics::Metrics;
use crate::offline::OfflineSchedule;
use mcd_sim::freq::FrequencyGrid;
use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// Default cache directory, relative to the working directory (git-ignored).
pub const DEFAULT_CACHE_DIR: &str = ".mcd-cache";

/// Name of the append-only counter log inside the cache directory.
pub const STATS_LOG: &str = "stats.log";

/// Subdirectory where [`ArtifactCache::sweep_orphans`] parks stale `.tmp-*`
/// debris: out of the artifact namespace, preserved for post-mortem.
pub const QUARANTINE_DIR: &str = "quarantine";

/// Snapshot of a cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Artifacts found and successfully decoded.
    pub hits: u64,
    /// Lookups that found nothing usable (including decode failures).
    pub misses: u64,
    /// Artifacts written.
    pub writes: u64,
    /// I/O or decode errors encountered (each also counts as a miss).
    pub errors: u64,
    /// Publication-lock acquisitions that had to wait for (or steal from)
    /// another holder — the shared store's contention gauge.
    pub lock_waits: u64,
}

impl CacheStats {
    /// Total lookups served.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// The field-wise sum of `parts`.
    fn sum<'a>(parts: impl IntoIterator<Item = &'a CacheStats>) -> CacheStats {
        parts
            .into_iter()
            .fold(CacheStats::default(), |acc, s| CacheStats {
                hits: acc.hits + s.hits,
                misses: acc.misses + s.misses,
                writes: acc.writes + s.writes,
                errors: acc.errors + s.errors,
                lock_waits: acc.lock_waits + s.lock_waits,
            })
    }
}

/// One artifact file in the cache directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEntry {
    /// File name (`<kind>-<hash>.bin`).
    pub name: String,
    /// Artifact kind parsed from the file name.
    pub kind: String,
    /// File size in bytes.
    pub bytes: u64,
}

/// A content-addressed on-disk artifact cache.
///
/// Handles are shared through an `Arc` (the cache itself is not `Clone`, so
/// the counters cannot silently fork); the counters sit behind a lock so
/// concurrent evaluation threads can use one cache.
#[derive(Debug, Default)]
pub struct ArtifactCache {
    dir: Option<PathBuf>,
    /// Age after which another process's publication lock is presumed
    /// abandoned (crashed holder) and stolen; `None` means
    /// [`DEFAULT_LOCK_STALE`].
    lock_stale: Option<Duration>,
    /// The counters, one set per artifact kind; [`ArtifactCache::stats`] is
    /// their sum. The incremental re-analysis tests (and the CI smoke steps)
    /// assert on *which* kinds missed, not just how many lookups did.
    by_kind: Mutex<HashMap<&'static str, CacheStats>>,
    /// Fault-injection plan consulted on every read, write, and lock
    /// acquisition; the default plan is disabled and costs one boolean load.
    faults: Arc<FaultPlan>,
    /// Bounded retry schedule for transient read/write failures.
    retry: RetryPolicy,
    retry_retries: AtomicU64,
    retry_recovered: AtomicU64,
    retry_exhausted: AtomicU64,
}

/// Default age after which a publication lock is presumed abandoned. Long
/// enough for the heaviest single-key computation (a full capture/DAG/shaker
/// pass) by a wide margin, short enough that a crashed holder does not stall
/// a shared cache for long.
pub const DEFAULT_LOCK_STALE: Duration = Duration::from_secs(120);

/// Holds one key's publication lock; dropping it releases the lock (removes
/// the lock file). See the [module docs](self) for the protocol.
#[derive(Debug)]
pub struct PublishGuard {
    path: PathBuf,
}

impl Drop for PublishGuard {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Resolves the effective cache directory from environment-shaped inputs
/// (factored out of [`ArtifactCache::from_env`] so it can be tested without
/// mutating the process environment).
fn dir_from_settings(cache_dir: Option<&str>, no_cache: Option<&str>) -> Option<PathBuf> {
    if matches!(no_cache, Some("1")) {
        return None;
    }
    match cache_dir {
        Some(dir) if dir.is_empty() || dir == "0" || dir.eq_ignore_ascii_case("off") => None,
        Some(dir) => Some(PathBuf::from(dir)),
        None => Some(PathBuf::from(DEFAULT_CACHE_DIR)),
    }
}

impl ArtifactCache {
    /// Creates a cache rooted at `dir` (created lazily on first write).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ArtifactCache {
            dir: Some(dir.into()),
            ..ArtifactCache::default()
        }
    }

    /// Creates a disabled cache: every lookup misses, every store is a no-op,
    /// and no counters move. This is the library default, so evaluations have
    /// no filesystem side effects unless a cache is configured explicitly.
    pub fn disabled() -> Self {
        ArtifactCache::default()
    }

    /// Creates a cache from the environment: honours `MCD_NO_CACHE=1` and
    /// `MCD_CACHE_DIR` (empty/`0`/`off` disables), defaulting to
    /// [`DEFAULT_CACHE_DIR`].
    pub fn from_env() -> Self {
        let cache_dir = std::env::var("MCD_CACHE_DIR").ok();
        let no_cache = std::env::var("MCD_NO_CACHE").ok();
        match dir_from_settings(cache_dir.as_deref(), no_cache.as_deref()) {
            Some(dir) => {
                let cache = ArtifactCache::new(dir);
                // Self-heal on startup: debris from a crashed writer must
                // neither wedge this process (stale locks) nor linger as
                // pseudo-artifacts (stale temporaries).
                let _ = cache.sweep_orphans();
                cache
            }
            None => ArtifactCache::disabled(),
        }
    }

    /// Installs a fault-injection plan consulted on every read, write, and
    /// lock acquisition (see [`crate::fault`]). The default plan is disabled
    /// and reduces every hook to one boolean load.
    pub fn with_faults(mut self, faults: Arc<FaultPlan>) -> Self {
        self.faults = faults;
        self
    }

    /// Replaces the retry policy transient read/write failures run under
    /// (default: [`RetryPolicy::default`], three attempts with deterministic
    /// exponential backoff).
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Snapshot of the retry counters: re-attempts taken, operations that
    /// recovered on a retry, and operations that exhausted the budget.
    pub fn retry_stats(&self) -> RetryStats {
        RetryStats {
            retries: self.retry_retries.load(Ordering::Relaxed),
            recovered: self.retry_recovered.load(Ordering::Relaxed),
            exhausted: self.retry_exhausted.load(Ordering::Relaxed),
        }
    }

    /// Overrides the staleness age of publication locks (see
    /// [`ArtifactCache::lock_stale`]); mainly for tests, which cannot wait
    /// out the production default.
    pub fn with_lock_stale(mut self, age: Duration) -> Self {
        self.lock_stale = Some(age);
        self
    }

    /// Age after which another process's publication lock is presumed
    /// abandoned and stolen (default [`DEFAULT_LOCK_STALE`]).
    pub fn lock_stale(&self) -> Duration {
        self.lock_stale.unwrap_or(DEFAULT_LOCK_STALE)
    }

    /// The cache directory, or `None` when the cache is disabled.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// True when lookups can ever hit.
    pub fn is_enabled(&self) -> bool {
        self.dir.is_some()
    }

    /// The on-disk path an artifact with `key` would occupy.
    pub fn path_of(&self, key: &ArtifactKey) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(key.file_name()))
    }

    /// A snapshot of the cache's counters: the sum over every kind.
    pub fn stats(&self) -> CacheStats {
        let map = self.by_kind.lock().expect("kind-stats lock never poisoned");
        CacheStats::sum(map.values())
    }

    /// The counters of one artifact kind (zeros for a kind never looked up).
    pub fn kind_stats(&self, kind: &str) -> CacheStats {
        self.by_kind
            .lock()
            .expect("kind-stats lock never poisoned")
            .get(kind)
            .copied()
            .unwrap_or_default()
    }

    /// The cache's counters as [`Metrics`] series:
    /// `mcd_cache_{hits,misses,writes,errors,lock_waits}{kind="…"}` per kind
    /// touched, and `mcd_cache_retries_{taken,recovered,exhausted}`.
    pub fn metrics(&self) -> Metrics {
        let mut metrics = Metrics::default();
        let map = self.by_kind.lock().expect("kind-stats lock never poisoned");
        for (kind, s) in map.iter() {
            let kind = Some(("kind", *kind));
            metrics.add("mcd_cache_hits", kind, s.hits);
            metrics.add("mcd_cache_misses", kind, s.misses);
            metrics.add("mcd_cache_writes", kind, s.writes);
            metrics.add("mcd_cache_errors", kind, s.errors);
            metrics.add("mcd_cache_lock_waits", kind, s.lock_waits);
        }
        let r = self.retry_stats();
        metrics.add("mcd_cache_retries_taken", None, r.retries);
        metrics.add("mcd_cache_retries_recovered", None, r.recovered);
        metrics.add("mcd_cache_retries_exhausted", None, r.exhausted);
        metrics
    }

    fn for_kind(&self, kind: &'static str, update: impl FnOnce(&mut CacheStats)) {
        let mut map = self.by_kind.lock().expect("kind-stats lock never poisoned");
        update(map.entry(kind).or_default());
    }

    fn hit(&self, kind: &'static str) {
        self.for_kind(kind, |s| s.hits += 1);
    }

    fn miss(&self, kind: &'static str) {
        self.for_kind(kind, |s| s.misses += 1);
    }

    fn error(&self, kind: &'static str) {
        self.for_kind(kind, |s| s.errors += 1);
    }

    /// Takes the single-writer publication lock of `key`, blocking while
    /// another thread or process holds it. Returns `None` for a disabled
    /// cache — there is nothing to publish to, so the caller just computes.
    ///
    /// On contention the wait is counted once per acquisition in
    /// [`CacheStats::lock_waits`] (under the key's kind) and the lock file's
    /// age is checked each poll: one older than
    /// [`lock_stale`](ArtifactCache::lock_stale) is presumed abandoned by a
    /// crashed process and stolen. The caller MUST re-check the cache after
    /// acquiring — the previous holder usually published exactly the artifact
    /// this caller wanted to compute.
    pub fn lock_publication(&self, key: &ArtifactKey) -> Option<PublishGuard> {
        let dir = self.dir.as_ref()?;
        if self.faults.should(FaultSite::LockStall) {
            // A descheduled/slow acquirer: widens every race window the
            // publication protocol has without violating it.
            std::thread::sleep(LOCK_STALL);
        }
        let path = dir.join(format!(".lock-{}", key.file_name()));
        let mut waited = false;
        let mut backoff_ms = 1u64;
        let started = Instant::now();
        loop {
            let created = fs::create_dir_all(dir).and_then(|_| {
                fs::OpenOptions::new()
                    .write(true)
                    .create_new(true)
                    .open(&path)
            });
            match created {
                Ok(mut file) => {
                    use std::io::Write;
                    let _ = write!(file, "{}", std::process::id());
                    return Some(PublishGuard { path });
                }
                Err(err) if err.kind() == io::ErrorKind::AlreadyExists => {
                    if !waited {
                        waited = true;
                        self.for_kind(key.kind, |s| s.lock_waits += 1);
                    }
                    // Steal locks whose holder is gone: age from mtime, with
                    // a wall-clock fallback bound in case mtimes are
                    // unreadable (the lock file may vanish between the
                    // create attempt and this check — that is just release).
                    let age = fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|mtime| SystemTime::now().duration_since(mtime).ok());
                    let stale = match age {
                        Some(age) => age >= self.lock_stale(),
                        None => started.elapsed() >= self.lock_stale(),
                    };
                    if stale {
                        self.steal_lock(dir, &path);
                        continue;
                    }
                    std::thread::sleep(Duration::from_millis(backoff_ms));
                    backoff_ms = (backoff_ms * 2).min(50);
                }
                Err(_) => {
                    // Cannot create the lock file at all (permissions, read-
                    // only store). Proceed unlocked: correctness is kept by
                    // tmp+rename; only the no-duplicate-compute economy is
                    // lost.
                    self.error(key.kind);
                    return None;
                }
            }
        }
    }

    /// Steals a presumed-stale lock by renaming it aside under a unique name
    /// before deleting it: of N racing stealers only one rename succeeds
    /// (the rest loop back and contend on the ordinary `create_new` path),
    /// and the corpse's age is re-verified *after* the rename, so a lock
    /// freshly created between a racer's staleness verdict and its steal is
    /// put back instead of discarded.
    fn steal_lock(&self, dir: &Path, path: &Path) {
        static STEAL_SEQ: AtomicU64 = AtomicU64::new(0);
        let corpse = dir.join(format!(
            ".lock-steal-{}-{}",
            std::process::id(),
            STEAL_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        if fs::rename(path, &corpse).is_err() {
            // Another stealer won the rename, or the holder released.
            return;
        }
        let age = fs::metadata(&corpse)
            .and_then(|m| m.modified())
            .ok()
            .and_then(|mtime| SystemTime::now().duration_since(mtime).ok());
        match age {
            Some(age) if age < self.lock_stale() => {
                // We grabbed a *fresh* lock: between the staleness verdict
                // and our rename, someone else completed the steal and
                // re-created the lock. Restore it.
                let _ = fs::rename(&corpse, path);
            }
            _ => {
                let _ = fs::remove_file(&corpse);
            }
        }
    }

    /// One read attempt: `Ok(None)` is a clean not-found (never retried);
    /// `Err` is a retryable failure, injected or real.
    fn read_attempt(&self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        if self.faults.should(FaultSite::ArtifactRead) {
            return Err(io::Error::other("injected artifact-read fault"));
        }
        match fs::read(path) {
            Ok(mut bytes) => {
                if self.faults.should(FaultSite::ShortRead) {
                    // A truncated read: the codec's trailing checksum is what
                    // turns this into a detected (and retried) failure.
                    bytes.truncate(bytes.len() / 2);
                }
                Ok(Some(bytes))
            }
            Err(err) if err.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(err) => Err(err),
        }
    }

    /// Runs one fallible operation under the retry policy: failed attempts
    /// back off deterministically and re-run until an attempt succeeds or the
    /// budget is spent, with the counters behind
    /// [`retry_stats`](Self::retry_stats) tracking every step.
    fn with_retries<T>(
        &self,
        site: FaultSite,
        mut op: impl FnMut() -> Result<T, ()>,
    ) -> Result<T, McdError> {
        let attempts = self.retry.attempts();
        for attempt in 1..=attempts {
            match op() {
                Ok(value) => {
                    if attempt > 1 {
                        self.retry_recovered.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(value);
                }
                Err(()) if attempt < attempts => {
                    self.retry_retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(self.retry.backoff(attempt));
                }
                Err(()) => {}
            }
        }
        self.retry_exhausted.fetch_add(1, Ordering::Relaxed);
        Err(McdError::Io {
            site,
            retries: attempts - 1,
        })
    }

    /// Read plus decode under the retry policy. A decode failure is retried
    /// like an I/O error — a short or torn read looks exactly like corruption
    /// from here, and re-reading is what recovers the transient case — while
    /// not-found returns immediately.
    fn read_decoded<T>(
        &self,
        key: &ArtifactKey,
        decode: impl Fn(&[u8]) -> Result<T, codec::CodecError>,
    ) -> Result<Option<T>, McdError> {
        let Some(path) = self.path_of(key) else {
            return Ok(None);
        };
        self.with_retries(FaultSite::ArtifactRead, || match self.read_attempt(&path) {
            Ok(None) => Ok(None),
            Ok(Some(bytes)) => match decode(&bytes) {
                Ok(value) => Ok(Some(value)),
                Err(_) => Err(()),
            },
            Err(_) => Err(()),
        })
    }

    /// The shared lookup path: read, decode, count. A found-but-undecodable
    /// artifact (after the retry budget) counts as an error plus a miss and
    /// falls back to recomputation.
    fn load_with<T>(
        &self,
        key: &ArtifactKey,
        decode: impl Fn(&[u8]) -> Result<T, codec::CodecError>,
    ) -> Option<T> {
        if !self.is_enabled() {
            return None;
        }
        match self.read_decoded(key, decode) {
            Ok(Some(value)) => {
                self.hit(key.kind);
                Some(value)
            }
            Ok(None) => {
                self.miss(key.kind);
                None
            }
            Err(_) => {
                self.error(key.kind);
                self.miss(key.kind);
                None
            }
        }
    }

    /// The quiet lookup path of the publication protocol: the caller already
    /// counted its miss before taking the lock, so the mandatory under-lock
    /// re-check must not distort the counters. Failures are silent (the
    /// caller recomputes, and the counted path already reported them).
    fn recheck_with<T>(
        &self,
        key: &ArtifactKey,
        decode: impl Fn(&[u8]) -> Result<T, codec::CodecError>,
    ) -> Option<T> {
        self.read_decoded(key, decode).ok().flatten()
    }

    /// Quiet re-check of a packed trace: the publication protocol's
    /// under-lock lookup, which leaves the counters untouched.
    pub fn recheck_trace(&self, key: &ArtifactKey) -> Option<mcd_sim::trace::PackedTrace> {
        self.recheck_with(key, codec::decode_trace)
    }

    /// The single-writer publication ladder every computed artifact goes
    /// through: a counted load; on a miss, the key's publication lock and a
    /// quiet re-check (a concurrent process may have published it while this
    /// one waited); only then `compute`, and store the result. Every store
    /// happens under the lock after a confirmed miss, so N cold processes
    /// sharing this cache write each key exactly once. A `compute` that
    /// publishes an input artifact of its own nests a second ladder, so
    /// locks are always taken derived key → input key and cannot deadlock.
    ///
    /// A disabled cache runs the same ladder: its loads miss uncounted, its
    /// lock is `None` and its store does nothing.
    pub(crate) fn publish<T>(
        &self,
        key: &ArtifactKey,
        decode: impl Fn(&[u8]) -> Result<T, codec::CodecError>,
        encode: impl FnOnce(&T) -> Vec<u8>,
        compute: impl FnOnce() -> T,
    ) -> T {
        if let Some(value) = self.load_with(key, &decode) {
            return value;
        }
        let _lock = self.lock_publication(key);
        if let Some(value) = self.recheck_with(key, &decode) {
            return value;
        }
        let value = compute();
        if self.is_enabled() {
            self.store_raw(key, &encode(&value));
        }
        value
    }

    /// One crash-consistent publication attempt: payload to a temporary
    /// file, fsync so the bytes are durable before they become visible, then
    /// the atomic rename that publishes.
    fn store_attempt(&self, dir: &Path, tmp: &Path, path: &Path, payload: &[u8]) -> io::Result<()> {
        if self.faults.should(FaultSite::ArtifactWrite) {
            return Err(io::Error::other("injected artifact-write fault"));
        }
        fs::create_dir_all(dir)?;
        if self.faults.should(FaultSite::TornWrite) {
            // A simulated crash mid-write: a prefix reaches the temporary
            // file and the publishing rename never happens. Readers cannot
            // observe it (they only ever see `path`), and the next attempt
            // rewrites the temporary from scratch.
            let _ = fs::write(tmp, &payload[..payload.len() / 2]);
            return Err(io::Error::other("injected torn write"));
        }
        let mut file = fs::File::create(tmp)?;
        {
            use std::io::Write as _;
            file.write_all(payload)?;
        }
        file.sync_all()?;
        drop(file);
        fs::rename(tmp, path)
    }

    /// Stores `payload` under `key` atomically (write to a temporary file,
    /// fsync, then rename) under the retry policy. Errors are counted, never
    /// propagated; a writer whose budget is spent removes its temporary so
    /// only a genuine crash strands one (and the startup sweep quarantines
    /// those).
    fn store_raw(&self, key: &ArtifactKey, payload: &[u8]) {
        let Some(path) = self.path_of(key) else {
            return;
        };
        let Some(dir) = self.dir.as_ref() else {
            return;
        };
        let tmp = dir.join(format!(".tmp-{}-{}", std::process::id(), key.file_name()));
        let written = self.with_retries(FaultSite::ArtifactWrite, || {
            self.store_attempt(dir, &tmp, &path, payload)
                .map_err(|_| ())
        });
        match written {
            Ok(()) => self.for_kind(key.kind, |s| s.writes += 1),
            Err(_) => {
                let _ = fs::remove_file(&tmp);
                self.error(key.kind);
            }
        }
    }

    /// Sweeps debris a crashed process left in the cache directory:
    /// temporary files and publication locks older than
    /// [`lock_stale`](Self::lock_stale). Stale `.tmp-*` files are
    /// *quarantined* — moved into [`QUARANTINE_DIR`], out of the artifact
    /// namespace but preserved for post-mortem — and stale `.lock-*` files
    /// are removed so no key starts life wedged behind a dead writer. Fresh
    /// temporaries and locks belong to live writers (possibly in other
    /// processes) and are left untouched. Returns
    /// `(quarantined, locks_removed)`.
    pub fn sweep_orphans(&self) -> (usize, usize) {
        let Some(dir) = self.dir.as_ref() else {
            return (0, 0);
        };
        let Ok(read) = fs::read_dir(dir) else {
            return (0, 0);
        };
        let stale_age = self.lock_stale();
        let mut quarantined = 0;
        let mut locks_removed = 0;
        for entry in read.filter_map(|e| e.ok()) {
            let name = entry.file_name().to_string_lossy().into_owned();
            let is_tmp = name.starts_with(".tmp-");
            let is_lock = name.starts_with(".lock-");
            if !is_tmp && !is_lock {
                continue;
            }
            let age = entry
                .metadata()
                .and_then(|m| m.modified())
                .ok()
                .and_then(|mtime| SystemTime::now().duration_since(mtime).ok());
            if !matches!(age, Some(age) if age >= stale_age) {
                continue;
            }
            let path = entry.path();
            if is_tmp {
                let qdir = dir.join(QUARANTINE_DIR);
                let moved =
                    fs::create_dir_all(&qdir).and_then(|_| fs::rename(&path, qdir.join(&name)));
                if moved.is_ok() {
                    quarantined += 1;
                }
            } else if fs::remove_file(&path).is_ok() {
                locks_removed += 1;
            }
        }
        (quarantined, locks_removed)
    }

    /// Looks up an off-line schedule (a hit, or a miss; an undecodable
    /// artifact also counts an error).
    pub fn load_schedule(&self, key: &ArtifactKey) -> Option<OfflineSchedule> {
        self.load_with(key, codec::decode_schedule)
    }

    /// Stores an off-line schedule under `key`.
    pub fn store_schedule(&self, key: &ArtifactKey, schedule: &OfflineSchedule) {
        if self.is_enabled() {
            self.store_raw(key, &codec::encode_schedule(schedule));
        }
    }

    /// Looks up a cached packed trace (a hit, or a miss; an undecodable
    /// artifact also counts an error).
    pub fn load_trace(&self, key: &ArtifactKey) -> Option<mcd_sim::trace::PackedTrace> {
        self.load_with(key, codec::decode_trace)
    }

    /// Stores a packed trace under `key`.
    pub fn store_trace(&self, key: &ArtifactKey, trace: &mcd_sim::trace::PackedTrace) {
        if self.is_enabled() {
            self.store_raw(key, &codec::encode_trace(trace));
        }
    }

    /// Looks up a training artifact (a hit, or a miss; an undecodable
    /// artifact also counts an error).
    pub fn load_training(&self, key: &ArtifactKey) -> Option<TrainingArtifact> {
        self.load_with(key, codec::decode_training)
    }

    /// Stores a training artifact under `key`.
    pub fn store_training(&self, key: &ArtifactKey, artifact: &TrainingArtifact) {
        if self.is_enabled() {
            self.store_raw(key, &codec::encode_training(artifact));
        }
    }

    /// Looks up the per-region training histograms — the slowdown-independent
    /// half of profile training.
    pub fn load_training_histograms(
        &self,
        key: &ArtifactKey,
        grid: &FrequencyGrid,
    ) -> Option<TrainingHistogramsArtifact> {
        self.load_with(key, |bytes| codec::decode_training_histograms(bytes, grid))
    }

    /// Lists the artifact files currently in the cache directory, sorted by
    /// name. A disabled or not-yet-created cache lists as empty.
    pub fn entries(&self) -> Vec<CacheEntry> {
        let Some(dir) = self.dir.as_ref() else {
            return Vec::new();
        };
        let Ok(read) = fs::read_dir(dir) else {
            return Vec::new();
        };
        let mut entries: Vec<CacheEntry> = read
            .filter_map(|e| e.ok())
            .filter_map(|e| {
                let name = e.file_name().to_string_lossy().into_owned();
                // Only finished artifacts: skip the stats log and any
                // `.tmp-*` leftovers from interrupted writes.
                if !name.ends_with(".bin") || name.starts_with('.') {
                    return None;
                }
                let kind = name
                    .rsplit_once('-')
                    .map(|(kind, _)| kind.to_string())
                    .unwrap_or_else(|| "unknown".to_string());
                let bytes = e.metadata().ok()?.len();
                Some(CacheEntry { name, kind, bytes })
            })
            .collect();
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        entries
    }

    /// Appends this process's counter snapshot ([`ArtifactCache::metrics`])
    /// to the cache directory's `stats.log`, so `cache_stats` can report
    /// hit/miss behaviour across processes. A no-op for disabled caches and
    /// for a cache that was never used.
    pub fn flush_stats_log(&self) {
        let Some(dir) = self.dir.as_ref() else {
            return;
        };
        let s = self.stats();
        if s.lookups() == 0 && s.writes == 0 {
            return;
        }
        let log = self.metrics().to_string();
        let _ = fs::create_dir_all(dir).and_then(|_| {
            use std::io::Write;
            fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(dir.join(STATS_LOG))
                .and_then(|mut f| f.write_all(log.as_bytes()))
        });
    }

    /// Every snapshot recorded in `dir`'s `stats.log`, merged across the
    /// processes that flushed there ([`Metrics::parse`]). Lines it cannot
    /// read are skipped: a last line a crash left half-written, and the
    /// `kind=… hits=…` lines older builds wrote.
    pub fn recorded_metrics(dir: &Path) -> Metrics {
        fs::read(dir.join(STATS_LOG))
            .map(|log| Metrics::parse(&String::from_utf8_lossy(&log)))
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::artifact::key::offline_schedule_key;
    use crate::fault::FaultConfig;
    use crate::histogram::RegionHistograms;
    use crate::offline::OfflineConfig;
    use mcd_sim::config::MachineConfig;
    use mcd_sim::reconfig::FrequencySetting;
    use mcd_sim::time::MegaHertz;
    use mcd_workloads::input::InputSet;
    use std::sync::atomic::AtomicU64;

    fn unique_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("mcd-cache-test-{tag}-{}-{n}", std::process::id()))
    }

    fn sample_key() -> ArtifactKey {
        offline_schedule_key(
            "mcf",
            &InputSet::reference(10_000),
            10_000,
            &MachineConfig::default(),
            &OfflineConfig::default(),
        )
    }

    fn sample_schedule() -> OfflineSchedule {
        OfflineSchedule::from_settings(vec![
            FrequencySetting::full_speed(),
            FrequencySetting::full_speed()
                .with(mcd_sim::domain::Domain::Memory, MegaHertz::new(475.0)),
        ])
    }

    #[test]
    fn store_then_load_round_trips_and_counts() {
        let dir = unique_dir("roundtrip");
        let cache = ArtifactCache::new(&dir);
        let key = sample_key();
        assert_eq!(cache.load_schedule(&key), None);
        cache.store_schedule(&key, &sample_schedule());
        assert_eq!(cache.load_schedule(&key), Some(sample_schedule()));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.writes, s.errors), (1, 1, 1, 0));
        assert_eq!(s.lookups(), 2);
        let entries = cache.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].kind, "offline-schedule");
        assert!(entries[0].bytes > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn disabled_cache_is_inert() {
        let cache = ArtifactCache::disabled();
        let key = sample_key();
        assert!(!cache.is_enabled());
        assert_eq!(cache.path_of(&key), None);
        cache.store_schedule(&key, &sample_schedule());
        assert_eq!(cache.load_schedule(&key), None);
        assert_eq!(cache.stats(), CacheStats::default());
        assert!(cache.entries().is_empty());
    }

    #[test]
    fn corrupted_artifact_counts_an_error_and_misses() {
        let dir = unique_dir("corrupt");
        let cache = ArtifactCache::new(&dir);
        let key = sample_key();
        cache.store_schedule(&key, &sample_schedule());
        fs::write(cache.path_of(&key).unwrap(), b"garbage").unwrap();
        assert_eq!(cache.load_schedule(&key), None);
        let s = cache.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 1);
        assert_eq!(s.errors, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn entries_skip_temporary_and_log_files() {
        let dir = unique_dir("tmpskip");
        let cache = ArtifactCache::new(&dir);
        let key = sample_key();
        cache.store_schedule(&key, &sample_schedule());
        // A leftover from an interrupted write and the stats log must not be
        // reported as artifacts.
        fs::write(
            dir.join(format!(".tmp-999-{}", key.file_name())),
            b"partial",
        )
        .unwrap();
        let _ = cache.load_schedule(&key);
        cache.flush_stats_log();
        let entries = cache.entries();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].name, key.file_name());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn per_kind_counters_separate_artifact_families() {
        let dir = unique_dir("kinds");
        let cache = ArtifactCache::new(&dir);
        let key = sample_key();
        assert_eq!(cache.load_schedule(&key), None);
        cache.store_schedule(&key, &sample_schedule());
        assert_eq!(cache.load_schedule(&key), Some(sample_schedule()));

        let grid = mcd_sim::freq::FrequencyGrid::default();
        let hist_key = crate::artifact::key::window_histograms_key(
            "mcf",
            &InputSet::reference(10_000),
            10_000,
            &MachineConfig::default(),
            &OfflineConfig::default(),
        );
        let windows = vec![None, Some(RegionHistograms::new(&grid))];
        let publish = |compute: &dyn Fn() -> Vec<Option<RegionHistograms>>| {
            cache.publish(
                &hist_key,
                |bytes| codec::decode_window_histograms(bytes, &grid),
                |windows| codec::encode_window_histograms(windows, grid.len()),
                compute,
            )
        };
        // A miss computes and stores; the next publication loads it back.
        assert_eq!(publish(&|| windows.clone()).len(), 2);
        let loaded = publish(&|| unreachable!("the stored histograms are a hit"));
        assert_eq!(loaded.len(), 2);
        assert!(loaded[0].is_none());

        let sched = cache.kind_stats("offline-schedule");
        assert_eq!((sched.hits, sched.misses, sched.writes), (1, 1, 1));
        let hist = cache.kind_stats("window-histograms");
        assert_eq!((hist.hits, hist.misses, hist.writes), (1, 1, 1));
        assert_eq!(cache.kind_stats("training-plan"), CacheStats::default());
        // The global counters are the per-kind sums.
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.writes), (2, 2, 2));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn env_dir_resolution_rules() {
        assert_eq!(
            dir_from_settings(None, None),
            Some(PathBuf::from(DEFAULT_CACHE_DIR))
        );
        assert_eq!(
            dir_from_settings(Some("/tmp/x"), None),
            Some(PathBuf::from("/tmp/x"))
        );
        assert_eq!(dir_from_settings(Some(""), None), None);
        assert_eq!(dir_from_settings(Some("0"), None), None);
        assert_eq!(dir_from_settings(Some("OFF"), None), None);
        assert_eq!(dir_from_settings(Some("/tmp/x"), Some("1")), None);
        assert_eq!(
            dir_from_settings(None, Some("0")),
            Some(PathBuf::from(DEFAULT_CACHE_DIR))
        );
    }

    fn fast_retry() -> RetryPolicy {
        RetryPolicy::default().with_base(Duration::from_micros(100))
    }

    #[test]
    fn read_faults_exhaust_retries_and_fall_back_to_recompute() {
        let dir = unique_dir("readfault");
        let key = sample_key();
        ArtifactCache::new(&dir).store_schedule(&key, &sample_schedule());
        let plan = Arc::new(FaultPlan::new(
            FaultConfig::default().with_probability(FaultSite::ArtifactRead, 1.0),
        ));
        let cache = ArtifactCache::new(&dir)
            .with_faults(plan)
            .with_retry(fast_retry());
        assert_eq!(cache.load_schedule(&key), None, "falls back to recompute");
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.errors), (0, 1, 1));
        let r = cache.retry_stats();
        assert_eq!((r.retries, r.recovered, r.exhausted), (2, 0, 1));
        // The artifact itself is untouched: a clean handle still reads it.
        assert_eq!(
            ArtifactCache::new(&dir).load_schedule(&key),
            Some(sample_schedule())
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_short_read_recovers_on_retry() {
        // Deterministically pick a seed whose ShortRead sequence starts
        // fire-then-clean: the first attempt reads a truncated payload (the
        // codec checksum rejects it) and the retry reads the intact file.
        let config = |seed| {
            FaultConfig {
                seed,
                ..FaultConfig::default()
            }
            .with_probability(FaultSite::ShortRead, 0.5)
        };
        let seed = (0..200)
            .find(|&s| {
                let probe = FaultPlan::new(config(s));
                probe.should(FaultSite::ShortRead) && !probe.should(FaultSite::ShortRead)
            })
            .expect("a fire-then-clean seed among 200 candidates");
        let dir = unique_dir("shortread");
        let key = sample_key();
        ArtifactCache::new(&dir).store_schedule(&key, &sample_schedule());
        let cache = ArtifactCache::new(&dir)
            .with_faults(Arc::new(FaultPlan::new(config(seed))))
            .with_retry(fast_retry());
        assert_eq!(cache.load_schedule(&key), Some(sample_schedule()));
        let s = cache.stats();
        assert_eq!(
            (s.hits, s.errors),
            (1, 0),
            "a recovered read is a clean hit"
        );
        let r = cache.retry_stats();
        assert_eq!(r.recovered, 1);
        assert!(r.retries >= 1);
        assert_eq!(r.exhausted, 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_writes_exhaust_the_budget_and_strand_nothing() {
        let dir = unique_dir("tornwrite");
        let key = sample_key();
        let plan = Arc::new(FaultPlan::new(
            FaultConfig::default().with_probability(FaultSite::TornWrite, 1.0),
        ));
        let cache = ArtifactCache::new(&dir)
            .with_faults(plan)
            .with_retry(fast_retry());
        cache.store_schedule(&key, &sample_schedule());
        let s = cache.stats();
        assert_eq!((s.writes, s.errors), (0, 1));
        assert_eq!(cache.retry_stats().exhausted, 1);
        // No published artifact — the rename never ran — and no stranded
        // temporary: the failed writer cleans up after itself.
        assert!(!cache.path_of(&key).unwrap().exists());
        let leftovers: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "stranded temporaries: {leftovers:?}");
        // A clean handle then publishes the key normally.
        ArtifactCache::new(&dir).store_schedule(&key, &sample_schedule());
        assert_eq!(
            ArtifactCache::new(&dir).load_schedule(&key),
            Some(sample_schedule())
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sweep_quarantines_stale_debris_and_spares_fresh_files() {
        let dir = unique_dir("sweep");
        let cache = ArtifactCache::new(&dir).with_lock_stale(Duration::from_millis(100));
        let key = sample_key();
        cache.store_schedule(&key, &sample_schedule());
        fs::write(dir.join(".tmp-999-stranded.bin"), b"partial").unwrap();
        fs::write(dir.join(".lock-stranded.bin"), b"999").unwrap();
        std::thread::sleep(Duration::from_millis(250));
        fs::write(dir.join(".tmp-999-fresh.bin"), b"in flight").unwrap();
        fs::write(dir.join(".lock-fresh.bin"), b"999").unwrap();
        assert_eq!(cache.sweep_orphans(), (1, 1));
        // The stale temporary is preserved in quarantine, the stale lock is
        // simply gone, and the fresh pair (a live writer, possibly in another
        // process) is untouched.
        assert!(dir
            .join(QUARANTINE_DIR)
            .join(".tmp-999-stranded.bin")
            .exists());
        assert!(!dir.join(".tmp-999-stranded.bin").exists());
        assert!(!dir.join(".lock-stranded.bin").exists());
        assert!(dir.join(".tmp-999-fresh.bin").exists());
        assert!(dir.join(".lock-fresh.bin").exists());
        // The published artifact (older than the threshold, but not debris)
        // survives and still loads.
        assert_eq!(cache.load_schedule(&key), Some(sample_schedule()));
        // A second sweep finds nothing stale left.
        assert_eq!(cache.sweep_orphans(), (0, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn publication_lock_is_released_when_the_holder_panics() {
        let dir = unique_dir("lockpanic");
        let cache = ArtifactCache::new(&dir);
        let key = sample_key();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = cache.lock_publication(&key).expect("uncontended lock");
            panic!("worker dies mid-publication");
        }));
        assert!(result.is_err());
        // RAII released the lock during unwinding: no lock file survives and
        // re-acquisition is immediate, not a stale-steal wait.
        assert!(!dir.join(format!(".lock-{}", key.file_name())).exists());
        let started = Instant::now();
        let guard = cache.lock_publication(&key).expect("lock is free again");
        assert!(started.elapsed() < Duration::from_millis(50));
        drop(guard);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lock_stall_injection_delays_acquisition() {
        let dir = unique_dir("lockstall");
        let plan = Arc::new(FaultPlan::new(
            FaultConfig::default().with_probability(FaultSite::LockStall, 1.0),
        ));
        let cache = ArtifactCache::new(&dir).with_faults(Arc::clone(&plan));
        let started = Instant::now();
        let guard = cache.lock_publication(&sample_key());
        assert!(started.elapsed() >= LOCK_STALL);
        drop(guard);
        assert_eq!(plan.stats().injected_at(FaultSite::LockStall), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stats_log_aggregates_across_flushes() {
        let dir = unique_dir("statslog");
        let cache = ArtifactCache::new(&dir);
        let key = sample_key();
        cache.store_schedule(&key, &sample_schedule());
        let _ = cache.load_schedule(&key);
        // A line an older build wrote is skipped, not counted.
        fs::write(
            dir.join(STATS_LOG),
            "kind=offline-schedule hits=5 misses=0 writes=0 errors=0 lock_waits=0\n",
        )
        .unwrap();
        cache.flush_stats_log();
        cache.flush_stats_log();
        let total = ArtifactCache::recorded_metrics(&dir);
        assert_eq!(total.total("mcd_cache_hits"), 2);
        assert_eq!(total.total("mcd_cache_writes"), 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn totals_are_the_sum_of_the_kinds_in_memory_and_in_the_log() {
        let dir = unique_dir("totals");
        let cache = ArtifactCache::new(&dir);
        // A miss, a write and a hit on one kind ...
        let key = sample_key();
        assert_eq!(cache.load_schedule(&key), None);
        cache.store_schedule(&key, &sample_schedule());
        assert!(cache.load_schedule(&key).is_some());
        // ... a decode error on another ...
        let grid = mcd_sim::freq::FrequencyGrid::default();
        let hist_key = crate::artifact::key::window_histograms_key(
            "mcf",
            &InputSet::reference(10_000),
            10_000,
            &MachineConfig::default(),
            &OfflineConfig::default(),
        );
        fs::write(cache.path_of(&hist_key).unwrap(), b"garbage").unwrap();
        // (The publication ladder recomputes it and overwrites the garbage.)
        let recomputed = cache.publish(
            &hist_key,
            |bytes| codec::decode_window_histograms(bytes, &grid),
            |windows| codec::encode_window_histograms(windows, grid.len()),
            Vec::new,
        );
        assert!(recomputed.is_empty());
        // ... and a lock wait: a second thread blocks on a held lock.
        let guard = cache.lock_publication(&key).expect("uncontended lock");
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| drop(cache.lock_publication(&key)));
            while cache.stats().lock_waits == 0 {
                std::thread::sleep(Duration::from_millis(1));
            }
            drop(guard);
            waiter.join().unwrap();
        });

        let s = cache.stats();
        assert_eq!(
            (s.hits, s.misses, s.writes, s.errors, s.lock_waits),
            (1, 2, 2, 1, 1)
        );
        let totals = |m: &Metrics| CacheStats {
            hits: m.total("mcd_cache_hits"),
            misses: m.total("mcd_cache_misses"),
            writes: m.total("mcd_cache_writes"),
            errors: m.total("mcd_cache_errors"),
            lock_waits: m.total("mcd_cache_lock_waits"),
        };
        let metrics = cache.metrics();
        let rendered = metrics.to_string();
        let kinds = rendered
            .lines()
            .filter(|l| l.starts_with("mcd_cache_hits{"));
        assert_eq!(kinds.count(), 2);
        assert_eq!(totals(&metrics), s);
        let by_kind = ["offline-schedule", "window-histograms"].map(|k| cache.kind_stats(k));
        assert_eq!(CacheStats::sum(&by_kind), s);
        cache.flush_stats_log();
        assert_eq!(ArtifactCache::recorded_metrics(&dir), metrics);
        assert_eq!(totals(&ArtifactCache::recorded_metrics(&dir)), s);
        let _ = fs::remove_dir_all(&dir);
    }
}
