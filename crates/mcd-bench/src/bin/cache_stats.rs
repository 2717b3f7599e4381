//! Inspect the artifact cache: entries, sizes, and accumulated counters.
//!
//! The cache directory is resolved exactly as the figure binaries resolve it
//! (`MCD_CACHE_DIR`, default `.mcd-cache/`). After the entries table come
//! the counters every process that used the directory recorded in its
//! `stats.log` ([`ArtifactCache::recorded_metrics`]), in the figure
//! binaries' `series value` format, `lock_waits` (publication-lock
//! contention) included. `just cache-clean` removes the directory.

use mcd_bench::run_main;
use mcd_dvfs::artifact::ArtifactCache;
use mcd_dvfs::error::McdError;
use std::collections::BTreeMap;
use std::process::ExitCode;

fn human_bytes(bytes: u64) -> String {
    if bytes >= 1024 * 1024 {
        format!("{:.1} MiB", bytes as f64 / (1024.0 * 1024.0))
    } else if bytes >= 1024 {
        format!("{:.1} KiB", bytes as f64 / 1024.0)
    } else {
        format!("{bytes} B")
    }
}

fn main() -> ExitCode {
    run_main(|| {
        let cache = ArtifactCache::from_env();
        let Some(dir) = cache.dir() else {
            println!("artifact cache is disabled (MCD_NO_CACHE / MCD_CACHE_DIR)");
            return Ok(());
        };
        println!("artifact cache: {}", dir.display());
        println!();

        let entries = cache.entries();
        if entries.is_empty() {
            println!("(no cached artifacts)");
        } else {
            let mut by_kind: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
            for e in &entries {
                let slot = by_kind.entry(e.kind.as_str()).or_default();
                slot.0 += 1;
                slot.1 += e.bytes;
            }
            println!("{:<20} {:>8} {:>12}", "kind", "entries", "bytes");
            println!("{}", "-".repeat(44));
            for (kind, (count, bytes)) in &by_kind {
                println!("{kind:<20} {count:>8} {:>12}", human_bytes(*bytes));
            }
            let total: u64 = entries.iter().map(|e| e.bytes).sum();
            println!();
            println!(
                "{} artifact(s), {} total",
                entries.len(),
                human_bytes(total)
            );
        }

        let recorded = ArtifactCache::recorded_metrics(dir).to_string();
        println!();
        if recorded.is_empty() {
            println!("no recorded counters (run a figure binary to populate stats.log)");
        }
        print!("{recorded}");
        Ok::<(), McdError>(())
    })
}
