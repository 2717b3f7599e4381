//! Integration tests for the staged analysis pipeline and the
//! content-addressed artifact cache: window-parallel determinism, cache
//! round-trips, corruption/version fallback, and transparent reuse through
//! the registry-driven evaluation path.

use mcd_dvfs::artifact::{self, codec, ArtifactCache};
use mcd_dvfs::evaluation::{BenchmarkEvaluation, EvaluationConfig};
use mcd_dvfs::offline::OfflineConfig;
use mcd_dvfs::pipeline::AnalysisPipeline;
use mcd_dvfs::service::{EvalJob, Evaluator};
use mcd_sim::config::MachineConfig;
use mcd_sim::trace::PackedTrace;
use mcd_workloads::generator::generate_packed;
use mcd_workloads::suite;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A unique, disposable cache directory under the system temp dir.
struct TempCacheDir {
    path: PathBuf,
}

impl TempCacheDir {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "mcd-pipeline-test-{tag}-{}-{n}",
            std::process::id()
        ));
        TempCacheDir { path }
    }

    fn cache(&self) -> Arc<ArtifactCache> {
        Arc::new(ArtifactCache::new(&self.path))
    }
}

impl Drop for TempCacheDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Evaluates one benchmark through a single-use [`Evaluator`] service, so
/// these tests also cover the service threading the artifact cache through.
fn evaluate(
    bench: &mcd_workloads::suite::Benchmark,
    config: &EvaluationConfig,
) -> BenchmarkEvaluation {
    Evaluator::builder()
        .config(config.clone())
        .workers(1)
        .build()
        .submit(EvalJob::new(bench.clone()))
        .collect()
        .expect("evaluation succeeds")
        .remove(0)
}

fn small_trace() -> PackedTrace {
    let bench = suite::benchmark("gsm decode").expect("known benchmark");
    generate_packed(&bench.program, &bench.inputs.training).truncated(60_000)
}

fn assert_evaluations_bit_identical(a: &BenchmarkEvaluation, b: &BenchmarkEvaluation) {
    assert_eq!(a.name, b.name);
    assert_eq!(a.baseline.run_time, b.baseline.run_time);
    assert_eq!(a.schemes.len(), b.schemes.len());
    for (x, y) in a.schemes.iter().zip(&b.schemes) {
        assert_eq!(x.name, y.name);
        assert_eq!(
            x.result.stats.run_time.as_ns().to_bits(),
            y.result.stats.run_time.as_ns().to_bits(),
            "scheme {} diverged in run time",
            x.name
        );
        assert_eq!(
            x.result.stats.total_energy.as_units().to_bits(),
            y.result.stats.total_energy.as_units().to_bits(),
            "scheme {} diverged in energy",
            x.name
        );
        assert_eq!(x.result.metrics, y.result.metrics);
    }
}

#[test]
fn window_parallel_analysis_is_deterministic_across_parallelism_levels() {
    let trace = small_trace();
    let machine = MachineConfig::default();
    let config = OfflineConfig::default();
    let serial = AnalysisPipeline::new(config).run(&trace, &machine);
    assert!(!serial.schedule.is_empty());
    // At least three distinct parallelism levels, including counts that do
    // not divide the window count evenly.
    for workers in [2, 3, 5, 16] {
        let parallel = AnalysisPipeline::new(config)
            .with_parallelism(workers)
            .run(&trace, &machine);
        assert_eq!(
            serial.schedule, parallel.schedule,
            "schedule diverged at parallelism={workers}"
        );
        assert_eq!(
            serial.stats.run_time.as_ns().to_bits(),
            parallel.stats.run_time.as_ns().to_bits(),
            "replay diverged at parallelism={workers}"
        );
    }
}

/// The streaming capture stage holds O(window) events, not O(trace): a long
/// trace analysed with a small window budget must never have more than a few
/// windows' worth of primitive events resident, serially (one reused buffer)
/// or in the bounded-channel parallel path.
#[test]
fn streaming_capture_memory_is_bounded_by_the_window() {
    let trace = small_trace();
    let machine = MachineConfig::default();
    let config = OfflineConfig {
        window_instructions: 1_000,
        ..OfflineConfig::default()
    };
    let simulator = mcd_sim::simulator::Simulator::new(machine.clone());
    let window_events = 1_000 * mcd_sim::events::EVENTS_PER_INSTRUCTION;
    let total_events = trace.instructions() as usize * mcd_sim::events::EVENTS_PER_INSTRUCTION;

    let (schedule, report) = AnalysisPipeline::new(config).analyze_with_report(&simulator, &trace);
    assert_eq!(report.windows as usize, schedule.len());
    assert!(report.windows > 40, "the trace spans many windows");
    assert!(
        report.peak_resident_events <= 2 * window_events,
        "serial capture must reuse one window buffer: peak {} vs window {}",
        report.peak_resident_events,
        window_events
    );
    assert!(report.peak_resident_events * 10 < total_events);

    // The parallel path buffers at most the channel bound plus in-flight
    // windows — still independent of the trace length — and the schedule is
    // bit-identical.
    let workers = 4;
    let (parallel_schedule, parallel_report) = AnalysisPipeline::new(config)
        .with_parallelism(workers)
        .analyze_with_report(&simulator, &trace);
    assert_eq!(parallel_schedule, schedule);
    assert!(
        parallel_report.peak_resident_events <= (3 * workers + 2) * window_events,
        "parallel capture must stay bounded: peak {} vs window {}",
        parallel_report.peak_resident_events,
        window_events
    );
    assert!(parallel_report.peak_resident_events * 4 < total_events);
}

#[test]
fn offline_schedule_cache_round_trip_is_bit_identical() {
    let dir = TempCacheDir::new("schedule-roundtrip");
    let cache = dir.cache();
    let trace = small_trace();
    let machine = MachineConfig::default();
    let config = OfflineConfig::default();
    let schedule = AnalysisPipeline::new(config).analyze(&trace, &machine);

    let bench = suite::benchmark("gsm decode").unwrap();
    let key = artifact::offline_schedule_key(
        bench.name,
        &bench.inputs.reference,
        trace.len() as u64,
        &machine,
        &config,
    );
    cache.store_schedule(&key, &schedule);
    let loaded = cache.load_schedule(&key).expect("artifact present");
    assert_eq!(loaded.len(), schedule.len());
    for (a, b) in schedule.settings().iter().zip(loaded.settings()) {
        for d in mcd_sim::domain::Domain::SCALABLE {
            assert_eq!(a.get(d).as_mhz().to_bits(), b.get(d).as_mhz().to_bits());
        }
        assert_eq!(a, b);
    }
    let stats = cache.stats();
    assert_eq!((stats.hits, stats.writes, stats.errors), (1, 1, 0));
}

#[test]
fn corrupted_artifact_falls_back_to_recompute() {
    let dir = TempCacheDir::new("corrupted");
    let cache = dir.cache();
    let bench = suite::benchmark("adpcm decode").expect("known benchmark");
    let config = EvaluationConfig::default().with_cache(cache.clone());

    let cold = evaluate(&bench, &config);
    assert_eq!(
        cache.stats().writes,
        5,
        "reference trace + window/training histograms + schedule + training plan written"
    );

    // Trash both artifacts in place.
    for entry in cache.entries() {
        std::fs::write(dir.path.join(&entry.name), b"not an artifact").unwrap();
    }
    let recomputed = evaluate(&bench, &config);
    assert_evaluations_bit_identical(&cold, &recomputed);
    let stats = cache.stats();
    assert!(
        stats.errors >= 2,
        "corruption should be counted, got {stats:?}"
    );
    assert_eq!(stats.hits, 0);
}

#[test]
fn version_mismatched_artifact_falls_back_to_recompute() {
    let dir = TempCacheDir::new("version");
    let cache = dir.cache();
    let trace = small_trace();
    let machine = MachineConfig::default();
    let config = OfflineConfig::default();
    let schedule = AnalysisPipeline::new(config).analyze(&trace, &machine);
    let bench = suite::benchmark("gsm decode").unwrap();
    let key = artifact::offline_schedule_key(
        bench.name,
        &bench.inputs.reference,
        trace.len() as u64,
        &machine,
        &config,
    );
    cache.store_schedule(&key, &schedule);

    // Rewrite the format version in place and fix the trailing checksum, so
    // the version check (not the corruption check) must reject the file.
    let path = cache.path_of(&key).unwrap();
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[4..8].copy_from_slice(&(codec::FORMAT_VERSION + 1).to_le_bytes());
    let content_len = bytes.len() - 8;
    let mut h = mcd_sim::fingerprint::Fnv1a::new();
    h.write_bytes(&bytes[..content_len]);
    let sum = h.finish();
    bytes[content_len..].copy_from_slice(&sum.to_le_bytes());
    std::fs::write(&path, &bytes).unwrap();

    assert_eq!(
        codec::decode_schedule(&bytes),
        Err(codec::CodecError::UnsupportedVersion {
            found: codec::FORMAT_VERSION + 1
        })
    );
    assert_eq!(cache.load_schedule(&key), None, "mismatch must miss");
    let stats = cache.stats();
    assert_eq!(stats.errors, 1);

    // The evaluation path recomputes and produces the same schedule.
    let recomputed = AnalysisPipeline::new(config).analyze(&trace, &machine);
    assert_eq!(recomputed, schedule);
}

#[test]
fn registry_evaluation_transparently_reuses_artifacts() {
    let dir = TempCacheDir::new("transparent");
    let cache = dir.cache();
    let bench = suite::benchmark("adpcm decode").expect("known benchmark");
    let config = EvaluationConfig {
        include_global: true,
        ..EvaluationConfig::default()
    }
    .with_cache(cache.clone());

    let cold = evaluate(&bench, &config);
    let after_cold = cache.stats();
    assert_eq!(after_cold.hits, 0);
    assert_eq!(after_cold.misses, 5);
    assert_eq!(after_cold.writes, 5);

    let warm = evaluate(&bench, &config);
    let after_warm = cache.stats();
    assert_eq!(
        after_warm.hits, 3,
        "reference trace + offline schedule + training plan reused (the \
         histogram artifacts are not even consulted when the thresholded \
         outputs hit)"
    );
    assert_eq!(after_warm.misses, 5, "no new misses on the warm run");
    assert_eq!(
        after_warm.writes, 5,
        "nothing recomputed, nothing rewritten"
    );
    assert_evaluations_bit_identical(&cold, &warm);

    // A different slowdown target must not reuse the thresholded outputs
    // (schedule, training plan) — but the machine-independent reference
    // trace and the slowdown-independent histogram artifacts are shared, so
    // only the cheap re-thresholding is recomputed.
    let other = evaluate(&bench, &config.clone().with_slowdown(0.14));
    let after_other = cache.stats();
    assert_eq!(
        after_other.hits, 6,
        "trace + window histograms + training histograms reused"
    );
    assert_eq!(after_other.misses, 7, "schedule + training plan re-keyed");
    assert_eq!(after_other.writes, 7);
    assert_ne!(
        other.require("offline").unwrap().stats.run_time,
        warm.require("offline").unwrap().stats.run_time
    );
}

#[test]
fn cached_and_uncached_evaluations_agree() {
    let dir = TempCacheDir::new("agree");
    let bench = suite::benchmark("adpcm decode").expect("known benchmark");
    let uncached = evaluate(&bench, &EvaluationConfig::default());

    let cached_config = EvaluationConfig::default().with_cache(dir.cache());
    let first = evaluate(&bench, &cached_config);
    let second = evaluate(&bench, &cached_config);
    assert_evaluations_bit_identical(&uncached, &first);
    assert_evaluations_bit_identical(&uncached, &second);
}

#[test]
fn full_parallelism_budget_flows_to_windows_for_single_benchmarks() {
    // A single-benchmark evaluation with a large thread budget must produce
    // exactly the serial result (the budget goes to the window stage).
    let bench = suite::benchmark("adpcm decode").expect("known benchmark");
    let serial = evaluate(&bench, &EvaluationConfig::default());
    let parallel = evaluate(&bench, &EvaluationConfig::default().with_parallelism(8));
    assert_evaluations_bit_identical(&serial, &parallel);
}
