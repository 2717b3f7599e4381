//! Layer probes: the traced run calls each layer's public function on the
//! workload's own inputs, one span around each call, doing at each layer the
//! work the workload's jobs need there — generation, analysis and training on
//! a cold or disabled cache, artifact reads on a warm one.
//!
//! The evaluator gives no view inside a job, so these spans are how the
//! benchmark sees its layers from outside. They run after the traced
//! repetition, serially, on the same inputs, and are read from the process
//! CPU clock like every other timing (so an artifact span is the CPU cost of
//! encoding and writing, without the wait for the disk).

use crate::host;
use crate::workload::CacheMode;
use mcd_dvfs::artifact::{self, ArtifactCache, TrainingArtifact};
use mcd_dvfs::dag::DependenceDag;
use mcd_dvfs::error::McdError;
use mcd_dvfs::evaluation::EvaluationConfig;
use mcd_dvfs::histogram::RegionHistograms;
use mcd_dvfs::pipeline::{capture, schedule, threshold_windows, window, AnalysisPipeline};
use mcd_dvfs::profile::{instrumentation_plan, train};
use mcd_dvfs::shaker::Shaker;
use mcd_sim::simulator::{NullHooks, Simulator};
use mcd_workloads::generator::generate_packed;
use mcd_workloads::suite::Benchmark;
use std::hint::black_box;

/// Busy time and work counts per layer, summed over the probed benchmarks.
#[derive(Debug, Clone, Default)]
pub struct LayerTotals {
    /// `generate_packed` time.
    pub trace_gen_s: f64,
    /// Instructions generated.
    pub generated: u64,
    /// Baseline `Simulator::run` (no hooks) time.
    pub baseline_s: f64,
    /// Instructions the baselines simulated.
    pub baseline_instructions: u64,
    /// `replay_with` time over every off-line lane.
    pub replay_lane_s: f64,
    /// Off-line lanes replayed.
    pub lanes: u64,
    /// `AnalysisPipeline::analyze_with_report` time.
    pub analyze_s: f64,
    /// `capture_with` plus `slice_windows` time.
    pub capture_s: f64,
    /// `DependenceDag::from_trace` time.
    pub dag_s: f64,
    /// `Shaker::shake_into_histograms` time.
    pub shaker_s: f64,
    /// `threshold_windows` time, every slowdown target.
    pub threshold_s: f64,
    /// Windows the streaming analysis closed.
    pub windows: u64,
    /// Primitive events the whole-run capture recorded.
    pub events: u64,
    /// Largest streaming-analysis peak of resident events.
    pub peak_resident_events: u64,
    /// `instrumentation_plan` time.
    pub plan_s: f64,
    /// `train` time.
    pub train_s: f64,
    /// `load_*` time.
    pub read_s: f64,
    /// `store_*` time.
    pub write_s: f64,
}

/// Times `f` on the process CPU clock, adding its seconds to `acc`.
fn span<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let start = host::cpu_seconds();
    let out = f();
    *acc += host::cpu_seconds() - start;
    out
}

/// Probes one benchmark under `mode`, adding to `totals`. `slowdowns` are the
/// distinct off-line targets the workload's jobs use on this benchmark (one
/// lane each); `config` is the workload's evaluation configuration and
/// `cache` its artifact cache (read on [`CacheMode::Warm`]; on
/// [`CacheMode::Fresh`] the probe's writes go to `cache`, which must be
/// empty).
pub fn probe_benchmark(
    totals: &mut LayerTotals,
    bench: &Benchmark,
    slowdowns: &[f64],
    mode: CacheMode,
    config: &EvaluationConfig,
    cache: &ArtifactCache,
) -> Result<(), McdError> {
    let machine = &config.machine;
    let simulator = Simulator::new(machine.clone());
    let reference_input = &bench.inputs.reference;
    let training_input = &bench.inputs.training;
    let mut offline = config.offline;
    offline.slowdown = slowdowns[0];
    let mut training = config.training;
    training.slowdown = slowdowns[0];
    let window_instructions = offline.window_instructions.max(1);
    let missing = |what: &str| {
        McdError::Internal(format!(
            "warm cache has no {what} artifact for `{}`",
            bench.name
        ))
    };

    // workloads: the reference trace (read from a warm cache instead) and the
    // training trace, which the profile scheme regenerates even when warm.
    let trace_key = artifact::packed_trace_key(bench.name, reference_input);
    let reference = if mode == CacheMode::Warm {
        span(&mut totals.read_s, || cache.load_trace(&trace_key)).ok_or_else(|| missing("trace"))?
    } else {
        let trace = span(&mut totals.trace_gen_s, || {
            generate_packed(&bench.program, reference_input)
        });
        totals.generated += trace.len() as u64;
        trace
    };
    let training_trace = span(&mut totals.trace_gen_s, || {
        generate_packed(&bench.program, training_input)
    });
    totals.generated += training_trace.len() as u64;

    // sim: the full-speed MCD baseline.
    let baseline = span(&mut totals.baseline_s, || {
        simulator.run(reference.iter(), &mut NullHooks, false).stats
    });
    totals.baseline_instructions += baseline.instructions;

    // pipeline (cold only): the streaming analysis the evaluator runs, then
    // the same analysis as separate stages, which must agree with it.
    let schedules = if mode == CacheMode::Warm {
        let key = artifact::offline_schedule_key(
            bench.name,
            reference_input,
            reference.len() as u64,
            machine,
            &offline,
        );
        let loaded = span(&mut totals.read_s, || cache.load_schedule(&key))
            .ok_or_else(|| missing("off-line schedule"))?;
        vec![loaded]
    } else {
        let pipeline = AnalysisPipeline::new(offline);
        let (streamed, report) = span(&mut totals.analyze_s, || {
            pipeline.analyze_with_report(&simulator, &reference)
        });
        totals.windows += report.windows;
        totals.peak_resident_events = totals
            .peak_resident_events
            .max(report.peak_resident_events as u64);
        let histograms = staged_histograms(totals, &simulator, &reference, &offline);
        let schedules: Vec<_> = slowdowns
            .iter()
            .map(|&s| {
                span(&mut totals.threshold_s, || {
                    threshold_windows(&histograms, s, &machine.grid)
                })
            })
            .collect();
        if schedules[0] != streamed {
            return Err(McdError::Internal(format!(
                "`{}`: staged analysis disagrees with the streaming pipeline",
                bench.name
            )));
        }
        schedules
    };

    // sim: one off-line lane per slowdown target.
    for schedule in &schedules {
        let stats = span(&mut totals.replay_lane_s, || {
            schedule::replay_with(&simulator, &reference, schedule, window_instructions)
        });
        black_box(stats);
        totals.lanes += 1;
    }

    // profile: the instrumentation plan always; training only when cold (a
    // warm cache holds the trained table and the learned scheme's histograms).
    let plan = span(&mut totals.plan_s, || {
        instrumentation_plan(&training_trace, &training)
    });
    black_box(plan);
    if mode == CacheMode::Warm {
        let key = artifact::training_plan_key(bench.name, training_input, machine, &training);
        span(&mut totals.read_s, || cache.load_training(&key))
            .ok_or_else(|| missing("training plan"))?;
        if config.include_zoo {
            let key =
                artifact::training_histograms_key(bench.name, training_input, machine, &training);
            span(&mut totals.read_s, || {
                cache.load_training_histograms(&key, &machine.grid)
            })
            .ok_or_else(|| missing("training histograms"))?;
        }
    } else {
        let trained = span(&mut totals.train_s, || {
            train(&bench.program, training_input, machine, &training)
        });
        if mode == CacheMode::Fresh {
            // artifact: the writes a cold job makes.
            let key = artifact::training_plan_key(bench.name, training_input, machine, &training);
            let stored = TrainingArtifact::from_table(&trained.table, trained.training_stats);
            span(&mut totals.write_s, || cache.store_training(&key, &stored));
            let key = artifact::offline_schedule_key(
                bench.name,
                reference_input,
                reference.len() as u64,
                machine,
                &offline,
            );
            span(&mut totals.write_s, || {
                cache.store_schedule(&key, &schedules[0])
            });
            span(&mut totals.write_s, || {
                cache.store_trace(&trace_key, &reference)
            });
        }
    }
    Ok(())
}

/// The off-line analysis as separate public stages — whole-run capture,
/// window slicing, DAG build and shaking per window — returning each window's
/// histograms (`None` for an empty window, as the streaming path has it).
fn staged_histograms(
    totals: &mut LayerTotals,
    simulator: &Simulator,
    reference: &mcd_sim::trace::PackedTrace,
    offline: &mcd_dvfs::OfflineConfig,
) -> Vec<Option<RegionHistograms>> {
    let grid = &simulator.config().grid;
    let shaker = Shaker::with_config(offline.shaker);
    let (plan, events) = span(&mut totals.capture_s, || {
        let captured = capture::capture_with(simulator, reference.iter());
        let events = captured.events.len() as u64;
        (
            window::slice_windows(&captured, offline.window_instructions),
            events,
        )
    });
    totals.events += events;
    plan.slices
        .iter()
        .map(|slice| {
            if slice.is_empty() {
                return None;
            }
            let mut dag = span(&mut totals.dag_s, || DependenceDag::from_trace(slice));
            Some(span(&mut totals.shaker_s, || {
                shaker.shake_into_histograms(&mut dag, grid, grid.max())
            }))
        })
        .collect()
}
