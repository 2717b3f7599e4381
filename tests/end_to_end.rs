//! Integration tests spanning all crates: the complete pipeline from workload
//! generation through profiling, off-line analysis and controlled simulation,
//! checked against the qualitative shape of the paper's results.

use mcd_dvfs::evaluation::{mcd_baseline_penalty, BenchmarkEvaluation, EvaluationConfig};
use mcd_dvfs::profile::{train, TrainingConfig};
use mcd_dvfs::scheme::names;
use mcd_dvfs::service::{EvalJob, Evaluator};
use mcd_profiling::context::ContextPolicy;
use mcd_sim::config::MachineConfig;
use mcd_sim::domain::Domain;
use mcd_sim::simulator::{NullHooks, Simulator};
use mcd_workloads::generator::generate_trace;
use mcd_workloads::suite;

/// Evaluates one benchmark through a single-use [`Evaluator`] service.
fn evaluate(bench: &suite::Benchmark, config: &EvaluationConfig) -> BenchmarkEvaluation {
    Evaluator::builder()
        .config(config.clone())
        .workers(1)
        .build()
        .submit(EvalJob::new(bench.clone()))
        .collect()
        .expect("evaluation succeeds")
        .remove(0)
}

/// All four schemes run through the `DvfsScheme` registry on one benchmark and
/// produce finite, sane relative metrics.
#[test]
fn all_four_schemes_run_through_the_registry() {
    let bench = suite::benchmark("adpcm decode").expect("benchmark exists");
    let config = EvaluationConfig {
        include_global: true,
        ..EvaluationConfig::default()
    };
    let eval = evaluate(&bench, &config);

    let expected = [names::OFFLINE, names::ONLINE, names::PROFILE, names::GLOBAL];
    assert_eq!(eval.schemes.len(), expected.len());
    for (outcome, expected_name) in eval.schemes.iter().zip(expected) {
        assert_eq!(outcome.name, expected_name);
        let m = &outcome.result.metrics;
        assert!(
            m.performance_degradation.is_finite()
                && m.energy_savings.is_finite()
                && m.energy_delay_improvement.is_finite(),
            "{expected_name}: metrics must be finite"
        );
        // Synchronization jitter can make a controlled run marginally faster
        // than the baseline, so allow a hair of negative slack below zero.
        assert!(
            m.performance_degradation >= -0.01,
            "{expected_name}: slowdown must be non-negative (within jitter), got {}",
            m.performance_degradation
        );
        assert!(
            (-1.0..=1.0).contains(&m.energy_savings),
            "{expected_name}: energy savings must be a sane fraction, got {}",
            m.energy_savings
        );
        assert!(outcome.result.stats.instructions > 0);
    }
}

// The parallel-vs-serial determinism guard lives as a unit test next to the
// thread pool it exercises: `parallel_suite_evaluation_matches_serial_bit_for_bit`
// in `crates/core/src/evaluation.rs`.

/// The headline qualitative claim of the paper: profile-driven reconfiguration
/// achieves energy savings close to the off-line oracle, clearly better than
/// whole-chip scaling, at bounded slowdown.
#[test]
fn profile_tracks_the_oracle_and_beats_global_dvs() {
    let config = EvaluationConfig {
        include_global: true,
        ..EvaluationConfig::default()
    };
    for name in ["adpcm decode", "gsm encode"] {
        let bench = suite::benchmark(name).expect("benchmark exists");
        let eval = evaluate(&bench, &config);

        let offline = eval.metrics(names::OFFLINE).expect("offline ran");
        let profile = eval.metrics(names::PROFILE).expect("profile ran");
        let global = eval.metrics(names::GLOBAL).expect("global requested");
        assert!(
            offline.energy_savings > 0.05,
            "{name}: oracle should save energy, got {:.1}%",
            offline.energy_savings_percent()
        );
        assert!(
            profile.energy_savings > offline.energy_savings * 0.5,
            "{name}: profile-based savings should be in the oracle's vicinity"
        );
        assert!(
            profile.energy_savings > global.energy_savings,
            "{name}: per-domain scaling must beat whole-chip scaling ({:.1}% vs {:.1}%)",
            profile.energy_savings_percent(),
            global.energy_savings_percent()
        );
        assert!(
            profile.performance_degradation < 0.30,
            "{name}: slowdown should stay bounded"
        );
    }
}

/// The MCD substrate itself: synchronization penalties cost a few percent of
/// performance relative to a globally synchronous design (Section 4.1 reports
/// about 1.3% on average, at most 3.6%).
#[test]
fn mcd_synchronization_penalty_is_a_few_percent() {
    let machine = MachineConfig::default();
    let mut penalties = Vec::new();
    for name in ["adpcm encode", "jpeg decompress", "equake"] {
        let bench = suite::benchmark(name).expect("benchmark exists");
        let (perf, _energy) = mcd_baseline_penalty(&bench, &machine).expect("valid machine");
        assert!(
            perf > 0.0,
            "{name}: MCD must not be faster than synchronous"
        );
        assert!(perf < 0.12, "{name}: penalty too large: {perf}");
        penalties.push(perf);
    }
    let avg = penalties.iter().sum::<f64>() / penalties.len() as f64;
    assert!(
        avg < 0.08,
        "average MCD penalty should be a few percent, got {avg}"
    );
}

/// Training on integer-only media code must park the floating-point domain at
/// a low frequency while keeping the critical integer domain fast.
#[test]
fn integer_codec_parks_the_fp_domain() {
    let bench = suite::benchmark("gsm decode").expect("benchmark exists");
    let machine = MachineConfig::default();
    let plan = train(
        &bench.program,
        &bench.inputs.training,
        &machine,
        &TrainingConfig::default(),
    );
    assert!(!plan.table.is_empty());
    for (_, setting) in plan.table.iter() {
        assert!(
            setting.get(Domain::FloatingPoint).as_mhz() <= 500.0,
            "idle FP domain should be slowed aggressively"
        );
        assert!(
            setting.get(Domain::Integer).as_mhz() >= setting.get(Domain::FloatingPoint).as_mhz(),
            "the busy integer domain must not be slower than the idle FP domain"
        );
    }
}

/// Path-tracking context policies must never reconfigure more often than the
/// simple static policies on a program whose production paths differ from the
/// training paths (mpeg2 decode).
#[test]
fn path_tracking_is_conservative_on_unseen_paths() {
    let bench = suite::benchmark("mpeg2 decode").expect("benchmark exists");
    let machine = MachineConfig::default();
    let reference = generate_trace(&bench.program, &bench.inputs.reference);
    let simulator = Simulator::new(machine.clone());

    let mut reconfigs = Vec::new();
    for policy in [ContextPolicy::LoopFuncSitePath, ContextPolicy::LoopFunc] {
        let plan = train(
            &bench.program,
            &bench.inputs.training,
            &machine,
            &TrainingConfig {
                policy,
                ..TrainingConfig::default()
            },
        );
        let mut hooks = plan.hooks();
        let stats = simulator
            .run(reference.iter().copied(), &mut hooks, false)
            .stats;
        reconfigs.push(stats.reconfigurations);
    }
    assert!(
        reconfigs[0] <= reconfigs[1],
        "L+F+C+P ({}) must not reconfigure more than L+F ({}) when production paths \
         were not seen in training",
        reconfigs[0],
        reconfigs[1]
    );
}

/// The whole pipeline is deterministic: two identical evaluations produce
/// bit-identical metrics.
#[test]
fn evaluation_is_deterministic() {
    let bench = suite::benchmark("g721 decode").expect("benchmark exists");
    let config = EvaluationConfig::default();
    let a = evaluate(&bench, &config);
    let b = evaluate(&bench, &config);
    let a_profile = a.require(names::PROFILE).expect("profile ran");
    let b_profile = b.require(names::PROFILE).expect("profile ran");
    assert_eq!(
        a_profile.stats.run_time, b_profile.stats.run_time,
        "controlled run times must be identical"
    );
    assert_eq!(
        a_profile.stats.total_energy.as_units(),
        b_profile.stats.total_energy.as_units()
    );
    assert_eq!(
        a.require(names::OFFLINE).unwrap().stats.reconfigurations,
        b.require(names::OFFLINE).unwrap().stats.reconfigurations
    );
}

/// The baseline simulator reproduces the gross characteristics the workload
/// models were designed around: mcf misses in the L2, swim is FP-heavy, gzip
/// mispredicts branches, adpcm does not touch floating point.
#[test]
fn workload_character_survives_the_full_stack() {
    let machine = MachineConfig::default();
    let sim = Simulator::new(machine);

    let mcf = suite::benchmark("mcf").unwrap();
    let stats = sim
        .run(
            generate_trace(&mcf.program, &mcf.inputs.training),
            &mut NullHooks,
            false,
        )
        .stats;
    assert!(stats.l2_misses > 100, "mcf should miss in the L2");

    let swim = suite::benchmark("swim").unwrap();
    let stats = sim
        .run(
            generate_trace(&swim.program, &swim.inputs.training),
            &mut NullHooks,
            false,
        )
        .stats;
    assert!(
        stats.domain_active_cycles[Domain::FloatingPoint]
            > stats.domain_active_cycles[Domain::Integer],
        "swim should be FP dominated"
    );

    let gzip = suite::benchmark("gzip").unwrap();
    let stats = sim
        .run(
            generate_trace(&gzip.program, &gzip.inputs.training),
            &mut NullHooks,
            false,
        )
        .stats;
    assert!(
        stats.mispredict_rate() > 0.02,
        "gzip should mispredict some branches"
    );

    let adpcm = suite::benchmark("adpcm decode").unwrap();
    let stats = sim
        .run(
            generate_trace(&adpcm.program, &adpcm.inputs.training),
            &mut NullHooks,
            false,
        )
        .stats;
    assert_eq!(
        stats.domain_active_cycles[Domain::FloatingPoint],
        0.0,
        "adpcm must not execute FP work"
    );
}
