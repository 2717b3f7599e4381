//! Randomized property tests over the core data structures and invariants of
//! the reproduction.
//!
//! The container has no access to crates.io, so instead of `proptest` these
//! tests drive each property with a deterministic in-repo PRNG
//! ([`mcd_workloads::rng::WorkloadRng`]): every test enumerates a few hundred
//! pseudo-random cases from a fixed seed, which keeps failures reproducible
//! without an external shrinker.

use mcd_dvfs::dag::DependenceDag;
use mcd_dvfs::histogram::DomainHistogram;
use mcd_dvfs::shaker::{Shaker, MAX_STRETCH};
use mcd_dvfs::threshold::SlowdownThreshold;
use mcd_profiling::call_tree::CallTree;
use mcd_profiling::candidates::LongRunningSet;
use mcd_profiling::context::ContextPolicy;
use mcd_sim::config::MachineConfig;
use mcd_sim::domain::Domain;
use mcd_sim::events::{EventKind, EventTrace, PrimitiveEvent};
use mcd_sim::freq::{FrequencyGrid, VoltageMap};
use mcd_sim::instruction::{CallSiteId, Instr, InstrClass, Marker, SubroutineId, TraceItem};
use mcd_sim::resources::{OccupancyQueue, StagePacer, UnitPool};
use mcd_sim::simulator::{NullHooks, Simulator};
use mcd_sim::time::{MegaHertz, TimeNs};
use mcd_sim::trace::PackedTrace;
use mcd_workloads::generator::{generate_packed, generate_trace};
use mcd_workloads::mix::InstructionMix;
use mcd_workloads::program::TripCount;
use mcd_workloads::rng::WorkloadRng;
use mcd_workloads::server::{BurstProfile, ServerWorkload};

/// Case generator: thin sugar over the deterministic workload RNG.
struct Cases {
    rng: WorkloadRng,
}

impl Cases {
    fn new(seed: u64) -> Self {
        Cases {
            rng: WorkloadRng::seed_from_u64(seed),
        }
    }

    fn f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.rng.next_f64() * (hi - lo)
    }

    fn usize(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.rng.next_u64() as usize) % (hi - lo)
    }

    fn u32(&mut self, lo: u32, hi: u32) -> u32 {
        lo + (self.rng.next_u64() as u32) % (hi - lo)
    }
}

/// Quantizing up never returns a frequency below the request (within the
/// grid) and always lands exactly on a grid step.
#[test]
fn grid_quantize_up_is_sound() {
    let grid = FrequencyGrid::default();
    let mut cases = Cases::new(0xA11CE);
    for _ in 0..512 {
        let mhz = cases.f64(1.0, 2000.0);
        let q = grid.quantize_up(MegaHertz::new(mhz));
        assert!(q.as_mhz() >= grid.min().as_mhz());
        assert!(q.as_mhz() <= grid.max().as_mhz());
        if mhz >= grid.min().as_mhz() && mhz <= grid.max().as_mhz() {
            assert!(q.as_mhz() + 1e-9 >= mhz);
        }
        let steps = (q.as_mhz() - grid.min().as_mhz()) / grid.step().as_mhz();
        assert!((steps - steps.round()).abs() < 1e-9);
    }
}

/// The voltage map is monotone in frequency and stays inside its range.
#[test]
fn voltage_map_is_monotone() {
    let map = VoltageMap::default();
    let mut cases = Cases::new(0xB0B);
    for _ in 0..512 {
        let a = cases.f64(100.0, 1500.0);
        let b = cases.f64(100.0, 1500.0);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let v_lo = map.voltage_for(MegaHertz::new(lo));
        let v_hi = map.voltage_for(MegaHertz::new(hi));
        assert!(v_lo.as_volts() <= v_hi.as_volts() + 1e-12);
        assert!(v_lo.as_volts() >= map.min_voltage().as_volts() - 1e-12);
        assert!(v_hi.as_volts() <= map.max_voltage().as_volts() + 1e-12);
    }
}

/// A unit pool never starts a request before it is ready, and a pool of
/// size one serializes all requests.
#[test]
fn unit_pool_respects_readiness() {
    let mut cases = Cases::new(0xC0DE);
    for _ in 0..128 {
        let n = cases.usize(1, 50);
        let mut pool = UnitPool::new(1);
        let mut last_end = 0.0f64;
        for _ in 0..n {
            let ready = cases.f64(0.0, 1000.0);
            let busy = cases.f64(0.1, 20.0);
            let start = pool.acquire(TimeNs::new(ready), TimeNs::new(busy));
            assert!(start.as_ns() + 1e-9 >= ready);
            assert!(start.as_ns() + 1e-9 >= last_end);
            last_end = start.as_ns() + busy;
        }
    }
}

/// An occupancy queue never admits earlier than requested and never holds
/// more than its capacity.
#[test]
fn occupancy_queue_invariants() {
    let mut cases = Cases::new(0xD1CE);
    for _ in 0..128 {
        let capacity = cases.u32(1, 16);
        let jobs = cases.usize(1, 80);
        let mut q = OccupancyQueue::new(capacity);
        let mut clock = 0.0;
        for _ in 0..jobs {
            clock += cases.f64(0.0, 100.0);
            let service = cases.f64(0.0, 50.0);
            let admitted = q.admit(TimeNs::new(clock));
            assert!(admitted.as_ns() + 1e-9 >= clock);
            q.depart(TimeNs::new(admitted.as_ns() + service));
            assert!(q.occupancy() <= capacity as usize);
        }
        assert!(q.average_utilization() >= 0.0 && q.average_utilization() <= 1.0);
    }
}

/// A stage pacer admits at most `width` instructions per period and never
/// admits before the ready time.
#[test]
fn stage_pacer_never_exceeds_width() {
    let mut cases = Cases::new(0xFACE);
    for _ in 0..64 {
        let width = cases.u32(1, 8);
        let arrivals = cases.usize(10, 120);
        let mut pacer = StagePacer::new(width);
        let period = TimeNs::new(1.0);
        let mut clock = 0.0;
        let mut admissions: Vec<f64> = Vec::new();
        for _ in 0..arrivals {
            clock += cases.f64(0.0, 0.4);
            let t = pacer.admit(TimeNs::new(clock), period);
            assert!(t.as_ns() + 1e-9 >= clock);
            admissions.push(t.as_ns());
        }
        // The pacer admits in groups aligned to group boundaries, so a sliding
        // one-period window can straddle two groups: it may contain at most two
        // groups' worth of admissions, never more.
        for &start in &admissions {
            let in_window = admissions
                .iter()
                .filter(|&&t| t >= start && t < start + 1.0 - 1e-9)
                .count();
            assert!(
                in_window <= 2 * width as usize,
                "window at {start} holds {in_window} admissions for width {width}"
            );
        }
    }
}

/// Generates one pseudo-random trace item, covering every instruction class,
/// every marker kind, optional dependences, memory payloads and branch
/// payloads with extreme values mixed in.
fn arbitrary_item(cases: &mut Cases) -> TraceItem {
    use mcd_sim::instruction::LoopId;
    let pick = cases.usize(0, 12);
    if pick < 8 {
        let class = InstrClass::ALL[pick];
        let pc = if cases.usize(0, 16) == 0 {
            u64::MAX - cases.u32(0, 1000) as u64
        } else {
            0x40_0000 + cases.u32(0, 1 << 20) as u64
        };
        let mut instr = Instr::op(pc, class);
        if cases.usize(0, 2) == 0 {
            instr = instr.with_dep1(cases.u32(1, u16::MAX as u32 + 1) as u16);
        }
        if cases.usize(0, 3) == 0 {
            instr = instr.with_dep2(cases.u32(1, u16::MAX as u32 + 1) as u16);
        }
        // Payloads are attached independently of the class: the encoding must
        // round-trip whatever the `Instr` struct can hold.
        if class.is_memory() || cases.usize(0, 8) == 0 {
            instr.mem_addr = Some(if cases.usize(0, 16) == 0 {
                u64::MAX
            } else {
                cases.u32(0, u32::MAX) as u64
            });
        }
        if class == InstrClass::Branch || cases.usize(0, 8) == 0 {
            instr.branch = Some(mcd_sim::instruction::BranchInfo {
                taken: cases.usize(0, 2) == 0,
                target: cases.u32(0, u32::MAX) as u64,
            });
        }
        TraceItem::Instr(instr)
    } else {
        TraceItem::Marker(match pick {
            8 => Marker::SubroutineEnter {
                subroutine: SubroutineId(cases.u32(0, u32::MAX)),
                call_site: CallSiteId(cases.u32(0, u32::MAX)),
            },
            9 => Marker::SubroutineExit {
                subroutine: SubroutineId(cases.u32(0, u32::MAX)),
            },
            10 => Marker::LoopEnter {
                loop_id: LoopId(cases.u32(0, u32::MAX)),
            },
            _ => Marker::LoopExit {
                loop_id: LoopId(cases.u32(0, u32::MAX)),
            },
        })
    }
}

/// The packed encoding round-trips arbitrary trace items bit-for-bit: encode,
/// decode (via cursor and via the codec's raw parts) and compare, across all
/// instruction classes, marker kinds and payload combinations.
#[test]
fn packed_trace_round_trips_arbitrary_items() {
    let mut cases = Cases::new(0x9AC7ED);
    for _ in 0..200 {
        let n = cases.usize(0, 400);
        let items: Vec<TraceItem> = (0..n).map(|_| arbitrary_item(&mut cases)).collect();
        let packed = PackedTrace::from_items(&items);
        assert_eq!(packed.len(), items.len());
        assert_eq!(
            packed.instructions() as usize,
            items.iter().filter(|i| i.as_instr().is_some()).count()
        );
        assert_eq!(packed.to_items(), items, "cursor decode diverged");

        // A second encode of the decode is byte-equal (stable fixed point).
        assert_eq!(PackedTrace::from_items(&packed.to_items()), packed);

        // Truncation at an arbitrary point matches item-level truncation.
        let cut = cases.usize(0, n + 1);
        let truncated = packed.truncated(cut);
        assert_eq!(truncated.to_items(), items[..cut].to_vec());
    }
}

/// The generator's packed output decodes to exactly the legacy item trace,
/// and simulating either representation produces bit-identical statistics —
/// the golden-harness guarantee, asserted directly at the encoding seam.
#[test]
fn packed_and_item_traces_simulate_identically() {
    let bench = mcd_workloads::suite::benchmark("gsm decode").expect("known benchmark");
    let packed = generate_packed(&bench.program, &bench.inputs.training);
    let items = generate_trace(&bench.program, &bench.inputs.training);
    assert_eq!(packed.to_items(), items);
    assert_eq!(packed.len(), items.len());

    let sim = Simulator::new(MachineConfig::default());
    let from_packed = sim.run(packed.iter(), &mut NullHooks, false).stats;
    let from_items = sim.run(items.iter().copied(), &mut NullHooks, false).stats;
    assert_eq!(
        from_packed.run_time.as_ns().to_bits(),
        from_items.run_time.as_ns().to_bits()
    );
    assert_eq!(
        from_packed.total_energy.as_units().to_bits(),
        from_items.total_energy.as_units().to_bits()
    );
    assert_eq!(from_packed.sync_stalls, from_items.sync_stalls);
    assert_eq!(from_packed.instructions, from_items.instructions);
}

/// The shaker never shrinks an event, never stretches beyond the quarter
/// frequency limit, and never violates a recorded dependence edge.
#[test]
fn shaker_respects_edges_and_limits() {
    let mut cases = Cases::new(0x5EED);
    for _ in 0..128 {
        let n = cases.usize(2, 40);
        let extra_gap = cases.f64(0.0, 10.0);
        // Build a random chain with gaps: event i depends on event i-1.
        let mut trace = EventTrace::new();
        let mut clock = 0.0;
        let mut prev = None;
        for i in 0..n {
            let d = cases.f64(0.5, 5.0);
            let start = clock + if i % 3 == 0 { extra_gap } else { 0.0 };
            let end = start + d;
            let id = trace.push_event(PrimitiveEvent {
                instr_index: i as u32,
                kind: EventKind::Execute,
                domain: if i % 2 == 0 {
                    Domain::Integer
                } else {
                    Domain::Memory
                },
                start: TimeNs::new(start),
                end: TimeNs::new(end),
                cycles: d,
                power_factor: 0.2 + 0.1 * (i % 3) as f64,
                region: 0,
            });
            if let Some(p) = prev {
                trace.push_edge(p, id);
            }
            prev = Some(id);
            clock = end;
        }
        let mut dag = DependenceDag::from_trace(&trace);
        Shaker::new().shake(&mut dag);
        let events = dag.snapshot();
        for e in &events {
            assert!(e.scale >= 1.0 - 1e-9);
            assert!(e.scale <= MAX_STRETCH + 1e-9);
            assert!(e.end.as_ns() + 1e-6 >= e.start.as_ns());
        }
        // Dependence order is preserved along the chain.
        for i in 1..events.len() {
            assert!(
                events[i].start.as_ns() + 1e-6 >= events[i - 1].end.as_ns() - 1e-6,
                "edge {} -> {} violated",
                i - 1,
                i
            );
        }
    }
}

/// The frequency chosen by slowdown thresholding is monotone: looser bounds
/// never pick a faster frequency.
#[test]
fn threshold_choice_is_monotone_in_slowdown() {
    let mut cases = Cases::new(0xBEEF);
    for _ in 0..256 {
        let grid = FrequencyGrid::default();
        let mut hist = DomainHistogram::new(grid.clone());
        for i in 0..31 {
            hist.add(grid.setting(i), cases.f64(0.0, 1000.0));
        }
        let d1 = cases.f64(0.0, 0.3);
        let d2 = cases.f64(0.0, 0.3);
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let f_lo = SlowdownThreshold::new(lo).choose_for_domain(&hist);
        let f_hi = SlowdownThreshold::new(hi).choose_for_domain(&hist);
        assert!(f_hi.as_mhz() <= f_lo.as_mhz() + 1e-9);
    }
}

/// Call trees built from arbitrary (well-nested) marker streams have
/// consistent instance counts and instruction attribution.
#[test]
fn call_tree_attribution_is_consistent() {
    let mut cases = Cases::new(0x7EA);
    for _ in 0..64 {
        let call_count = cases.usize(1, 40);
        let calls: Vec<(u32, u32)> = (0..call_count)
            .map(|_| (cases.u32(0, 4), cases.u32(1, 30)))
            .collect();
        let mut trace = vec![TraceItem::Marker(Marker::SubroutineEnter {
            subroutine: SubroutineId(99),
            call_site: CallSiteId(u32::MAX),
        })];
        let mut total_instr = 0u64;
        for (sub, len) in &calls {
            trace.push(TraceItem::Marker(Marker::SubroutineEnter {
                subroutine: SubroutineId(*sub),
                call_site: CallSiteId(*sub),
            }));
            for i in 0..*len {
                trace.push(TraceItem::Instr(Instr::op(
                    i as u64 * 4,
                    InstrClass::IntAlu,
                )));
                total_instr += 1;
            }
            trace.push(TraceItem::Marker(Marker::SubroutineExit {
                subroutine: SubroutineId(*sub),
            }));
        }
        trace.push(TraceItem::Marker(Marker::SubroutineExit {
            subroutine: SubroutineId(99),
        }));

        let tree = CallTree::build(&trace, ContextPolicy::LoopFuncSitePath);
        assert_eq!(tree.total_instructions(tree.root()), total_instr);
        // Instances of children sum to the number of calls made.
        let child_instances: u64 = tree
            .node(tree.root())
            .children
            .iter()
            .map(|&c| tree.node(c).instances)
            .sum();
        assert_eq!(child_instances, calls.len() as u64);
        // Long-running selection never returns more nodes than exist.
        let lr = LongRunningSet::identify_with_threshold(&tree, 10);
        assert!(lr.len() <= tree.len());
    }
}

/// A pseudo-random server workload built twice from the same configuration
/// generates bit-identical traces; distinct workload seeds or distinct input
/// seeds give distinct traces.
#[test]
fn server_generator_seed_determinism() {
    let mut cases = Cases::new(0x5EB0);
    for _ in 0..12 {
        let seed = cases.rng.next_u64();
        let per_batch = cases.u32(8, 40);
        let make = |seed: u64| {
            ServerWorkload::new("prop_server")
                .seed(seed)
                .class("a", InstructionMix::streaming_int(), 400, 0.5)
                .class("b", InstructionMix::branchy_int(), 700, 0.5)
                .requests(per_batch, TripCount::Fixed(3))
                .windows(20_000, 40_000)
        };
        let (pa, ia) = make(seed).build();
        let (pb, ib) = make(seed).build();
        assert_eq!(pa, pb, "same configuration must build the same program");
        let ta = generate_trace(&pa, &ia.training);
        assert_eq!(
            ta,
            generate_trace(&pb, &ib.training),
            "same seed must generate a bit-identical trace"
        );
        // A different workload seed reorders the request plan.
        let (pc, _) = make(seed ^ 0x1).build();
        assert_ne!(
            ta,
            generate_trace(&pc, &ia.training),
            "distinct workload seeds must generate distinct traces"
        );
        // A different input seed redraws the per-instruction behaviour.
        assert_ne!(
            ta,
            generate_trace(&pa, &ia.training.clone().with_seed(ia.training.seed ^ 0x1)),
            "distinct input seeds must generate distinct traces"
        );
    }
}

/// The same holds for bursty profiles, whose jittered blocks draw burst
/// lengths from the input set's seeded stream.
#[test]
fn burst_generator_seed_determinism() {
    let mut cases = Cases::new(0xB5B0);
    for _ in 0..12 {
        let seed = cases.rng.next_u64();
        let duty = cases.f64(0.1, 0.6);
        let make = |seed: u64| {
            BurstProfile::new("prop_burst")
                .seed(seed)
                .burst(InstructionMix::fp_kernel(), 1200)
                .duty_cycle(duty)
                .jitter(0.25)
                .cycles(3, TripCount::Fixed(4))
                .windows(20_000, 40_000)
        };
        let (pa, ia) = make(seed).build();
        let (pb, _) = make(seed).build();
        assert_eq!(pa, pb);
        let ta = generate_trace(&pa, &ia.training);
        assert_eq!(ta, generate_trace(&pb, &ia.training));
        let (pc, _) = make(seed ^ 0x1).build();
        assert_ne!(ta, generate_trace(&pc, &ia.training));
        assert_ne!(
            ta,
            generate_trace(&pa, &ia.training.clone().with_seed(ia.training.seed ^ 0x1))
        );
    }
}

/// The realized burst duty cycle of a generated trace stays within the
/// profile's configured bounds (up to the loop-closing branches, covered by
/// a small absolute tolerance).
#[test]
fn burst_duty_cycle_stays_within_configured_bounds() {
    let mut cases = Cases::new(0xD077);
    for _ in 0..10 {
        let duty = cases.f64(0.1, 0.5);
        let jitter = cases.f64(0.0, 0.4);
        let profile = BurstProfile::new("prop_duty")
            .seed(cases.rng.next_u64())
            .burst(InstructionMix::dsp_int(), 1500)
            .duty_cycle(duty)
            .jitter(jitter)
            .static_jitter(0.1)
            .cycles(4, TripCount::Fixed(8))
            .windows(200_000, 200_000);
        let (lo, hi) = profile.duty_bounds();
        let (program, inputs) = profile.build();
        let trace = generate_trace(&program, &inputs.training);
        let burst_id = program.subroutine_by_name("burst").unwrap().id;
        let idle_id = program.subroutine_by_name("idle_wait").unwrap().id;
        let mut stack = Vec::new();
        let (mut burst, mut idle) = (0u64, 0u64);
        for item in &trace {
            match item {
                TraceItem::Marker(Marker::SubroutineEnter { subroutine, .. }) => {
                    stack.push(*subroutine)
                }
                TraceItem::Marker(Marker::SubroutineExit { .. }) => {
                    stack.pop();
                }
                TraceItem::Instr(_) => match stack.last() {
                    Some(&s) if s == burst_id => burst += 1,
                    Some(&s) if s == idle_id => idle += 1,
                    _ => {}
                },
                TraceItem::Marker(_) => {}
            }
        }
        let measured = burst as f64 / (burst + idle) as f64;
        assert!(
            measured >= lo - 0.03 && measured <= hi + 0.03,
            "duty {measured:.3} outside bounds ({lo:.3}, {hi:.3}) for nominal {duty:.2}"
        );
    }
}

/// Empirical request-class shares of the baked slot plan stay within
/// statistical bounds of the configured weights.
#[test]
fn request_class_shares_match_configured_weights() {
    let mut cases = Cases::new(0x30AD);
    for _ in 0..10 {
        let weights = [
            cases.f64(0.1, 1.0),
            cases.f64(0.1, 1.0),
            cases.f64(0.1, 1.0),
        ];
        let slots = 512;
        let workload = ServerWorkload::new("prop_shares")
            .seed(cases.rng.next_u64())
            .class("a", InstructionMix::streaming_int(), 300, weights[0])
            .class("b", InstructionMix::branchy_int(), 300, weights[1])
            .class("c", InstructionMix::dsp_int(), 300, weights[2])
            .requests(slots, TripCount::Fixed(1));
        let shares = workload.shares();
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let plan = workload.slot_plan();
        assert_eq!(plan.len(), slots as usize);
        for (class, &share) in shares.iter().enumerate() {
            let hits = plan.iter().filter(|&&c| c == class).count();
            let empirical = hits as f64 / slots as f64;
            // 4σ of a binomial share over 512 draws, floored for tiny shares.
            let bound = (4.0 * (share * (1.0 - share) / slots as f64).sqrt()).max(0.02);
            assert!(
                (empirical - share).abs() <= bound,
                "class {class}: empirical {empirical:.3} vs configured {share:.3} \
                 (bound {bound:.3})"
            );
        }
    }
}

/// Evaluating the second tier is deterministic across
/// `EvaluationConfig::parallelism` levels, exactly like the paper tier.
#[test]
fn server_tier_is_deterministic_across_parallelism() {
    use mcd_dvfs::evaluation::EvaluationConfig;
    use mcd_dvfs::service::{EvalJob, Evaluator};

    let benches = ["web serve", "sensor hub"];
    let evaluate = |parallelism: usize| {
        // The controller zoo rides along: the new controllers must be as
        // deterministic across thread counts as the paper's schemes.
        let config = EvaluationConfig {
            include_zoo: true,
            ..EvaluationConfig::default()
        }
        .with_parallelism(parallelism);
        let evaluator = Evaluator::builder().config(config).build();
        let jobs = benches
            .iter()
            .map(|n| EvalJob::named(n).expect("known second-tier benchmark"))
            .collect();
        evaluator
            .submit_all(jobs)
            .collect()
            .expect("tier evaluates")
    };
    let serial = evaluate(1);
    let parallel = evaluate(4);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.name, p.name);
        assert_eq!(
            s.baseline.run_time.as_ns().to_bits(),
            p.baseline.run_time.as_ns().to_bits()
        );
        assert_eq!(s.schemes.len(), p.schemes.len());
        for (so, po) in s.schemes.iter().zip(&p.schemes) {
            assert_eq!(so.name, po.name);
            assert_eq!(
                so.result.stats.run_time.as_ns().to_bits(),
                po.result.stats.run_time.as_ns().to_bits(),
                "{}: {} diverged across parallelism levels",
                s.name,
                so.name
            );
            assert_eq!(
                so.result.stats.total_energy.as_units().to_bits(),
                po.result.stats.total_energy.as_units().to_bits()
            );
        }
    }
}

/// Batched multi-config evaluation is bit-identical to serial submission:
/// for lane counts 1, 3 and 8, every scheme in the full registry —
/// off-line, on-line, profile-driven L+F, the controller zoo (PID, SysScale,
/// learned) and the global-DVS baseline — produces exactly the statistics N
/// independent jobs produce, on both workload tiers.
///
/// Serial submission queues every job as a one-member batch, so the
/// reference is N one-member batches, computed once per benchmark for all
/// eight configurations; each N-member batch must reproduce the matching
/// prefix bit for bit. What this checks is lane isolation and pool sharing:
/// members share one fused trace pass and (for the analysis schemes) one
/// capture/shaker pass, so any leak of state between lanes or any pooled
/// artifact that differs from a member's own shows up here. Both sides run
/// through the fused pass; the plain-`Simulator::run` reference is
/// `fused_outcomes_match_plain_runs_of_the_same_prepared_lanes`. The
/// registry-coverage assertion at the end makes the property
/// self-extending: a newly registered scheme is automatically subject to it
/// unless explicitly exempted below with a reason.
#[test]
fn batched_lanes_match_serial_submission_bitwise() {
    use mcd_dvfs::online::OnlineConfig;
    use mcd_dvfs::pid::PidConfig;
    use mcd_dvfs::service::{EvalJob, Evaluator};

    // Schemes exempt from the batched bit-identity property. Every exemption
    // must carry a reason; an empty list means the whole registry is covered.
    const EXEMPT: [&str; 0] = [];

    // One paper-tier and one server-tier benchmark.
    for bench_name in ["adpcm decode", "web serve"] {
        let configure = |i: usize| {
            EvalJob::named(bench_name)
                .expect("known benchmark")
                .with_slowdown(0.02 + 0.015 * i as f64)
                .with_online(OnlineConfig {
                    decay_mhz: 2.0 + 3.0 * i as f64,
                    ..OnlineConfig::default()
                })
                .with_pid(PidConfig {
                    setpoint: 0.12 + 0.02 * i as f64,
                    ..PidConfig::default()
                })
                .with_schemes(mcd_dvfs::scheme::names::ALL)
        };
        let serial: Vec<_> = {
            let evaluator = Evaluator::builder().workers(1).build();
            let jobs = (0..8).map(configure).collect();
            evaluator
                .submit_all(jobs)
                .collect()
                .expect("serial jobs evaluate")
        };
        // Registry coverage: the property exercises exactly the full registry
        // (global DVS and the zoo included) minus the documented exemptions.
        let expected: Vec<String> = mcd_dvfs::scheme::full_registry(true, true)
            .iter()
            .map(|s| s.name().to_string())
            .filter(|n| !EXEMPT.contains(&n.as_str()))
            .collect();
        let covered: Vec<String> = serial[0].schemes.iter().map(|o| o.name.clone()).collect();
        assert_eq!(
            covered, expected,
            "{bench_name}: batched bit-identity must cover every registered \
             scheme (or exempt it above, with a reason)"
        );
        for lanes in [1usize, 3, 8] {
            let evaluator = Evaluator::builder().workers(1).build();
            let batch = EvalJob::batch((0..lanes).map(configure).collect())
                .expect("one benchmark per batch");
            let batched = evaluator
                .submit_batch(batch)
                .collect()
                .expect("batched jobs evaluate");
            assert_eq!(batched.len(), lanes);
            let stats = evaluator.batch_stats();
            assert_eq!(stats.groups, 1);
            assert_eq!(stats.members, lanes as u64);
            for (b, s) in batched.iter().zip(&serial) {
                assert_eq!(b.name, s.name);
                assert_eq!(
                    b.baseline.run_time.as_ns().to_bits(),
                    s.baseline.run_time.as_ns().to_bits()
                );
                assert_eq!(b.schemes.len(), s.schemes.len());
                for (bo, so) in b.schemes.iter().zip(&s.schemes) {
                    assert_eq!(bo.name, so.name);
                    assert_eq!(bo.label, so.label);
                    let (bs, ss) = (&bo.result.stats, &so.result.stats);
                    assert_eq!(
                        bs.run_time.as_ns().to_bits(),
                        ss.run_time.as_ns().to_bits(),
                        "{bench_name}/{}: run time diverged at {lanes} lanes",
                        bo.name
                    );
                    assert_eq!(
                        bs.total_energy.as_units().to_bits(),
                        ss.total_energy.as_units().to_bits(),
                        "{bench_name}/{}: energy diverged at {lanes} lanes",
                        bo.name
                    );
                    assert_eq!(bs.reconfigurations, ss.reconfigurations);
                    assert_eq!(bs.sync_stalls, ss.sync_stalls);
                    assert_eq!(bs.instructions, ss.instructions);
                }
            }
        }
    }
}

/// The fused pass against an independent reference: every outcome of a
/// full-registry job (one pass: every lane-shaped scheme plus the baseline
/// lane, then global DVS) equals a plain one-lane `Simulator::run` of the
/// same prepared lane, and the job's baseline equals a plain `NullHooks`
/// run, on one paper-tier and one server-tier benchmark. The whole
/// `SimStats` is compared through its `Debug` text, which prints every
/// float in round-trip form.
#[test]
fn fused_outcomes_match_plain_runs_of_the_same_prepared_lanes() {
    use mcd_dvfs::evaluation::{EvaluationConfig, SchemeResult};
    use mcd_dvfs::scheme::{configured_registry, Pools, Prepared, SchemeContext, SchemeOutcome};
    use mcd_dvfs::service::{EvalJob, Evaluator};

    let config = EvaluationConfig {
        include_global: true,
        include_zoo: true,
        ..EvaluationConfig::default()
    };
    for bench_name in ["adpcm decode", "web serve"] {
        let bench = mcd_dvfs::error::find_benchmark(bench_name).expect("known benchmark");
        let evaluator = Evaluator::builder().config(config.clone()).build();
        let fused = evaluator
            .submit(EvalJob::new(bench.clone()))
            .collect()
            .expect("full-registry job succeeds")
            .remove(0);
        let stats = evaluator.batch_stats();
        assert_eq!(stats.passes, 1, "{bench_name}: one fused pass");
        assert_eq!(stats.lanes, 7, "{bench_name}: six scheme lanes + baseline");

        let simulator = Simulator::new(config.machine.clone());
        let trace = generate_packed(&bench.program, &bench.inputs.reference);
        let baseline = simulator.run(trace.iter(), &mut NullHooks, false).stats;
        assert_eq!(
            format!("{:?}", fused.baseline),
            format!("{baseline:?}"),
            "{bench_name}: baseline lane diverged from a NullHooks run"
        );

        let mut pools = Pools::default();
        let mut reference: Vec<SchemeOutcome> = Vec::new();
        for scheme in configured_registry(&config).expect("registry configures") {
            let reads = scheme.reads_prior_outcomes();
            let ctx = SchemeContext {
                benchmark: &bench,
                machine: &config.machine,
                reference_trace: &trace,
                baseline: reads.then_some(&baseline),
                prior: if reads { &reference } else { &[] },
            };
            let stats = match scheme.prepare(&ctx, &mut pools).expect("scheme prepares") {
                Prepared::Lane(lane) => {
                    simulator
                        .run(trace.iter(), lane.hooks().as_mut(), false)
                        .stats
                }
                Prepared::Finished(stats) => stats,
            };
            reference.push(SchemeOutcome {
                name: scheme.name().to_string(),
                label: scheme.label(),
                result: SchemeResult::new(stats, &baseline),
            });
        }
        assert_eq!(
            fused.schemes.len(),
            7,
            "{bench_name}: the full registry ran"
        );
        assert_eq!(fused.schemes.len(), reference.len());
        for (f, r) in fused.schemes.iter().zip(&reference) {
            assert_eq!((&f.name, &f.label), (&r.name, &r.label));
            assert_eq!(
                format!("{:?}", f.result.stats),
                format!("{:?}", r.result.stats),
                "{bench_name}/{}: fused lane diverged from its plain run",
                f.name
            );
            assert_eq!(f.result.metrics, r.result.metrics);
        }
    }
}

/// Under contention (one worker, every job queued behind a running one),
/// jobs start strictly by priority class — every interactive job before
/// every batch job before every background job — and in FIFO order within a
/// class. The queue never exceeds the submitted backlog and the counters
/// account for every admission.
#[test]
fn priority_classes_are_served_in_order_under_contention() {
    use mcd_dvfs::service::{EvalEvent, EvalJob, Evaluator, Priority};

    let evaluator = Evaluator::builder().workers(1).build();
    // The blocker occupies the single worker while the backlog is queued. It
    // is submitted alone first, and the backlog only after its `JobStarted`
    // event arrives — so the worker is provably busy while the nine backlog
    // jobs land, with no timing assumptions: a full mcf off-line analysis
    // outlasts nine sub-microsecond queue pushes on any machine, however
    // loaded. Off-line only keeps each backlog job cheap.
    let blocker = EvalJob::named("mcf")
        .expect("known benchmark")
        .with_schemes([mcd_dvfs::scheme::names::OFFLINE])
        .with_priority(Priority::Background);
    let mut blocker_stream = evaluator.submit_all(vec![blocker]);
    for event in blocker_stream.by_ref() {
        if matches!(event, EvalEvent::JobStarted { .. }) {
            break;
        }
    }

    let job = |i: usize, priority: Priority| {
        EvalJob::named("adpcm decode")
            .expect("known benchmark")
            .with_slowdown(0.02 + 0.01 * i as f64)
            .with_schemes([mcd_dvfs::scheme::names::OFFLINE])
            .with_priority(priority)
    };
    // Interleave the submission order so FIFO-within-class is distinguishable
    // from plain FIFO: B I G B I G B I G.
    let classes = [Priority::Batch, Priority::Interactive, Priority::Background];
    let jobs: Vec<EvalJob> = (1..10).map(|i| job(i, classes[(i - 1) % 3])).collect();
    let priorities: Vec<Priority> = jobs.iter().map(|j| j.priority()).collect();
    let stream = evaluator.submit_all(jobs);
    let ids = stream.jobs().to_vec();
    let mut started = Vec::new();
    stream
        .collect_with(|event| {
            if let EvalEvent::JobStarted { job, .. } = event {
                started.push(*job);
            }
        })
        .expect("all jobs evaluate");
    // Drain the blocker's remaining events (it finished before the backlog
    // could start on the single worker).
    for _ in blocker_stream {}

    // The backlog drains class by class, FIFO within each class.
    assert_eq!(started.len(), 9);
    let expected: Vec<_> = [Priority::Interactive, Priority::Batch, Priority::Background]
        .iter()
        .flat_map(|&class| {
            ids.iter()
                .zip(&priorities)
                .filter(move |(_, &p)| p == class)
                .map(|(id, _)| *id)
        })
        .collect();
    assert_eq!(
        started, expected,
        "backlog must start interactive, then batch, then background"
    );
    assert_eq!(evaluator.queue_depth(), 0, "queue drains completely");
    assert!(evaluator.peak_queue_depth() >= 9, "backlog was queued");
    assert_eq!(evaluator.admission_stats().accepted, 0); // submit_all is unchecked
}

/// Two caches (standing in for two processes) racing to publish the same
/// key produce exactly one write and one file: the publication lock plus the
/// under-lock re-check admit a single writer per key.
#[test]
fn publication_lock_admits_one_writer_per_key() {
    use mcd_dvfs::artifact::{packed_trace_key, ArtifactCache};
    use mcd_sim::instruction::TraceItem;
    use std::sync::{Arc, Barrier};

    let dir = std::env::temp_dir().join(format!("mcd-prop-lock-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let bench = mcd_workloads::suite::benchmark("adpcm decode").expect("known benchmark");
    let key = packed_trace_key(bench.name, &bench.inputs.reference);
    let trace = PackedTrace::from_items(&[TraceItem::Instr(Instr::op(0x1000, InstrClass::IntAlu))]);

    let barrier = Arc::new(Barrier::new(2));
    let caches: Vec<Arc<ArtifactCache>> =
        (0..2).map(|_| Arc::new(ArtifactCache::new(&dir))).collect();
    let handles: Vec<_> = caches
        .iter()
        .map(|cache| {
            let cache = cache.clone();
            let barrier = barrier.clone();
            let trace = trace.clone();
            std::thread::spawn(move || {
                barrier.wait();
                let guard = cache.lock_publication(&key);
                assert!(guard.is_some(), "enabled cache always yields a guard");
                if cache.recheck_trace(&key).is_none() {
                    // Hold the lock across the "computation" so the loser
                    // really does contend rather than racing past.
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    cache.store_trace(&key, &trace);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("publisher threads complete");
    }

    let writes: u64 = caches.iter().map(|c| c.stats().writes).sum();
    assert_eq!(writes, 1, "exactly one racer computes and publishes");
    let files = ArtifactCache::new(&dir).entries();
    assert_eq!(files.len(), 1, "exactly one artifact lands on disk");
    assert!(
        caches.iter().any(|c| c.stats().lock_waits > 0),
        "the losing racer waited on the publication lock"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A lock file left behind by a dead process does not wedge publication:
/// once older than the configured stale age it is stolen and the key is
/// published normally.
#[test]
fn stale_publication_locks_are_stolen() {
    use mcd_dvfs::artifact::{packed_trace_key, ArtifactCache};
    use mcd_sim::instruction::TraceItem;

    let dir = std::env::temp_dir().join(format!("mcd-prop-stale-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("cache dir");
    let cache = ArtifactCache::new(&dir).with_lock_stale(std::time::Duration::from_millis(50));
    let bench = mcd_workloads::suite::benchmark("adpcm decode").expect("known benchmark");
    let key = packed_trace_key(bench.name, &bench.inputs.reference);
    // A lock file nobody will ever release, as a crashed process leaves it.
    let path = cache.path_of(&key).expect("enabled cache");
    let lock_path = path.with_file_name(format!(
        ".lock-{}",
        path.file_name().unwrap().to_string_lossy()
    ));
    std::fs::write(&lock_path, b"dead-process").expect("orphan lock");
    std::thread::sleep(std::time::Duration::from_millis(80));

    let start = std::time::Instant::now();
    let guard = cache.lock_publication(&key);
    assert!(guard.is_some(), "stale lock must be stolen, not waited out");
    assert!(
        start.elapsed() < std::time::Duration::from_secs(30),
        "steal happens promptly once the lock is stale"
    );
    let trace = PackedTrace::from_items(&[TraceItem::Instr(Instr::op(0x1000, InstrClass::IntAlu))]);
    cache.store_trace(&key, &trace);
    drop(guard);
    assert!(
        !lock_path.exists(),
        "releasing the stolen lock removes the lock file"
    );
    assert!(cache.recheck_trace(&key).is_some(), "key was published");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two racers stealing the *same* stale lock at the same moment: the
/// rename-aside steal protocol lets exactly one of them through at a time,
/// so the pair still produces exactly one write and one well-formed artifact.
#[test]
fn concurrent_stale_lock_steal_admits_one_writer() {
    use mcd_dvfs::artifact::{packed_trace_key, verify_envelope, ArtifactCache};
    use mcd_sim::instruction::TraceItem;
    use std::sync::{Arc, Barrier};

    let dir = std::env::temp_dir().join(format!("mcd-prop-steal-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("cache dir");
    let bench = mcd_workloads::suite::benchmark("adpcm decode").expect("known benchmark");
    let key = packed_trace_key(bench.name, &bench.inputs.reference);
    let trace = PackedTrace::from_items(&[TraceItem::Instr(Instr::op(0x1000, InstrClass::IntAlu))]);

    // The dead process's lock. The stale age (200 ms) comfortably exceeds the
    // winner's under-lock work, so the loser cannot steal a *live* lock; both
    // racers see this one as stale after the sleep.
    let stale_age = std::time::Duration::from_millis(200);
    let lock_path = dir.join(format!(".lock-{}", key.file_name()));
    std::fs::write(&lock_path, b"dead-process").expect("orphan lock");
    std::thread::sleep(stale_age + std::time::Duration::from_millis(50));

    let barrier = Arc::new(Barrier::new(2));
    let caches: Vec<Arc<ArtifactCache>> = (0..2)
        .map(|_| Arc::new(ArtifactCache::new(&dir).with_lock_stale(stale_age)))
        .collect();
    let handles: Vec<_> = caches
        .iter()
        .map(|cache| {
            let cache = cache.clone();
            let barrier = barrier.clone();
            let trace = trace.clone();
            std::thread::spawn(move || {
                barrier.wait();
                let guard = cache.lock_publication(&key);
                assert!(guard.is_some(), "enabled cache always yields a guard");
                // The under-lock re-check is the duplicate-write barrier:
                // whichever racer enters second finds the winner's artifact.
                if cache.recheck_trace(&key).is_none() {
                    cache.store_trace(&key, &trace);
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().expect("stealer threads complete");
    }

    let writes: u64 = caches.iter().map(|c| c.stats().writes).sum();
    assert_eq!(writes, 1, "exactly one stealer computes and publishes");
    let files = ArtifactCache::new(&dir).entries();
    assert_eq!(files.len(), 1, "exactly one artifact lands on disk");
    // The artifact is well-formed end to end (envelope, version, checksum) —
    // no torn or doubly-written file survived the race.
    let bytes = std::fs::read(dir.join(&files[0].name)).expect("artifact readable");
    verify_envelope(&files[0].kind, &bytes).expect("artifact envelope intact");
    // No lock debris outlives the race: the stale lock was consumed and both
    // racers released theirs.
    let debris: Vec<String> = std::fs::read_dir(&dir)
        .expect("cache dir listable")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with(".lock-"))
        .collect();
    assert!(debris.is_empty(), "lock debris left behind: {debris:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The simulator is monotone in work: appending instructions never reduces
/// run time or energy, and run time is always positive for non-empty traces.
#[test]
fn simulator_monotone_in_trace_length() {
    let build = |count: usize| -> Vec<TraceItem> {
        (0..count)
            .map(|i| {
                TraceItem::Instr(
                    Instr::op(0x1000 + (i as u64 % 32) * 4, InstrClass::IntAlu).with_dep1(1),
                )
            })
            .collect()
    };
    let sim = Simulator::new(MachineConfig::default());
    let mut cases = Cases::new(0x1DEA);
    for _ in 0..24 {
        let n = cases.usize(10, 200);
        let extra = cases.usize(1, 200);
        let short = sim.run(build(n), &mut NullHooks, false).stats;
        let long = sim.run(build(n + extra), &mut NullHooks, false).stats;
        assert!(short.run_time.as_ns() > 0.0);
        assert!(long.run_time >= short.run_time);
        assert!(long.total_energy.as_units() >= short.total_energy.as_units());
    }
}
