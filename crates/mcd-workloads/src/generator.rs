//! Deterministic expansion of a [`Program`] into a dynamic instruction/marker
//! trace.
//!
//! The generator walks the program structure under a given [`InputSet`]:
//! blocks expand into instruction sequences drawn from their
//! [`InstructionMix`], loops iterate according to
//! their (input-scaled) trip counts, calls descend into callees, and
//! input-dependent regions pick the branch matching the input kind. Structural
//! markers (subroutine/loop entry and exit) are interleaved exactly where an
//! ATOM-instrumented binary would report them.
//!
//! Everything is derived from the input set's seed, so a given (program, input)
//! pair always produces the identical trace.

use crate::input::InputSet;
use crate::mix::InstructionMix;
use crate::program::{Element, InputKind, Program, Subroutine};
use crate::rng::WorkloadRng;
use mcd_sim::instruction::{CallSiteId, Instr, InstrClass, Marker, TraceItem};
use mcd_sim::trace::PackedTrace;

/// Call-site value used for the program entry point (`main` has no caller).
pub const ROOT_CALL_SITE: CallSiteId = CallSiteId(u32::MAX);

/// Expands programs into traces.
#[derive(Debug, Clone)]
pub struct TraceGenerator<'a> {
    program: &'a Program,
}

impl<'a> TraceGenerator<'a> {
    /// Creates a generator for `program`.
    pub fn new(program: &'a Program) -> Self {
        TraceGenerator { program }
    }

    /// Generates the dynamic trace of the program under `input` directly into
    /// the compact [`PackedTrace`] encoding, truncated to the input's
    /// instruction window. This is the primary entry point of the hot path:
    /// no `Vec<TraceItem>` is ever materialized.
    pub fn generate_packed(&self, input: &InputSet) -> PackedTrace {
        let mut ctx = GenContext {
            program: self.program,
            input_kind: input.kind,
            budget: input.max_instructions,
            emitted: 0,
            rng: WorkloadRng::seed_from_u64(input.seed ^ hash_name(&self.program.name)),
            trace: PackedTrace::with_capacity(input.max_instructions.min(1 << 22) as usize),
            block_positions: 0,
        };
        let entry = self.program.subroutine(self.program.entry);
        ctx.emit_subroutine(entry, ROOT_CALL_SITE, 1.0);
        ctx.trace
    }

    /// Generates the dynamic trace in the legacy item representation
    /// (a decode of [`TraceGenerator::generate_packed`], bit-identical to the
    /// historical output).
    pub fn generate(&self, input: &InputSet) -> Vec<TraceItem> {
        self.generate_packed(input).to_items()
    }
}

/// Convenience wrapper: generate the packed trace of `program` under `input`.
pub fn generate_packed(program: &Program, input: &InputSet) -> PackedTrace {
    TraceGenerator::new(program).generate_packed(input)
}

/// Convenience wrapper: generate the trace of `program` under `input` as
/// legacy items (decoded from the packed encoding; prefer [`generate_packed`]
/// on hot paths).
pub fn generate_trace(program: &Program, input: &InputSet) -> Vec<TraceItem> {
    TraceGenerator::new(program).generate(input)
}

fn hash_name(name: &str) -> u64 {
    // FNV-1a, good enough to decorrelate benchmark seeds.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

struct GenContext<'a> {
    program: &'a Program,
    input_kind: InputKind,
    budget: u64,
    emitted: u64,
    rng: WorkloadRng,
    trace: PackedTrace,
    /// Monotone counter giving each block execution a distinct phase for its
    /// strided address stream.
    block_positions: u64,
}

impl GenContext<'_> {
    fn exhausted(&self) -> bool {
        self.emitted >= self.budget
    }

    fn emit_subroutine(&mut self, sub: &Subroutine, site: CallSiteId, intensity: f64) {
        if self.exhausted() {
            return;
        }
        self.trace.push_marker(&Marker::SubroutineEnter {
            subroutine: sub.id,
            call_site: site,
        });
        self.emit_elements(&sub.body, sub, 0, intensity);
        self.trace
            .push_marker(&Marker::SubroutineExit { subroutine: sub.id });
    }

    fn emit_elements(
        &mut self,
        elements: &[Element],
        sub: &Subroutine,
        depth: u32,
        intensity: f64,
    ) {
        for (idx, element) in elements.iter().enumerate() {
            if self.exhausted() {
                return;
            }
            match element {
                Element::Block(block) => {
                    let pc_base = block_pc_base(sub.id.0, depth, idx as u32);
                    // Jitter draws only happen for jittered blocks, so programs
                    // built entirely from fixed-size blocks keep their
                    // historical traces bit-for-bit.
                    let jitter_factor = if block.jitter > 0.0 {
                        1.0 + block.jitter * (2.0 * self.rng.next_f64() - 1.0)
                    } else {
                        1.0
                    };
                    let scaled = ((block.instructions as f64) * intensity * jitter_factor)
                        .round()
                        .max(1.0) as u32;
                    self.emit_block(scaled, &block.mix, pc_base, sub.id.0);
                }
                Element::Loop(spec) => {
                    let trips = spec.trips.trips(self.input_kind);
                    if trips == 0 {
                        continue;
                    }
                    self.trace
                        .push_marker(&Marker::LoopEnter { loop_id: spec.id });
                    let back_edge_pc = block_pc_base(sub.id.0, depth, idx as u32) | 0xF00;
                    for trip in 0..trips {
                        if self.exhausted() {
                            break;
                        }
                        self.emit_elements(&spec.body, sub, depth + 1, intensity);
                        if self.exhausted() {
                            break;
                        }
                        // Loop-closing branch: taken on every iteration but the last.
                        let taken = trip + 1 < trips;
                        self.push_instr(Instr::branch(back_edge_pc, taken, back_edge_pc & !0xFFF));
                    }
                    self.trace
                        .push_marker(&Marker::LoopExit { loop_id: spec.id });
                }
                Element::Call(call) => {
                    let callee = self.program.subroutine(call.callee);
                    self.emit_subroutine(callee, call.site, intensity * call.intensity);
                }
                Element::InputDependent {
                    training,
                    reference,
                } => {
                    let chosen = match self.input_kind {
                        InputKind::Training => training,
                        InputKind::Reference => reference,
                    };
                    self.emit_elements(chosen, sub, depth + 1, intensity);
                }
            }
        }
    }

    fn emit_block(&mut self, instructions: u32, mix: &InstructionMix, pc_base: u64, sub_id: u32) {
        let cumulative = mix.cumulative();
        let data_base = 0x1000_0000u64 + (sub_id as u64) * 0x0400_0000;
        let working_set = mix.working_set_bytes.max(64);
        self.block_positions += 1;
        let mut position = self.block_positions * 29;

        for i in 0..instructions {
            if self.exhausted() {
                return;
            }
            let pc = pc_base + (i as u64) * 4;
            let draw: f64 = self.rng.next_f64();
            let class = cumulative
                .iter()
                .find(|(_, c)| draw <= *c)
                .map(|(k, _)| *k)
                .unwrap_or(InstrClass::IntAlu);

            let mut instr = match class {
                InstrClass::Load | InstrClass::Store => {
                    position = position.wrapping_add(1);
                    let offset = if mix.stride_bytes > 0 {
                        (position * mix.stride_bytes) % working_set
                    } else {
                        (self.rng.next_u64() % working_set) & !0x7
                    };
                    if class == InstrClass::Load {
                        Instr::load(pc, data_base + offset)
                    } else {
                        Instr::store(pc, data_base + offset)
                    }
                }
                InstrClass::Branch => {
                    let irregular = self.rng.next_f64() < mix.branch_irregularity;
                    let taken = if irregular {
                        self.rng.next_f64() < mix.branch_taken_rate
                    } else {
                        // Biased branch: almost always taken.
                        self.rng.next_f64() < 0.97
                    };
                    Instr::branch(pc, taken, pc + 32)
                }
                other => Instr::op(pc, other),
            };

            // Dependence distances: an approximately geometric distribution with
            // the mix's mean, clamped to the simulator's dependence window.
            let d1 = self.sample_dependence(mix.dep_distance_mean, i);
            if let Some(d) = d1 {
                instr = instr.with_dep1(d);
            }
            if self.rng.next_f64() < 0.4 {
                if let Some(d) = self.sample_dependence(mix.dep_distance_mean * 2.0, i) {
                    instr = instr.with_dep2(d);
                }
            }
            self.push_instr(instr);
        }
    }

    fn sample_dependence(&mut self, mean: f64, emitted_in_block: u32) -> Option<u16> {
        if emitted_in_block == 0 && self.emitted == 0 {
            return None;
        }
        // Geometric-ish sample: -mean * ln(U) rounded up, clamped to [1, 64].
        let u: f64 = self.rng.next_f64().max(1e-12);
        let d = (-(mean.max(1.0)) * u.ln()).ceil();
        let d = d.clamp(1.0, 64.0) as u16;
        Some(d)
    }

    fn push_instr(&mut self, instr: Instr) {
        self.trace.push_instr(&instr);
        self.emitted += 1;
    }
}

fn block_pc_base(sub_id: u32, depth: u32, index: u32) -> u64 {
    // Deterministic, well-spread static code addresses: one 64 KB region per
    // subroutine, sub-regions per nesting depth and element index.
    0x0040_0000u64 + (sub_id as u64) * 0x1_0000 + (depth as u64) * 0x2000 + (index as u64) * 0x400
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::{ProgramBuilder, TripCount};

    fn tiny_program() -> Program {
        let mut b = ProgramBuilder::new("tiny");
        let helper = b.subroutine("helper", |s| {
            s.block(50, InstructionMix::fp_kernel());
        });
        b.subroutine("main", |s| {
            s.block(20, InstructionMix::branchy_int());
            s.repeat(
                "outer",
                TripCount::Scaled {
                    base: 5,
                    reference_factor: 4.0,
                },
                |l| {
                    l.call(helper);
                    l.block(30, InstructionMix::streaming_int());
                },
            );
        });
        b.build("main")
    }

    fn instr_count(trace: &[TraceItem]) -> u64 {
        trace.iter().filter(|t| t.as_instr().is_some()).count() as u64
    }

    #[test]
    fn generation_is_deterministic() {
        let p = tiny_program();
        let input = InputSet::training(10_000);
        let a = generate_trace(&p, &input);
        let b = generate_trace(&p, &input);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn reference_input_runs_longer() {
        let p = tiny_program();
        let train = generate_trace(&p, &InputSet::training(1_000_000));
        let reference = generate_trace(&p, &InputSet::reference(1_000_000));
        assert!(instr_count(&reference) > instr_count(&train) * 2);
    }

    #[test]
    fn window_truncates_generation() {
        let p = tiny_program();
        let full = generate_trace(&p, &InputSet::reference(1_000_000));
        let truncated = generate_trace(&p, &InputSet::reference(100));
        assert!(instr_count(&full) > 100);
        assert_eq!(instr_count(&truncated), 100);
    }

    #[test]
    fn markers_are_properly_nested_for_untruncated_runs() {
        let p = tiny_program();
        let trace = generate_trace(&p, &InputSet::training(1_000_000));
        let mut depth: i64 = 0;
        let mut saw_loop = false;
        let mut saw_call_site = false;
        for item in &trace {
            match item {
                TraceItem::Marker(Marker::SubroutineEnter { call_site, .. }) => {
                    depth += 1;
                    if *call_site != ROOT_CALL_SITE {
                        saw_call_site = true;
                    }
                }
                TraceItem::Marker(Marker::SubroutineExit { .. }) => depth -= 1,
                TraceItem::Marker(Marker::LoopEnter { .. }) => {
                    saw_loop = true;
                    depth += 1;
                }
                TraceItem::Marker(Marker::LoopExit { .. }) => depth -= 1,
                TraceItem::Instr(_) => {}
            }
            assert!(depth >= 0, "exit marker without matching enter");
        }
        assert_eq!(depth, 0, "all markers should be matched");
        assert!(saw_loop);
        assert!(saw_call_site);
    }

    #[test]
    fn fp_program_emits_fp_instructions() {
        let p = tiny_program();
        let trace = generate_trace(&p, &InputSet::reference(50_000));
        let fp = trace
            .iter()
            .filter_map(|t| t.as_instr())
            .filter(|i| i.class.is_fp())
            .count();
        let total = instr_count(&trace) as usize;
        assert!(
            fp > total / 10,
            "expected a noticeable FP fraction, got {fp}/{total}"
        );
    }

    #[test]
    fn branch_targets_and_memory_addresses_present() {
        let p = tiny_program();
        let trace = generate_trace(&p, &InputSet::training(20_000));
        let mut loads = 0;
        let mut branches = 0;
        for i in trace.iter().filter_map(|t| t.as_instr()) {
            match i.class {
                InstrClass::Load | InstrClass::Store => {
                    assert!(i.mem_addr.is_some());
                    loads += 1;
                }
                InstrClass::Branch => {
                    assert!(i.branch.is_some());
                    branches += 1;
                }
                _ => {}
            }
        }
        assert!(loads > 0);
        assert!(branches > 0);
    }

    #[test]
    fn jittered_blocks_vary_with_the_seed_but_stay_bounded() {
        let mut b = ProgramBuilder::new("jittery");
        b.subroutine("main", |s| {
            s.repeat("cycle", TripCount::Fixed(40), |l| {
                l.block_jittered(100, InstructionMix::streaming_int(), 0.25);
            });
        });
        let p = b.build("main");
        let a = generate_trace(&p, &InputSet::training(1_000_000));
        let b2 = generate_trace(&p, &InputSet::training(1_000_000).with_seed(42));
        // Same program, same seed: deterministic. Different seed: different
        // burst lengths, hence a different trace length.
        let again = generate_trace(&p, &InputSet::training(1_000_000));
        assert_eq!(a, again);
        assert_ne!(instr_count(&a), instr_count(&b2));
        // Each execution stays within the jitter bounds (plus the per-trip
        // loop-closing branch).
        let total = instr_count(&a);
        let per_trip = total as f64 / 40.0;
        assert!(per_trip >= 100.0 * 0.75, "per-trip {per_trip} below bound");
        assert!(
            per_trip <= 100.0 * 1.25 + 1.0,
            "per-trip {per_trip} above bound"
        );
    }

    #[test]
    fn different_input_kinds_choose_different_paths() {
        let mut b = ProgramBuilder::new("paths");
        b.subroutine("main", |s| {
            s.input_dependent(
                |tr| {
                    tr.block(100, InstructionMix::branchy_int());
                },
                |rf| {
                    rf.block(100, InstructionMix::fp_kernel());
                },
            );
        });
        let p = b.build("main");
        let train = generate_trace(&p, &InputSet::training(10_000));
        let reference = generate_trace(&p, &InputSet::reference(10_000));
        let fp_train = train
            .iter()
            .filter_map(|t| t.as_instr())
            .filter(|i| i.class.is_fp())
            .count();
        let fp_ref = reference
            .iter()
            .filter_map(|t| t.as_instr())
            .filter(|i| i.class.is_fp())
            .count();
        assert_eq!(fp_train, 0);
        assert!(fp_ref > 10);
    }
}
