//! Interactive-tier benchmarks: bursty duty-cycle programs composed with
//! [`BurstProfile`].
//!
//! Three latency-constrained, SysScale-style mobile profiles: a photo editor
//! applying FP filters on user actions, a sensor hub waking briefly out of
//! long polling stretches, and a wake-word detector running serial FP
//! recurrences in short bursts. Their idle–burst alternation is the phase
//! structure an interval-based DVFS controller finds hardest: the attack
//! phase keeps paying the ramp cost at every burst edge.

use crate::input::InputPair;
use crate::mix::InstructionMix;
use crate::program::{Program, TripCount};
use crate::server::BurstProfile;

/// `photo edit`: bursts of dense FP filter kernels on each user action,
/// between stretches of event-loop polling.
pub fn photo_edit() -> (Program, InputPair) {
    BurstProfile::new("photo_edit")
        .seed(0x7065)
        .burst(InstructionMix::fp_kernel(), 2600)
        .duty_cycle(0.35)
        .jitter(0.25)
        .static_jitter(0.1)
        .cycles(
            3,
            TripCount::Scaled {
                base: 5,
                reference_factor: 1.8,
            },
        )
        .windows(90_000, 180_000)
        .build()
}

/// `sensor hub`: a low-duty-cycle aggregator — short DSP bursts over sensor
/// samples, dominated by idle polling.
pub fn sensor_hub() -> (Program, InputPair) {
    BurstProfile::new("sensor_hub")
        .seed(0x7368)
        .burst(InstructionMix::dsp_int(), 900)
        .duty_cycle(0.15)
        .jitter(0.3)
        .static_jitter(0.15)
        .cycles(
            4,
            TripCount::Scaled {
                base: 4,
                reference_factor: 2.2,
            },
        )
        .windows(80_000, 180_000)
        .build()
}

/// `speech wake`: a wake-word detector — serial FP recurrences (the acoustic
/// model) in moderate bursts between idle listening.
pub fn speech_wake() -> (Program, InputPair) {
    BurstProfile::new("speech_wake")
        .seed(0x7377)
        .burst(InstructionMix::fp_recurrence(), 1800)
        .duty_cycle(0.25)
        .jitter(0.2)
        .static_jitter(0.1)
        .cycles(
            3,
            TripCount::Scaled {
                base: 5,
                reference_factor: 1.9,
            },
        )
        .windows(90_000, 180_000)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate_trace;
    use mcd_sim::instruction::{Marker, TraceItem};

    /// Measures the fraction of instructions executed inside the `burst`
    /// subroutine (the realized duty cycle, start-up excluded).
    fn measured_duty(program: &Program, trace: &[TraceItem]) -> f64 {
        let burst_id = program
            .subroutine_by_name("burst")
            .expect("burst subroutine")
            .id;
        let idle_id = program
            .subroutine_by_name("idle_wait")
            .expect("idle subroutine")
            .id;
        let mut stack = Vec::new();
        let (mut burst, mut idle) = (0u64, 0u64);
        for item in trace {
            match item {
                TraceItem::Marker(Marker::SubroutineEnter { subroutine, .. }) => {
                    stack.push(*subroutine);
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
        burst as f64 / (burst + idle) as f64
    }

    #[test]
    fn sensor_hub_is_idle_dominated() {
        let (program, inputs) = sensor_hub();
        let trace = generate_trace(&program, &inputs.training);
        let duty = measured_duty(&program, &trace);
        assert!(duty < 0.3, "sensor hub duty {duty:.2} should be low");
    }

    #[test]
    fn photo_edit_duty_is_near_nominal() {
        let (program, inputs) = photo_edit();
        let trace = generate_trace(&program, &inputs.training);
        let duty = measured_duty(&program, &trace);
        assert!(
            (duty - 0.35).abs() < 0.12,
            "photo edit duty {duty:.2} too far from 0.35"
        );
    }

    #[test]
    fn speech_wake_bursts_are_floating_point() {
        let (program, inputs) = speech_wake();
        let trace = generate_trace(&program, &inputs.training);
        let instrs: Vec<_> = trace.iter().filter_map(|t| t.as_instr()).collect();
        let fp = instrs.iter().filter(|i| i.class.is_fp()).count() as f64 / instrs.len() as f64;
        assert!(fp > 0.08, "FP fraction {fp:.2} too small for FP bursts");
    }
}
