//! Server-tier benchmarks: request-loop programs composed with
//! [`ServerWorkload`].
//!
//! Three request-serving profiles beyond the paper's batch programs, in the
//! spirit of the network-processor DVS studies (Yu et al.): a web front end
//! with mixed static/dynamic/TLS requests, a pointer-chasing key-value
//! store, and a media relay alternating FP transcode work with cheap
//! pass-through copies. Each interleaves short heterogeneous per-request
//! phases at a steady arrival rate — the phase structure the paper's
//! nineteen batch benchmarks never exhibit.

use crate::input::InputPair;
use crate::mix::InstructionMix;
use crate::program::{Program, TripCount};
use crate::server::ServerWorkload;

/// `web serve`: a web front end serving static files (streaming copies),
/// dynamic pages (control-heavy templating), and TLS records (multiply-rich
/// integer crypto).
pub fn web_serve() -> (Program, InputPair) {
    ServerWorkload::new("web_serve")
        .seed(0x05eb)
        .dispatch(140)
        .class("static", InstructionMix::streaming_int(), 520, 0.5)
        .class("dynamic", InstructionMix::branchy_int(), 760, 0.3)
        .class("tls", InstructionMix::scalar_crypto(), 980, 0.2)
        .requests(
            28,
            TripCount::Scaled {
                base: 4,
                reference_factor: 2.2,
            },
        )
        .intensity_jitter(0.25)
        .windows(85_000, 180_000)
        .build()
}

/// `kv store`: an in-memory key-value store — pointer-chasing lookups
/// dominate, with occasional writes and rare full scans.
pub fn kv_store() -> (Program, InputPair) {
    ServerWorkload::new("kv_store")
        .seed(0x6b76)
        .dispatch(120)
        .class("get", InstructionMix::pointer_chase(), 600, 0.65)
        .class("put", InstructionMix::streaming_int(), 460, 0.25)
        .class("scan", InstructionMix::streaming_int(), 1400, 0.10)
        .requests(
            26,
            TripCount::Scaled {
                base: 4,
                reference_factor: 2.5,
            },
        )
        .intensity_jitter(0.2)
        .windows(70_000, 170_000)
        .build()
}

/// `media relay`: a streaming relay that transcodes some flows (dense FP
/// kernels), passes others through untouched, and renders thumbnails over
/// cache-spilling frames.
pub fn media_relay() -> (Program, InputPair) {
    ServerWorkload::new("media_relay")
        .seed(0x6d72)
        .dispatch(150)
        .class("transcode", InstructionMix::fp_kernel(), 950, 0.45)
        .class("passthrough", InstructionMix::streaming_int(), 380, 0.35)
        .class(
            "thumbnail",
            InstructionMix::fp_streaming_memory(),
            1300,
            0.20,
        )
        .requests(
            24,
            TripCount::Scaled {
                base: 4,
                reference_factor: 2.0,
            },
        )
        .intensity_jitter(0.3)
        .windows(85_000, 170_000)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::generate_trace;

    #[test]
    fn kv_store_is_memory_bound_integer_code() {
        let (program, inputs) = kv_store();
        let trace = generate_trace(&program, &inputs.training);
        let instrs: Vec<_> = trace.iter().filter_map(|t| t.as_instr()).collect();
        let fp = instrs.iter().filter(|i| i.class.is_fp()).count();
        assert!(
            (fp as f64) < instrs.len() as f64 * 0.01,
            "kv store should be (almost) FP-free, got {fp}/{}",
            instrs.len()
        );
    }

    #[test]
    fn media_relay_mixes_fp_and_integer_requests() {
        let (program, inputs) = media_relay();
        let trace = generate_trace(&program, &inputs.training);
        let instrs: Vec<_> = trace.iter().filter_map(|t| t.as_instr()).collect();
        let fp = instrs.iter().filter(|i| i.class.is_fp()).count() as f64 / instrs.len() as f64;
        assert!(
            fp > 0.1 && fp < 0.5,
            "media relay should be mixed FP/int, got FP fraction {fp:.2}"
        );
    }

    #[test]
    fn web_serve_has_one_handler_per_class() {
        let (program, _) = web_serve();
        for handler in ["handle_static", "handle_dynamic", "handle_tls"] {
            assert!(program.subroutine_by_name(handler).is_some(), "{handler}");
        }
        assert!(program.subroutine_by_name("dispatch").is_some());
    }
}
