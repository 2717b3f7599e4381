//! Structural models of the nineteen benchmarks the paper evaluates, plus
//! the second-tier server ([`server`]) and interactive ([`interactive`])
//! workloads that extend the evaluation beyond the paper's batch programs.
//!
//! Each module builds a [`Program`](crate::program::Program) whose subroutine /
//! loop / call-site structure and per-phase instruction mixes follow the real
//! application's well-known organization (DCT + Huffman stages in JPEG, the
//! pyramid filter of epic, pointer-chasing network simplex in mcf, stencil
//! sweeps in swim, and so on), together with the training/reference
//! [`InputPair`](crate::input::InputPair) describing the simulated windows.
//!
//! The absolute instruction counts are scaled down from the paper's 200 M
//! instruction windows (`table2_windows` prints them; see the README's
//! figure table); the *relative* structure — which
//! domain each phase keeps busy, which nodes run long enough to justify
//! reconfiguration, and how training and reference inputs differ — is what the
//! reproduction depends on, and is preserved.

pub mod adpcm;
pub mod applu;
pub mod art;
pub mod epic;
pub mod equake;
pub mod g721;
pub mod gsm;
pub mod gzip;
pub mod interactive;
pub mod jpeg;
pub mod mcf;
pub mod mpeg2;
pub mod server;
pub mod swim;
pub mod vpr;

#[cfg(test)]
mod structure_tests {
    use crate::generator::generate_trace;
    use crate::input::InputPair;
    use crate::program::Program;

    /// Every benchmark builder must yield a program that actually generates a
    /// healthy number of instructions under both inputs, with the reference
    /// input at least as long as the training input.
    fn check(name: &str, (program, inputs): (Program, InputPair)) {
        let train = generate_trace(&program, &inputs.training);
        let reference = generate_trace(&program, &inputs.reference);
        let count = |t: &[mcd_sim::instruction::TraceItem]| {
            t.iter().filter(|i| i.as_instr().is_some()).count()
        };
        let (nt, nr) = (count(&train), count(&reference));
        assert!(nt > 10_000, "{name}: training trace too short ({nt})");
        assert!(nr > 20_000, "{name}: reference trace too short ({nr})");
        assert!(
            nr as f64 >= nt as f64 * 0.9,
            "{name}: reference ({nr}) should not be shorter than training ({nt})"
        );
        assert!(program.subroutine_count() >= 1, "{name}: no subroutines");
    }

    #[test]
    fn all_benchmarks_generate_sane_traces() {
        check("adpcm_decode", super::adpcm::decode());
        check("adpcm_encode", super::adpcm::encode());
        check("epic_decode", super::epic::decode());
        check("epic_encode", super::epic::encode());
        check("g721_decode", super::g721::decode());
        check("g721_encode", super::g721::encode());
        check("gsm_decode", super::gsm::decode());
        check("gsm_encode", super::gsm::encode());
        check("jpeg_compress", super::jpeg::compress());
        check("jpeg_decompress", super::jpeg::decompress());
        check("mpeg2_decode", super::mpeg2::decode());
        check("mpeg2_encode", super::mpeg2::encode());
        check("gzip", super::gzip::gzip());
        check("vpr", super::vpr::vpr());
        check("mcf", super::mcf::mcf());
        check("swim", super::swim::swim());
        check("applu", super::applu::applu());
        check("art", super::art::art());
        check("equake", super::equake::equake());
    }

    /// The second-tier (server + interactive) benchmarks must satisfy the
    /// same trace-health invariants as the paper's nineteen.
    #[test]
    fn all_second_tier_benchmarks_generate_sane_traces() {
        check("web_serve", super::server::web_serve());
        check("kv_store", super::server::kv_store());
        check("media_relay", super::server::media_relay());
        check("photo_edit", super::interactive::photo_edit());
        check("sensor_hub", super::interactive::sensor_hub());
        check("speech_wake", super::interactive::speech_wake());
    }
}
