//! Pipeline stages 1 and 2: windowed capture and per-window analysis.
//!
//! The streaming stage behind
//! [`AnalysisPipeline::histograms`](crate::pipeline::AnalysisPipeline::histograms)
//! streams each completed fixed-instruction window straight out of the
//! simulator ([`Simulator::run_windowed`]) into DAG construction and the
//! shaker, so the whole-run `EventTrace` — two hundred bytes per instruction
//! — is never materialized; peak capture memory is O(window). Serially the
//! same window buffer is reused for every window (arena reuse); with
//! `parallelism > 1` closed windows flow through a bounded channel to scoped
//! worker threads, so analysis overlaps capture and at most a few windows are
//! ever resident. Either way the per-window histograms are bit-identical for
//! every thread budget.
//!
//! For a trace that was captured whole ([`capture`](crate::pipeline::capture)),
//! [`slice_windows`] partitions the [`CapturedTrace`] into a [`WindowPlan`]
//! in one pass over events and edges, so each window can be analysed as a
//! separate stage.

use crate::dag::DependenceDag;
use crate::histogram::RegionHistograms;
use crate::pipeline::capture::CapturedTrace;
use crate::shaker::Shaker;
use mcd_sim::events::EventTrace;
use mcd_sim::freq::FrequencyGrid;
use mcd_sim::simulator::{NullHooks, Simulator};
use mcd_sim::trace::PackedTrace;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};

/// What the streaming capture stage observed: how many windows closed and the
/// peak number of primitive events resident at once (current recording buffer
/// plus any windows queued for analysis). For a healthy stream the peak is a
/// small multiple of one window's events, independent of trace length.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamReport {
    /// Windows handed to the analysis stage.
    pub windows: u64,
    /// Peak resident primitive events across capture buffer and queue.
    pub peak_resident_events: usize,
}

/// Runs capture and per-window analysis as one streaming stage: the
/// full-speed recording run hands each closed window to DAG construction and
/// the shaker as soon as it completes, returning each window's histograms in
/// window order (`None` for an empty window) plus a [`StreamReport`].
///
/// Serially the windows are analysed in place, reusing one window buffer for
/// the whole run; with `parallelism > 1` they flow through a bounded channel
/// to scoped workers. The histograms are bit-identical for every
/// `parallelism` value.
pub(crate) fn stream_histograms(
    trace: &PackedTrace,
    simulator: &Simulator,
    window_instructions: u64,
    shaker: &Shaker,
    parallelism: usize,
) -> (Vec<Option<RegionHistograms>>, StreamReport) {
    let grid = &simulator.config().grid;
    let analyze = |window: &EventTrace| window_histograms(window, grid, shaker);
    if parallelism <= 1 {
        let mut results = Vec::new();
        let mut peak = 0usize;
        simulator.run_windowed(
            trace.iter(),
            &mut NullHooks,
            window_instructions,
            |index, buf| {
                debug_assert_eq!(index as usize, results.len());
                peak = peak.max(buf.len());
                results.push(analyze(buf));
            },
        );
        let report = StreamReport {
            windows: results.len() as u64,
            peak_resident_events: peak,
        };
        return (results, report);
    }

    // Parallel: closed windows travel through a bounded channel to scoped
    // workers, so capture overlaps analysis while total resident memory stays
    // at O(parallelism × window).
    type Slot = Option<Option<RegionHistograms>>;
    let slots: Mutex<Vec<Slot>> = Mutex::new(Vec::new());
    let resident = AtomicUsize::new(0);
    let peak = AtomicUsize::new(0);
    let (tx, rx) = mpsc::sync_channel::<(u64, EventTrace)>(parallelism * 2);
    let rx = Mutex::new(rx);
    std::thread::scope(|scope| {
        for _ in 0..parallelism {
            scope.spawn(|| loop {
                let received = rx.lock().expect("receiver lock").recv();
                let Ok((index, window)) = received else {
                    break;
                };
                let result = analyze(&window);
                resident.fetch_sub(window.len(), Ordering::Relaxed);
                let mut slots = slots.lock().expect("slot lock");
                if slots.len() <= index as usize {
                    slots.resize_with(index as usize + 1, || None);
                }
                slots[index as usize] = Some(result);
            });
        }
        simulator.run_windowed(
            trace.iter(),
            &mut NullHooks,
            window_instructions,
            |index, buf| {
                let mut window = std::mem::take(buf);
                window.shrink_to_fit();
                let now = resident.fetch_add(window.len(), Ordering::Relaxed) + window.len();
                peak.fetch_max(now, Ordering::Relaxed);
                tx.send((index, window)).expect("workers outlive capture");
            },
        );
        drop(tx);
    });
    let results: Vec<_> = slots
        .into_inner()
        .expect("workers exited")
        .into_iter()
        .map(|slot| slot.expect("every window was analysed"))
        .collect();
    let report = StreamReport {
        windows: results.len() as u64,
        peak_resident_events: peak.load(Ordering::Relaxed),
    };
    (results, report)
}

/// The output of the slicing stage: one event sub-trace per instruction
/// window, ids remapped to be dense, edges restricted to pairs within the
/// same window.
#[derive(Debug, Clone)]
pub struct WindowPlan {
    /// Window length in instructions (at least one).
    pub window_instructions: u64,
    /// One slice per window, in window order.
    pub slices: Vec<EventTrace>,
}

impl WindowPlan {
    /// Number of windows.
    pub fn len(&self) -> usize {
        self.slices.len()
    }

    /// True if the capture produced no windows.
    pub fn is_empty(&self) -> bool {
        self.slices.is_empty()
    }
}

/// Slices a captured trace into `window_instructions`-sized windows.
///
/// Events keep their recording order within each window; dependence edges that
/// cross a window boundary are dropped, exactly as the per-window analysis of
/// the paper requires (each window is analysed as a closed region).
pub fn slice_windows(captured: &CapturedTrace, window_instructions: u64) -> WindowPlan {
    let window = window_instructions.max(1);
    let count = captured.stats.instructions.div_ceil(window) as usize;
    let mut slices = vec![EventTrace::new(); count];
    let events = captured.events.events();

    // Remap each event id to its dense id within its window's slice.
    let mut id_map = vec![u32::MAX; events.len()];
    let window_of = |instr_index: u32| (instr_index as u64 / window) as usize;
    for (i, ev) in events.iter().enumerate() {
        let w = window_of(ev.instr_index);
        if w < count {
            id_map[i] = slices[w].push_event(*ev);
        }
    }
    for edge in captured.events.edges() {
        let (f, t) = (id_map[edge.from as usize], id_map[edge.to as usize]);
        if f == u32::MAX || t == u32::MAX {
            continue;
        }
        let w = window_of(events[edge.from as usize].instr_index);
        if w == window_of(events[edge.to as usize].instr_index) {
            slices[w].push_edge(f, t);
        }
    }

    WindowPlan {
        window_instructions: window,
        slices,
    }
}

/// One window's analysis: DAG build plus shaking. `None` marks an empty
/// window, which skips analysis; thresholding maps it straight to full speed
/// (which is *not* what thresholding an all-zero histogram would produce, so
/// the distinction must survive a cache round trip).
fn window_histograms(
    slice: &EventTrace,
    grid: &FrequencyGrid,
    shaker: &Shaker,
) -> Option<RegionHistograms> {
    if slice.is_empty() {
        return None;
    }
    let mut dag = DependenceDag::from_trace(slice);
    Some(shaker.shake_into_histograms(&mut dag, grid, grid.max()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::capture::capture_with;
    use mcd_sim::config::MachineConfig;
    use mcd_workloads::generator::generate_packed;
    use mcd_workloads::programs;

    fn captured() -> CapturedTrace {
        let (program, inputs) = programs::adpcm::decode();
        let trace = generate_packed(&program, &inputs.training);
        capture_with(&Simulator::new(MachineConfig::default()), trace.iter())
    }

    #[test]
    fn slicing_partitions_every_in_range_event_exactly_once() {
        let cap = captured();
        let plan = slice_windows(&cap, 10_000);
        assert_eq!(plan.len() as u64, cap.stats.instructions.div_ceil(10_000));
        let sliced: usize = plan.slices.iter().map(|s| s.len()).sum();
        let in_range = cap
            .events
            .events()
            .iter()
            .filter(|e| (e.instr_index as u64 / 10_000) < plan.len() as u64)
            .count();
        assert_eq!(sliced, in_range);
        // Events stay in recording order inside each slice.
        for slice in &plan.slices {
            let indices: Vec<u32> = slice.events().iter().map(|e| e.instr_index).collect();
            let mut sorted = indices.clone();
            sorted.sort_unstable();
            assert_eq!(indices, sorted);
        }
    }

    #[test]
    fn slicing_drops_cross_window_edges_only() {
        let cap = captured();
        let plan = slice_windows(&cap, 5_000);
        let events = cap.events.events();
        let intra = cap
            .events
            .edges()
            .iter()
            .filter(|e| {
                let wf = events[e.from as usize].instr_index as u64 / 5_000;
                let wt = events[e.to as usize].instr_index as u64 / 5_000;
                wf == wt && wf < plan.len() as u64
            })
            .count();
        let kept: usize = plan.slices.iter().map(|s| s.edges().len()).sum();
        assert_eq!(kept, intra);
    }

    #[test]
    fn degenerate_window_length_is_clamped() {
        let cap = captured();
        let plan = slice_windows(&cap, 0);
        assert_eq!(plan.window_instructions, 1);
        assert_eq!(plan.len() as u64, cap.stats.instructions);
    }
}
