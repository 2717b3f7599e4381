//! Recording backends for the simulator's primitive-event capture.
//!
//! The simulator's execution loop is generic over a [`Recorder`], so the
//! non-recording path compiles to nothing, the classic whole-run capture
//! ([`FullRecord`]) keeps its historical behaviour bit-for-bit, and
//! [`WindowedRecord`] streams completed fixed-instruction windows to a sink as
//! they close — peak memory is one window, not the whole run.
//!
//! Event ids are *global* (monotone across the whole run) in every backend.
//! `FullRecord` stores them as-is; `WindowedRecord` rebases them to the
//! current window and silently drops edges whose producer lives in an
//! already-closed window — exactly the cross-window edges the offline
//! analysis discards when it slices a whole-run trace, so the streamed
//! windows are identical to slices of a full recording.

use crate::events::{EventTrace, PrimitiveEvent};

/// Where recorded events and dependence edges go during a run.
///
/// Global ids are `u64` so the windowed backend never wraps, no matter how
/// long the streamed run is; per-window (rebased) ids stay within `u32`
/// because a single window's events are bounded by what fits in memory.
pub trait Recorder {
    /// Whether the simulator should record at all; `false` compiles the
    /// recording block out of the execution loop.
    const ACTIVE: bool;

    /// Called once per committed instruction, before its events are pushed.
    fn begin_instruction(&mut self, instr_index: u64);

    /// Records one event, returning its global id.
    fn push_event(&mut self, event: PrimitiveEvent) -> u64;

    /// Records a dependence edge between two global event ids
    /// (`from < to`). Backends may drop edges that leave their retention
    /// window.
    fn push_edge(&mut self, from: u64, to: u64);
}

/// The non-recording backend.
#[derive(Debug)]
pub struct NoRecord;

impl Recorder for NoRecord {
    const ACTIVE: bool = false;

    #[inline]
    fn begin_instruction(&mut self, _instr_index: u64) {}

    #[inline]
    fn push_event(&mut self, _event: PrimitiveEvent) -> u64 {
        u64::MAX
    }

    #[inline]
    fn push_edge(&mut self, _from: u64, _to: u64) {}
}

/// Whole-run capture: every event and edge lands in one [`EventTrace`].
#[derive(Debug)]
pub struct FullRecord {
    /// The accumulated trace.
    pub trace: EventTrace,
}

impl Recorder for FullRecord {
    const ACTIVE: bool = true;

    #[inline]
    fn begin_instruction(&mut self, _instr_index: u64) {}

    #[inline]
    fn push_event(&mut self, event: PrimitiveEvent) -> u64 {
        // A whole-run trace holds its events in memory, so ids fit u32 long
        // before any physical machine runs out of id space.
        self.trace.push_event(event) as u64
    }

    #[inline]
    fn push_edge(&mut self, from: u64, to: u64) {
        self.trace.push_edge(from as u32, to as u32);
    }
}

/// Streaming windowed capture: events accumulate in a single reused buffer;
/// when the run crosses a window boundary the buffer is handed to the sink
/// and recycled (the sink may `mem::take` it instead, e.g. to send it across
/// a channel — the recorder re-provisions either way).
pub struct WindowedRecord<F: FnMut(u64, &mut EventTrace)> {
    window: u64,
    sink: F,
    buf: EventTrace,
    /// Global id of the first event of the current window.
    base_id: u64,
    /// Next global event id.
    next_id: u64,
    window_index: u64,
    /// Instruction index at which the current window ends.
    boundary: u64,
}

impl<F: FnMut(u64, &mut EventTrace)> std::fmt::Debug for WindowedRecord<F> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WindowedRecord")
            .field("window", &self.window)
            .field("window_index", &self.window_index)
            .field("buffered_events", &self.buf.len())
            .finish()
    }
}

impl<F: FnMut(u64, &mut EventTrace)> WindowedRecord<F> {
    /// Creates a windowed recorder with `window` instructions per window.
    ///
    /// # Panics
    ///
    /// If `window` is zero.
    pub fn new(window: u64, sink: F) -> Self {
        assert!(
            window > 0,
            "WindowedRecord: the window length must be at least one instruction"
        );
        WindowedRecord {
            window,
            sink,
            buf: EventTrace::for_instructions(window.min(1 << 22) as usize),
            base_id: 0,
            next_id: 0,
            window_index: 0,
            boundary: window,
        }
    }

    fn flush(&mut self) {
        (self.sink)(self.window_index, &mut self.buf);
        self.buf.clear();
        self.buf
            .reserve_for_instructions(self.window.min(1 << 22) as usize);
        self.base_id = self.next_id;
        self.window_index += 1;
        self.boundary += self.window;
    }

    /// Emits the final (possibly partial) window, if any events remain.
    pub fn finish(mut self) {
        if !self.buf.is_empty() {
            (self.sink)(self.window_index, &mut self.buf);
        }
    }
}

impl<F: FnMut(u64, &mut EventTrace)> Recorder for WindowedRecord<F> {
    const ACTIVE: bool = true;

    #[inline]
    fn begin_instruction(&mut self, instr_index: u64) {
        while instr_index >= self.boundary {
            self.flush();
        }
    }

    #[inline]
    fn push_event(&mut self, event: PrimitiveEvent) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.buf.push_event(event);
        id
    }

    #[inline]
    fn push_edge(&mut self, from: u64, to: u64) {
        // Producers in closed windows are exactly the cross-window edges the
        // offline slicer drops. The rebased ids fit u32: a window's events
        // are resident in memory, far below u32::MAX of them.
        if from >= self.base_id {
            self.buf
                .push_edge((from - self.base_id) as u32, (to - self.base_id) as u32);
        }
    }
}
