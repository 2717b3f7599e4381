//! The event-driven MCD timing and energy model.
//!
//! The simulator consumes a [`TraceItem`] stream and computes, for every
//! dynamic instruction, the times at which its primitive events occur on a
//! machine configured per Table 1, honouring:
//!
//! * per-domain clock frequencies that ramp toward targets written to the
//!   reconfiguration register (the [`DvfsEngine`]),
//! * inter-domain synchronization penalties (the [`Synchronizer`]),
//! * structural resources (fetch/retire width, issue queues, ROB, functional
//!   units, cache ports),
//! * cache and branch-predictor behaviour, and
//! * Wattch-style active + idle energy accounting per domain.
//!
//! Control algorithms hook into the run through [`SimHooks`]: they may react to
//! structural markers (profile-driven reconfiguration) or to fixed intervals
//! (the on-line attack–decay controller), and may request reconfiguration
//! register writes and charge instrumentation overhead.
//!
//! A simulation *pass* feeds one trace to one or more *lanes*, each a timing
//! state under its own hooks ([`Simulator::run_lanes`]; a plain
//! [`Simulator::run`] is a pass of one lane). Some of the model depends only on
//! the trace, never on time or frequency: the cache hierarchy and the branch
//! predictor. The pass owns these trace-determined models once and advances
//! them once per instruction; every lane then executes against the same
//! outcomes. The synchronizer's clock jitter depends on even less: the k-th
//! crossing of any run uses the k-th value drawn from the machine's seed, so
//! every lane of every pass reads one process-wide, seed-determined
//! [`JitterStream`] at its own crossing count, and each value is drawn once
//! per process. A lane keeps only what time and frequency shape: the DVFS
//! engine, energy accounting, structural queues and pacers, and the
//! synchronizer's counters. The DVFS engine caches each domain's target
//! operating point (frequency, period, energy scale) when the register is
//! written, so a lane derives them afresh only while a domain ramps.

use crate::branch::BranchPredictor;
use crate::cache::{AccessOutcome, CacheHierarchy};
use crate::config::MachineConfig;
use crate::domain::{Domain, PerDomain};
use crate::events::{EventKind, EventTrace, PrimitiveEvent};
use crate::instruction::{InstrClass, Marker, TraceItem};
use crate::power::{EnergyAccount, PowerModel};
use crate::reconfig::{DvfsEngine, FrequencySetting};
use crate::recorder::{FullRecord, NoRecord, Recorder, WindowedRecord};
use crate::resources::{OccupancyQueue, StagePacer, UnitPool};
use crate::stats::{IntervalStats, SimStats};
use crate::sync::{JitterStream, Synchronizer};
use crate::time::TimeNs;

/// What a hook asks the simulator to do at a marker.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct HookAction {
    /// Write the reconfiguration register with this setting.
    pub reconfigure: Option<FrequencySetting>,
    /// Charge this many cycles of instrumentation overhead (delays the front
    /// end and consumes energy).
    pub overhead_cycles: f64,
    /// Change the analysis region tag attached to subsequently recorded events.
    pub set_region: Option<u32>,
}

impl HookAction {
    /// An action that does nothing.
    pub fn none() -> Self {
        HookAction::default()
    }

    /// An action that only changes the recording region.
    pub fn region(region: u32) -> Self {
        HookAction {
            set_region: Some(region),
            ..HookAction::default()
        }
    }
}

/// Control hooks invoked by the simulator during a run.
///
/// The default implementations do nothing, which models an uncontrolled MCD
/// processor running every domain at full speed.
pub trait SimHooks {
    /// Frequency setting applied before the first instruction, if any.
    fn initial_setting(&self) -> Option<FrequencySetting> {
        None
    }

    /// Called at every structural marker in the trace.
    fn on_marker(&mut self, _marker: &Marker, _now: TimeNs, _instr_index: u64) -> HookAction {
        HookAction::none()
    }

    /// Interval length, in nanoseconds of wall-clock time, at which
    /// [`SimHooks::on_interval`] should be invoked. `None` disables interval
    /// callbacks. (At the 1 GHz baseline, nanoseconds equal base cycles.)
    fn interval_ns(&self) -> Option<f64> {
        None
    }

    /// Called at the end of each interval with utilization statistics; may
    /// request a reconfiguration.
    fn on_interval(&mut self, _stats: &IntervalStats, _now: TimeNs) -> Option<FrequencySetting> {
        None
    }

    /// Window length, in committed instructions, at which
    /// [`SimHooks::on_instruction_window`] should be invoked. `None` disables
    /// instruction-window callbacks. Used by controllers that make decisions at
    /// fixed instruction boundaries (the off-line oracle).
    fn instruction_window(&self) -> Option<u64> {
        None
    }

    /// Called every time `instruction_window()` instructions have committed;
    /// `window_index` counts the windows from zero. May request a
    /// reconfiguration to take effect at the window boundary.
    fn on_instruction_window(
        &mut self,
        _window_index: u64,
        _now: TimeNs,
    ) -> Option<FrequencySetting> {
        None
    }
}

/// Hooks that do nothing: the baseline MCD processor at full speed.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullHooks;

impl SimHooks for NullHooks {}

/// Result of one simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimResult {
    /// Aggregate statistics of the run.
    pub stats: SimStats,
    /// Recorded primitive events, if event recording was enabled.
    pub events: Option<EventTrace>,
}

/// The MCD processor simulator.
///
/// ```
/// use mcd_sim::simulator::{Simulator, NullHooks};
/// use mcd_sim::config::MachineConfig;
/// use mcd_sim::instruction::{Instr, InstrClass, TraceItem};
/// let sim = Simulator::new(MachineConfig::default());
/// let trace: Vec<TraceItem> = (0..100)
///     .map(|i| TraceItem::Instr(Instr::op(0x1000 + i * 4, InstrClass::IntAlu)))
///     .collect();
/// let result = sim.run(trace, &mut NullHooks, false);
/// assert_eq!(result.stats.instructions, 100);
/// assert!(result.stats.run_time.as_ns() > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Simulator {
    config: MachineConfig,
    power: PowerModel,
}

/// Size of the dependence-history ring. Dependence distances larger than this
/// are treated as long since resolved.
const DEP_RING: usize = 1024;

/// Data-cache ports in the memory domain (not part of Table 1; two read/write
/// ports is the Alpha 21264 arrangement).
const DCACHE_PORTS: u32 = 2;

/// Front-end work per instruction, in front-end cycles, excluding the I-cache
/// access latency (decode + rename + dispatch).
const DECODE_CYCLES: f64 = 1.0;

/// Commit work per instruction, in front-end cycles.
const COMMIT_CYCLES: f64 = 1.0;

/// Active *energy* charged to the front end per instruction, in front-end
/// cycles of work. Fetch, decode, rename and commit are all several-cycle
/// latencies, but the machine processes `decode_width` instructions per cycle,
/// so the per-instruction occupancy (and hence energy) is roughly one cycle of
/// front-end activity plus a commit share.
const FE_ENERGY_CYCLES: f64 = 1.3;

/// Active cycles charged to the external domain per main-memory access.
const MEMORY_ACCESS_ACTIVE_CYCLES: f64 = 10.0;

/// The models a pass shares across its lanes because they depend only on the
/// trace (advanced once per instruction, before any lane executes it), and
/// the pass's view of the seed's jitter stream.
struct TraceModels {
    caches: CacheHierarchy,
    branch: BranchPredictor,
    jitter: JitterStream,
}

/// What the trace-determined models say about one instruction.
#[derive(Debug, Clone, Copy)]
struct TraceOutcome {
    icache: AccessOutcome,
    /// The data-cache outcome of a load or store.
    dcache: Option<AccessOutcome>,
    mispredicted: bool,
}

impl TraceModels {
    fn new(cfg: &MachineConfig) -> Self {
        TraceModels {
            caches: CacheHierarchy::new(cfg),
            branch: BranchPredictor::new(&cfg.branch),
            jitter: JitterStream::new(cfg.seed, cfg.jitter_sigma_ps),
        }
    }

    /// Moves the models past `instr`: the I-cache access, then the D-cache
    /// access, then the branch predictor.
    fn advance(&mut self, instr: &crate::instruction::Instr) -> TraceOutcome {
        let icache = self.caches.access_instruction(instr.pc);
        let dcache = instr
            .class
            .is_memory()
            .then(|| self.caches.access_data(instr.mem_addr.unwrap_or(instr.pc)));
        let mispredicted = instr.class == InstrClass::Branch && {
            let info = instr.branch.unwrap_or(crate::instruction::BranchInfo {
                taken: false,
                target: instr.pc + 4,
            });
            self.branch
                .predict_and_update(instr.pc, info.taken, info.target)
                .mispredicted
        };
        TraceOutcome {
            icache,
            dcache,
            mispredicted,
        }
    }
}

/// One lane's state: everything that time and frequency shape.
struct RunState {
    dvfs: DvfsEngine,
    sync: Synchronizer,
    power_acct: EnergyAccount,

    fetch_pacer: StagePacer,
    retire_pacer: StagePacer,
    int_queue: OccupancyQueue,
    fp_queue: OccupancyQueue,
    mem_queue: OccupancyQueue,
    int_alus: UnitPool,
    int_muls: UnitPool,
    fp_alus: UnitPool,
    fp_muls: UnitPool,
    mem_ports: UnitPool,

    /// Completion time and execution domain of recent instructions.
    dep_ring: Vec<(TimeNs, Domain)>,
    /// Execute-event id of recent instructions (only meaningful when recording).
    dep_event_ring: Vec<u64>,
    /// Commit times of the last `reorder_buffer` instructions.
    commit_ring: Vec<TimeNs>,
    /// Commit-event ids of the last `reorder_buffer` instructions (recording only).
    commit_event_ring: Vec<u64>,
    /// Per-pool recent execute-event ids, used to record structural-hazard
    /// edges (an instruction cannot start before the one `pool-size` issues
    /// earlier on the same units has started).
    pool_event_rings: [std::collections::VecDeque<u64>; 5],
    /// Execute-event id of the most recent mispredicted branch whose redirect
    /// is still pending (recording only).
    redirect_event: Option<u64>,
    last_commit: TimeNs,
    redirect_time: TimeNs,
    pending_overhead: TimeNs,

    instr_index: u64,
    current_region: u32,
    prev_fe_event: Option<u64>,
    prev_cm_event: Option<u64>,

    // Interval accounting.
    interval_len: Option<f64>,
    next_interval: TimeNs,
    interval_start: TimeNs,
    interval_instrs: u64,
    interval_active: PerDomain<f64>,
    interval_queue_util: PerDomain<f64>,
    interval_queue_admits: PerDomain<u64>,

    stats: SimStats,
}

/// Folds a finished lane's model-held counters, and the pass's
/// trace-determined ones, into its statistics.
fn finalize_stats(mut st: RunState, models: &TraceModels) -> SimStats {
    st.stats.run_time = st.last_commit;
    st.stats.total_energy = st.power_acct.total();
    st.stats.domain_energy = PerDomain::from_fn(|d| st.power_acct.domain_total(d).as_units());
    st.stats.domain_active_cycles = PerDomain::from_fn(|d| st.power_acct.domain_active_cycles(d));
    st.stats.sync_crossings = st.sync.crossings();
    st.stats.sync_stalls = st.sync.stalls();
    st.stats.branches = models.branch.lookups();
    st.stats.branch_mispredicts = models.branch.mispredicts();
    st.stats.l1d_accesses = models.caches.l1d().accesses();
    st.stats.l1d_misses = models.caches.l1d().misses();
    st.stats.l2_accesses = models.caches.l2().accesses();
    st.stats.l2_misses = models.caches.l2().misses();
    st.stats
}

impl Simulator {
    /// Creates a simulator for the given machine configuration, using the
    /// default power model.
    pub fn new(config: MachineConfig) -> Self {
        Simulator {
            config,
            power: PowerModel::default(),
        }
    }

    /// The machine configuration of this simulator.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Runs the given trace under `hooks`. When `record_events` is true, the
    /// result contains the full [`EventTrace`] used by off-line analysis.
    pub fn run<I, H>(&self, trace: I, hooks: &mut H, record_events: bool) -> SimResult
    where
        I: IntoIterator<Item = TraceItem>,
        H: SimHooks + ?Sized,
    {
        if record_events {
            let iter = trace.into_iter();
            // Pre-size from the iterator's hint (exact for slices and packed
            // cursors); a zero hint falls back to a modest starting size.
            let hint = iter.size_hint().0;
            let mut recorder = FullRecord {
                trace: EventTrace::for_instructions(if hint > 0 { hint } else { 4096 }),
            };
            let stats = self.run_one(iter, hooks, &mut recorder);
            SimResult {
                stats,
                events: Some(recorder.trace),
            }
        } else {
            let stats = self.run_one(trace.into_iter(), hooks, &mut NoRecord);
            SimResult {
                stats,
                events: None,
            }
        }
    }

    /// Runs the trace under `hooks` with *streaming windowed* event capture:
    /// whenever `window_instructions` instructions have committed, the
    /// recorded window (events in recording order, ids dense within the
    /// window, edges restricted to pairs inside it) is handed to `sink` along
    /// with its zero-based window index, and the buffer is reused for the
    /// next window. The final partial window is flushed at the end of the
    /// trace.
    ///
    /// The sink may `std::mem::take` the buffer to keep it (e.g. to send it
    /// to a worker thread); otherwise the same allocation serves every
    /// window, keeping peak recording memory at O(window) instead of
    /// O(trace). The streamed windows are bit-identical to slicing a full
    /// recording of the same run into `window_instructions` windows.
    ///
    /// The result's `events` field is `None`; every event was delivered
    /// through the sink.
    ///
    /// # Panics
    ///
    /// If `window_instructions` is zero.
    pub fn run_windowed<I, H, F>(
        &self,
        trace: I,
        hooks: &mut H,
        window_instructions: u64,
        sink: F,
    ) -> SimResult
    where
        I: IntoIterator<Item = TraceItem>,
        H: SimHooks + ?Sized,
        F: FnMut(u64, &mut EventTrace),
    {
        let mut recorder = WindowedRecord::new(window_instructions, sink);
        let stats = self.run_one(trace.into_iter(), hooks, &mut recorder);
        recorder.finish();
        SimResult {
            stats,
            events: None,
        }
    }

    /// Runs `trace` once while carrying one timing lane per entry of `lanes`,
    /// returning each lane's statistics in lane order.
    ///
    /// The pass owns the trace-determined models — the cache hierarchy and
    /// the branch predictor — and advances them once per instruction; then
    /// every lane, in lane order, executes the instruction against those
    /// shared outcomes under its own hooks, its k-th domain crossing reading
    /// value k of the machine seed's jitter stream. Each lane's evolution is
    /// therefore a pure function of the item stream and its own hooks —
    /// bit-identical to running the trace once per lane with
    /// [`Simulator::run`] and `record_events == false`, including the branch,
    /// L1D and L2 counters, which come from the shared models. The win is
    /// paying trace decode and cache and branch simulation once for N
    /// configurations, with one copy of the cache models instead of N. All
    /// lanes share this simulator's machine and power model: a pass
    /// varies the control policy, not the hardware. Event recording is not
    /// supported here, and an empty lane set returns without touching the
    /// trace.
    ///
    /// ```
    /// use mcd_sim::config::MachineConfig;
    /// use mcd_sim::instruction::{Instr, InstrClass, TraceItem};
    /// use mcd_sim::simulator::{NullHooks, SimHooks, Simulator};
    ///
    /// let sim = Simulator::new(MachineConfig::default());
    /// let trace: Vec<TraceItem> = (0..100)
    ///     .map(|i| TraceItem::Instr(Instr::op(0x1000 + i * 4, InstrClass::IntAlu)))
    ///     .collect();
    /// let (mut a, mut b) = (NullHooks, NullHooks);
    /// let stats = sim.run_lanes(trace, &mut [&mut a as &mut dyn SimHooks, &mut b]);
    /// assert_eq!(stats.len(), 2);
    /// assert_eq!(stats[0].instructions, 100);
    /// assert_eq!(
    ///     stats[0].run_time.as_ns().to_bits(),
    ///     stats[1].run_time.as_ns().to_bits()
    /// );
    /// ```
    pub fn run_lanes<I>(&self, trace: I, lanes: &mut [&mut dyn SimHooks]) -> Vec<SimStats>
    where
        I: IntoIterator<Item = TraceItem>,
    {
        if lanes.is_empty() {
            return Vec::new();
        }
        self.run_pass(trace.into_iter(), lanes, &mut NoRecord)
    }

    /// A pristine per-lane state for this simulator's machine configuration.
    /// `interval_len` is the controlling hooks' [`SimHooks::interval_ns`].
    fn fresh_state(&self, interval_len: Option<f64>) -> RunState {
        let cfg = &self.config;
        let sync = if cfg.synchronization_enabled {
            Synchronizer::new(cfg.sync_window_ps)
        } else {
            Synchronizer::disabled()
        };

        RunState {
            dvfs: DvfsEngine::new(cfg.grid.clone(), cfg.voltage_map.clone(), cfg.ramp),
            sync,
            power_acct: EnergyAccount::new(),
            fetch_pacer: StagePacer::new(cfg.decode_width),
            retire_pacer: StagePacer::new(cfg.retire_width),
            int_queue: OccupancyQueue::new(cfg.int_issue_queue),
            fp_queue: OccupancyQueue::new(cfg.fp_issue_queue),
            mem_queue: OccupancyQueue::new(cfg.ls_queue),
            int_alus: UnitPool::new(cfg.int_alus),
            int_muls: UnitPool::new(cfg.int_mult_units),
            fp_alus: UnitPool::new(cfg.fp_alus),
            fp_muls: UnitPool::new(cfg.fp_mult_units),
            mem_ports: UnitPool::new(DCACHE_PORTS),
            dep_ring: vec![(TimeNs::ZERO, Domain::Integer); DEP_RING],
            dep_event_ring: vec![u64::MAX; DEP_RING],
            commit_ring: vec![TimeNs::ZERO; cfg.reorder_buffer as usize],
            commit_event_ring: vec![u64::MAX; cfg.reorder_buffer as usize],
            pool_event_rings: Default::default(),
            redirect_event: None,
            last_commit: TimeNs::ZERO,
            redirect_time: TimeNs::ZERO,
            pending_overhead: TimeNs::ZERO,
            instr_index: 0,
            current_region: 0,
            prev_fe_event: None,
            prev_cm_event: None,
            interval_len,
            next_interval: TimeNs::new(interval_len.unwrap_or(f64::INFINITY)),
            interval_start: TimeNs::ZERO,
            interval_instrs: 0,
            interval_active: PerDomain::default(),
            interval_queue_util: PerDomain::default(),
            interval_queue_admits: PerDomain::default(),
            stats: SimStats::default(),
        }
    }

    /// A pass of one lane: the statistics of a plain run under `hooks`.
    fn run_one<I, H, R>(&self, trace: I, hooks: &mut H, recorder: &mut R) -> SimStats
    where
        I: Iterator<Item = TraceItem>,
        H: SimHooks + ?Sized,
        R: Recorder,
    {
        self.run_pass(trace, &mut [hooks], recorder)
            .pop()
            .expect("a one-lane pass yields one lane's statistics")
    }

    /// The one execution loop behind [`Simulator::run`],
    /// [`Simulator::run_windowed`] and [`Simulator::run_lanes`]: per
    /// instruction, advance the trace-determined models once, then execute
    /// the instruction in every lane in lane order. `recorder` records the
    /// events of a one-lane pass.
    fn run_pass<I, H, R>(&self, trace: I, lanes: &mut [&mut H], recorder: &mut R) -> Vec<SimStats>
    where
        I: Iterator<Item = TraceItem>,
        H: SimHooks + ?Sized,
        R: Recorder,
    {
        debug_assert!(
            !R::ACTIVE || lanes.len() == 1,
            "event recording needs a one-lane pass"
        );
        let mut models = TraceModels::new(&self.config);
        let mut states: Vec<RunState> = lanes
            .iter()
            .map(|hooks| {
                let mut st = self.fresh_state(hooks.interval_ns());
                if let Some(setting) = hooks.initial_setting() {
                    // The run begins with the domains already at the requested
                    // operating points (no ramp): the setting describes the
                    // state the program enters the window with, not a mid-run
                    // transition.
                    st.dvfs.set_immediate(setting);
                }
                st
            })
            .collect();

        for item in trace {
            match item {
                TraceItem::Marker(marker) => {
                    for (st, hooks) in states.iter_mut().zip(lanes.iter_mut()) {
                        st.stats.markers += 1;
                        let action = hooks.on_marker(&marker, st.last_commit, st.instr_index);
                        self.apply_action(st, action);
                    }
                }
                TraceItem::Instr(instr) => {
                    let outcome = models.advance(&instr);
                    for (st, hooks) in states.iter_mut().zip(lanes.iter_mut()) {
                        self.execute_instruction(
                            st,
                            &instr,
                            outcome,
                            &mut models.jitter,
                            &mut **hooks,
                            recorder,
                        );
                    }
                }
            }
        }

        states
            .into_iter()
            .map(|st| finalize_stats(st, &models))
            .collect()
    }

    fn apply_action(&self, st: &mut RunState, action: HookAction) {
        if let Some(region) = action.set_region {
            st.current_region = region;
        }
        if action.overhead_cycles > 0.0 {
            let now = st.last_commit;
            let fe_freq = st.dvfs.frequency(Domain::FrontEnd, now);
            let overhead_time = fe_freq.cycles_to_time(action.overhead_cycles);
            st.pending_overhead += overhead_time;
            st.stats.overhead_cycles += action.overhead_cycles;
            // The instrumentation instructions execute in the front end and the
            // integer core; charge them as active work split between the two.
            let v_fe = st.dvfs.energy_scale(Domain::FrontEnd, now);
            let v_int = st.dvfs.energy_scale(Domain::Integer, now);
            let half = action.overhead_cycles / 2.0;
            st.power_acct.charge_active(
                Domain::FrontEnd,
                self.power.active_energy(Domain::FrontEnd, half, v_fe),
                half,
            );
            st.power_acct.charge_active(
                Domain::Integer,
                self.power.active_energy(Domain::Integer, half, v_int),
                half,
            );
        }
        if let Some(setting) = action.reconfigure {
            st.dvfs.write_register(setting, st.last_commit);
            st.stats.reconfigurations += 1;
        }
    }

    #[allow(clippy::too_many_lines)]
    fn execute_instruction<H: SimHooks + ?Sized, R: Recorder>(
        &self,
        st: &mut RunState,
        instr: &crate::instruction::Instr,
        outcome: TraceOutcome,
        jitter: &mut JitterStream,
        hooks: &mut H,
        recorder: &mut R,
    ) {
        let cfg = &self.config;
        let i = st.instr_index;

        // ------------------------------------------------------------------
        // Front end: fetch, decode, rename, dispatch.
        // ------------------------------------------------------------------
        let fe = st.dvfs.operating_point(Domain::FrontEnd, st.last_commit);
        let (fe_freq, fe_period) = (fe.frequency, fe.period);

        let mut fetch_ready = st.redirect_time;
        // Pending instrumentation overhead delays the front end once, then clears.
        if !st.pending_overhead.is_zero() {
            fetch_ready = fetch_ready.max(st.last_commit) + st.pending_overhead;
            st.pending_overhead = TimeNs::ZERO;
        }
        let fetch_start = st.fetch_pacer.admit(fetch_ready, fe_period);

        // Instruction cache access.
        let icache_outcome = outcome.icache;
        let mut fetch_latency = fe_freq.cycles_to_time(cfg.l1i.latency_cycles as f64);
        let fe_active_cycles = cfg.l1i.latency_cycles as f64 + DECODE_CYCLES;
        if icache_outcome.missed_l1() {
            // The L2 lives in the memory domain: cross, access, cross back.
            let mem = st.dvfs.operating_point(Domain::Memory, fetch_start);
            let c1 = st.sync.crossing(
                Domain::FrontEnd,
                fe_period,
                Domain::Memory,
                mem.period,
                fetch_start,
                |k| jitter.get(k),
            );
            let l2_time = mem.frequency.cycles_to_time(cfg.l2.latency_cycles as f64);
            let c2 = st.sync.crossing(
                Domain::Memory,
                mem.period,
                Domain::FrontEnd,
                fe_period,
                fetch_start + l2_time,
                |k| jitter.get(k),
            );
            fetch_latency += c1.penalty + l2_time + c2.penalty;
            self.charge_active(
                st,
                Domain::Memory,
                cfg.l2.latency_cycles as f64,
                fetch_start,
            );
            if icache_outcome.missed_l2() {
                fetch_latency += TimeNs::new(cfg.memory_latency_ns);
                self.charge_active(
                    st,
                    Domain::External,
                    MEMORY_ACCESS_ACTIVE_CYCLES,
                    fetch_start,
                );
            }
        }
        let fetch_end = fetch_start + fetch_latency;

        // Decode / rename / dispatch, limited by the ROB.
        let rob_size = cfg.reorder_buffer as usize;
        let rob_constraint = if i as usize >= rob_size {
            st.commit_ring[(i as usize - rob_size) % rob_size]
        } else {
            TimeNs::ZERO
        };
        let dispatch_time = (fetch_end + fe_freq.cycles_to_time(DECODE_CYCLES)).max(rob_constraint);
        // Energy: fetch/decode/rename/commit amortized over the machine width.
        self.charge_active(st, Domain::FrontEnd, FE_ENERGY_CYCLES, fetch_start);

        // ------------------------------------------------------------------
        // Execution domain: issue queue, operand readiness, functional unit.
        // ------------------------------------------------------------------
        let exec_domain = instr.execution_domain();
        let exec = st.dvfs.operating_point(exec_domain, dispatch_time);

        // Dispatch crosses from the front end into the execution domain.
        let crossing = st.sync.crossing(
            Domain::FrontEnd,
            fe_period,
            exec_domain,
            exec.period,
            dispatch_time,
            |k| jitter.get(k),
        );
        let mut issue_ready = dispatch_time + crossing.penalty;

        // Issue-queue occupancy.
        let queue = match exec_domain {
            Domain::Integer => &mut st.int_queue,
            Domain::FloatingPoint => &mut st.fp_queue,
            _ => &mut st.mem_queue,
        };
        let occupancy_before = queue.occupancy() as f64 / queue.capacity() as f64;
        issue_ready = queue.admit(issue_ready);
        st.interval_queue_util[exec_domain] += occupancy_before;
        st.interval_queue_admits[exec_domain] += 1;

        // Operand readiness (data dependences), with cross-domain penalties.
        let mut dep_event_ids: [u64; 2] = [u64::MAX; 2];
        for (slot, dep) in [instr.dep1, instr.dep2].iter().enumerate() {
            if let Some(distance) = dep {
                let d = *distance as u64;
                if d == 0 || d > i || d as usize >= DEP_RING {
                    continue;
                }
                let producer_idx = ((i - d) as usize) % DEP_RING;
                let (prod_done, prod_domain) = st.dep_ring[producer_idx];
                let mut ready = prod_done;
                if prod_domain != exec_domain {
                    let c = st.sync.crossing(
                        prod_domain,
                        st.dvfs.operating_point(prod_domain, prod_done).period,
                        exec_domain,
                        exec.period,
                        prod_done,
                        |k| jitter.get(k),
                    );
                    ready += c.penalty;
                }
                issue_ready = issue_ready.max(ready);
                dep_event_ids[slot] = st.dep_event_ring[producer_idx];
            }
        }

        // Functional unit and execution latency.
        let base_cycles = instr.class.base_latency() as f64;
        let mut exec_cycles = base_cycles;
        let mut external_latency = TimeNs::ZERO;
        if let Some(dcache) = outcome.dcache {
            exec_cycles += cfg.l1d.latency_cycles as f64;
            match dcache {
                AccessOutcome::L1Hit => {}
                AccessOutcome::L2Hit => {
                    exec_cycles += cfg.l2.latency_cycles as f64;
                }
                AccessOutcome::MemoryAccess => {
                    exec_cycles += cfg.l2.latency_cycles as f64;
                    if instr.class == InstrClass::Load {
                        external_latency = TimeNs::new(cfg.memory_latency_ns);
                    }
                    self.charge_active(
                        st,
                        Domain::External,
                        MEMORY_ACCESS_ACTIVE_CYCLES,
                        issue_ready,
                    );
                }
            }
        }
        let exec_time = exec.frequency.cycles_to_time(exec_cycles) + external_latency;
        let pool = match instr.class {
            InstrClass::IntAlu | InstrClass::Branch => &mut st.int_alus,
            InstrClass::IntMul => &mut st.int_muls,
            InstrClass::FpAdd => &mut st.fp_alus,
            InstrClass::FpMul | InstrClass::FpDiv => &mut st.fp_muls,
            InstrClass::Load | InstrClass::Store => &mut st.mem_ports,
        };
        // Units are pipelined: they are busy for one issue slot, not the full latency.
        let issue_start = pool.acquire(issue_ready, exec.period);
        let complete = issue_start + exec_time;
        let queue = match exec_domain {
            Domain::Integer => &mut st.int_queue,
            Domain::FloatingPoint => &mut st.fp_queue,
            _ => &mut st.mem_queue,
        };
        queue.depart(issue_start);
        self.charge_active(st, exec_domain, exec_cycles, issue_start);

        // Branch resolution.
        let was_mispredicted = outcome.mispredicted;
        if was_mispredicted {
            let c = st.sync.crossing(
                exec_domain,
                exec.period,
                Domain::FrontEnd,
                fe_period,
                complete,
                |k| jitter.get(k),
            );
            st.redirect_time =
                complete + c.penalty + fe_freq.cycles_to_time(cfg.branch.mispredict_penalty as f64);
        }

        // ------------------------------------------------------------------
        // Commit (in order, in the front-end domain).
        // ------------------------------------------------------------------
        let back = st.sync.crossing(
            exec_domain,
            exec.period,
            Domain::FrontEnd,
            fe_period,
            complete,
            |k| jitter.get(k),
        );
        let commit_ready = (complete + back.penalty).max(st.last_commit);
        let commit_time = st.retire_pacer.admit(commit_ready, fe_period);

        // Idle (clock) energy for the wall-clock progress made by this instruction.
        let idle_span = commit_time.saturating_sub(st.last_commit);
        if !idle_span.is_zero() {
            for d in Domain::ALL {
                let op = st.dvfs.operating_point(d, st.last_commit);
                st.power_acct.charge_idle(
                    d,
                    self.power
                        .idle_energy(d, op.frequency, idle_span, op.energy_scale),
                );
            }
        }

        // ------------------------------------------------------------------
        // Event recording for off-line analysis.
        // ------------------------------------------------------------------
        if R::ACTIVE {
            let region = st.current_region;
            let fe_pf = self.power.power_factor(Domain::FrontEnd);
            let ex_pf = self.power.power_factor(exec_domain);
            let (fe_id, ex_id, cm_id);
            {
                let events = &mut *recorder;
                events.begin_instruction(i);
                fe_id = events.push_event(PrimitiveEvent {
                    instr_index: i as u32,
                    kind: EventKind::FrontEnd,
                    domain: Domain::FrontEnd,
                    start: fetch_start,
                    end: dispatch_time,
                    cycles: fe_active_cycles,
                    power_factor: fe_pf,
                    region,
                });
                ex_id = events.push_event(PrimitiveEvent {
                    instr_index: i as u32,
                    kind: EventKind::Execute,
                    domain: exec_domain,
                    start: issue_start,
                    end: complete,
                    cycles: exec_cycles,
                    power_factor: ex_pf,
                    region,
                });
                cm_id = events.push_event(PrimitiveEvent {
                    instr_index: i as u32,
                    kind: EventKind::Commit,
                    domain: Domain::FrontEnd,
                    start: commit_time,
                    end: commit_time + fe_period,
                    cycles: COMMIT_CYCLES,
                    power_factor: fe_pf,
                    region,
                });
                if let Some(prev) = st.prev_fe_event {
                    events.push_edge(prev, fe_id);
                }
                events.push_edge(fe_id, ex_id);
                for dep_id in dep_event_ids.iter().filter(|&&d| d != u64::MAX) {
                    events.push_edge(*dep_id, ex_id);
                }
                events.push_edge(ex_id, cm_id);
                if let Some(prev) = st.prev_cm_event {
                    events.push_edge(prev, cm_id);
                }
                // Control dependence: after a mispredicted branch, fetch cannot
                // proceed until the branch resolves.
                if let Some(branch_ex) = st.redirect_event.take() {
                    events.push_edge(branch_ex, fe_id);
                }
                // ROB occupancy: dispatch waits for the commit of the
                // instruction `reorder_buffer` slots earlier.
                let rob_size = cfg.reorder_buffer as usize;
                if i as usize >= rob_size {
                    let cid = st.commit_event_ring[(i as usize - rob_size) % rob_size];
                    if cid != u64::MAX {
                        events.push_edge(cid, fe_id);
                    }
                }
                // Structural hazard: the functional-unit pool serving this
                // instruction admits at most `pool-size` concurrent issues.
                let (pool_idx, pool_size) = match instr.class {
                    InstrClass::IntAlu | InstrClass::Branch => (0usize, cfg.int_alus as usize),
                    InstrClass::IntMul => (1, cfg.int_mult_units as usize),
                    InstrClass::FpAdd => (2, cfg.fp_alus as usize),
                    InstrClass::FpMul | InstrClass::FpDiv => (3, cfg.fp_mult_units as usize),
                    InstrClass::Load | InstrClass::Store => (4, DCACHE_PORTS as usize),
                };
                let ring = &mut st.pool_event_rings[pool_idx];
                if ring.len() >= pool_size {
                    if let Some(front) = ring.pop_front() {
                        events.push_edge(front, ex_id);
                    }
                }
                ring.push_back(ex_id);
                if was_mispredicted {
                    st.redirect_event = Some(ex_id);
                }
                st.commit_event_ring[(i as usize) % rob_size] = cm_id;
            }
            st.prev_fe_event = Some(fe_id);
            st.prev_cm_event = Some(cm_id);
            st.dep_event_ring[(i as usize) % DEP_RING] = ex_id;
        }

        // ------------------------------------------------------------------
        // Bookkeeping.
        // ------------------------------------------------------------------
        st.dep_ring[(i as usize) % DEP_RING] = (complete, exec_domain);
        st.commit_ring[(i as usize) % cfg.reorder_buffer as usize] = commit_time;
        st.last_commit = commit_time;
        st.stats.instructions += 1;
        st.interval_instrs += 1;
        st.interval_active[exec_domain] += exec_cycles;
        st.interval_active[Domain::FrontEnd] += fe_active_cycles + COMMIT_CYCLES;
        st.instr_index += 1;

        // Instruction-window callback (used by the off-line oracle).
        if let Some(window) = hooks.instruction_window() {
            if window > 0 && st.instr_index.is_multiple_of(window) {
                let idx = st.instr_index / window;
                if let Some(setting) = hooks.on_instruction_window(idx, st.last_commit) {
                    st.dvfs.write_register(setting, st.last_commit);
                    st.stats.reconfigurations += 1;
                }
            }
        }

        // Interval callback.
        if let Some(interval) = st.interval_len {
            while st.last_commit >= st.next_interval {
                let elapsed = st.next_interval.saturating_sub(st.interval_start);
                let mut queue_util = PerDomain::default();
                for d in [Domain::Integer, Domain::FloatingPoint, Domain::Memory] {
                    let n = st.interval_queue_admits[d];
                    queue_util[d] = if n == 0 {
                        0.0
                    } else {
                        st.interval_queue_util[d] / n as f64
                    };
                }
                let interval_stats = IntervalStats {
                    elapsed,
                    instructions: st.interval_instrs,
                    active_cycles: st.interval_active,
                    queue_utilization: queue_util,
                    queue_admissions: st.interval_queue_admits,
                };
                if let Some(setting) = hooks.on_interval(&interval_stats, st.next_interval) {
                    st.dvfs.write_register(setting, st.next_interval);
                    st.stats.reconfigurations += 1;
                }
                st.interval_start = st.next_interval;
                st.next_interval += TimeNs::new(interval);
                st.interval_instrs = 0;
                st.interval_active = PerDomain::default();
                st.interval_queue_util = PerDomain::default();
                st.interval_queue_admits = PerDomain::default();
            }
        }
    }

    fn charge_active(&self, st: &mut RunState, domain: Domain, cycles: f64, at: TimeNs) {
        let scale = st.dvfs.energy_scale(domain, at);
        st.power_acct.charge_active(
            domain,
            self.power.active_energy(domain, cycles, scale),
            cycles,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instruction::{Instr, Marker};

    fn int_trace(n: usize) -> Vec<TraceItem> {
        (0..n)
            .map(|i| {
                TraceItem::Instr(
                    Instr::op(0x1000 + (i as u64 % 64) * 4, InstrClass::IntAlu).with_dep1(1),
                )
            })
            .collect()
    }

    fn mixed_trace(n: usize) -> Vec<TraceItem> {
        (0..n)
            .map(|i| {
                let pc = 0x4000 + (i as u64 % 256) * 4;
                let item = match i % 5 {
                    0 => Instr::op(pc, InstrClass::IntAlu).with_dep1(2),
                    1 => Instr::op(pc, InstrClass::FpMul).with_dep1(1),
                    2 => Instr::load(pc, 0x10_0000 + (i as u64 * 64) % 8192),
                    3 => Instr::op(pc, InstrClass::IntAlu),
                    _ => Instr::branch(pc, i % 10 == 0, pc + 64),
                };
                TraceItem::Instr(item)
            })
            .collect()
    }

    #[test]
    fn empty_trace_is_fine() {
        let sim = Simulator::new(MachineConfig::default());
        let res = sim.run(Vec::new(), &mut NullHooks, false);
        assert_eq!(res.stats.instructions, 0);
        assert_eq!(res.stats.run_time, TimeNs::ZERO);
    }

    #[test]
    fn run_time_and_energy_grow_with_instruction_count() {
        let sim = Simulator::new(MachineConfig::default());
        let short = sim.run(int_trace(500), &mut NullHooks, false);
        let long = sim.run(int_trace(5000), &mut NullHooks, false);
        assert!(long.stats.run_time > short.stats.run_time);
        assert!(long.stats.total_energy.as_units() > short.stats.total_energy.as_units());
        assert_eq!(long.stats.instructions, 5000);
    }

    #[test]
    fn deterministic_given_same_seed() {
        let sim = Simulator::new(MachineConfig::default());
        let a = sim.run(mixed_trace(2000), &mut NullHooks, false);
        let b = sim.run(mixed_trace(2000), &mut NullHooks, false);
        assert_eq!(a.stats.run_time, b.stats.run_time);
        assert_eq!(
            a.stats.total_energy.as_units(),
            b.stats.total_energy.as_units()
        );
        assert_eq!(a.stats.sync_stalls, b.stats.sync_stalls);
    }

    #[test]
    fn slowing_fp_domain_barely_hurts_integer_code() {
        let cfg = MachineConfig::default();
        let sim = Simulator::new(cfg.clone());
        let base = sim.run(int_trace(4000), &mut NullHooks, false);

        struct SlowFp;
        impl SimHooks for SlowFp {
            fn initial_setting(&self) -> Option<FrequencySetting> {
                Some(
                    FrequencySetting::full_speed()
                        .with(Domain::FloatingPoint, crate::time::MegaHertz::new(250.0)),
                )
            }
        }
        let slowed = sim.run(int_trace(4000), &mut SlowFp, false);
        let degradation = (slowed.stats.run_time.as_ns() - base.stats.run_time.as_ns())
            / base.stats.run_time.as_ns();
        assert!(
            degradation < 0.02,
            "integer code should be insensitive to the FP domain, got {degradation}"
        );
        assert!(
            slowed.stats.total_energy.as_units() < base.stats.total_energy.as_units(),
            "lower FP voltage must save energy"
        );
    }

    #[test]
    fn slowing_the_critical_domain_hurts() {
        let sim = Simulator::new(MachineConfig::default());
        let base = sim.run(int_trace(4000), &mut NullHooks, false);

        struct SlowInt;
        impl SimHooks for SlowInt {
            fn initial_setting(&self) -> Option<FrequencySetting> {
                Some(
                    FrequencySetting::full_speed()
                        .with(Domain::Integer, crate::time::MegaHertz::new(250.0)),
                )
            }
        }
        let slowed = sim.run(int_trace(4000), &mut SlowInt, false);
        let degradation = (slowed.stats.run_time.as_ns() - base.stats.run_time.as_ns())
            / base.stats.run_time.as_ns();
        assert!(
            degradation > 0.5,
            "dependent integer code at 250 MHz should run much slower, got {degradation}"
        );
    }

    #[test]
    fn synchronization_penalty_is_small_but_positive() {
        let n = 6000;
        let mcd = Simulator::new(MachineConfig::default());
        let gs = Simulator::new(
            MachineConfig::default()
                .to_builder()
                .synchronization(false)
                .build()
                .expect("default config with sync disabled is valid"),
        );
        let mcd_run = mcd.run(mixed_trace(n), &mut NullHooks, false);
        let gs_run = gs.run(mixed_trace(n), &mut NullHooks, false);
        assert!(mcd_run.stats.sync_stalls > 0);
        assert_eq!(gs_run.stats.sync_stalls, 0);
        let penalty = (mcd_run.stats.run_time.as_ns() - gs_run.stats.run_time.as_ns())
            / gs_run.stats.run_time.as_ns();
        assert!(penalty > 0.0, "MCD must be slower than fully synchronous");
        assert!(
            penalty < 0.15,
            "MCD penalty should be modest, got {penalty}"
        );
    }

    #[test]
    fn event_recording_produces_events_and_edges() {
        let sim = Simulator::new(MachineConfig::default());
        let res = sim.run(mixed_trace(300), &mut NullHooks, true);
        let events = res.events.expect("events were requested");
        assert_eq!(events.len(), 300 * 3);
        assert!(!events.edges().is_empty());
        // All edges point forward.
        for e in events.edges() {
            assert!(e.from < e.to);
        }
    }

    #[test]
    fn windowed_capture_matches_sliced_full_recording() {
        let sim = Simulator::new(MachineConfig::default());
        let n = 2500;
        let window = 400u64;
        let full = sim
            .run(mixed_trace(n), &mut NullHooks, true)
            .events
            .expect("full recording");

        let mut windows: Vec<EventTrace> = Vec::new();
        let windowed = sim.run_windowed(mixed_trace(n), &mut NullHooks, window, |idx, buf| {
            assert_eq!(idx as usize, windows.len(), "windows arrive in order");
            windows.push(std::mem::take(buf));
        });
        assert!(windowed.events.is_none());
        assert_eq!(windows.len() as u64, (n as u64).div_ceil(window));

        // Reference: slice the full recording by instruction window.
        let window_of = |instr: u32| instr as u64 / window;
        let mut expected = vec![EventTrace::new(); windows.len()];
        let mut id_map = vec![u32::MAX; full.len()];
        for (id, ev) in full.events().iter().enumerate() {
            let w = window_of(ev.instr_index) as usize;
            id_map[id] = expected[w].push_event(*ev);
        }
        for edge in full.edges() {
            let (wf, wt) = (
                window_of(full.events()[edge.from as usize].instr_index),
                window_of(full.events()[edge.to as usize].instr_index),
            );
            if wf == wt {
                expected[wf as usize]
                    .push_edge(id_map[edge.from as usize], id_map[edge.to as usize]);
            }
        }
        for (i, (got, want)) in windows.iter().zip(&expected).enumerate() {
            assert_eq!(got.events(), want.events(), "window {i} events diverged");
            assert_eq!(got.edges(), want.edges(), "window {i} edges diverged");
        }
    }

    #[test]
    fn windowed_capture_stats_match_full_run() {
        let sim = Simulator::new(MachineConfig::default());
        let plain = sim.run(mixed_trace(1500), &mut NullHooks, false);
        let windowed = sim.run_windowed(mixed_trace(1500), &mut NullHooks, 250, |_, _| {});
        assert_eq!(
            plain.stats.run_time.as_ns().to_bits(),
            windowed.stats.run_time.as_ns().to_bits()
        );
        assert_eq!(
            plain.stats.total_energy.as_units().to_bits(),
            windowed.stats.total_energy.as_units().to_bits()
        );
    }

    #[test]
    fn marker_hooks_can_reconfigure_and_charge_overhead() {
        use crate::instruction::{LoopId, Marker};
        struct ReconfigureOnMarker {
            fired: bool,
        }
        impl SimHooks for ReconfigureOnMarker {
            fn on_marker(&mut self, _m: &Marker, _now: TimeNs, _i: u64) -> HookAction {
                self.fired = true;
                HookAction {
                    reconfigure: Some(FrequencySetting::uniform(crate::time::MegaHertz::new(
                        500.0,
                    ))),
                    overhead_cycles: 17.0,
                    set_region: Some(3),
                }
            }
        }
        let mut trace = int_trace(100);
        trace.insert(
            50,
            TraceItem::Marker(Marker::LoopEnter { loop_id: LoopId(1) }),
        );
        let sim = Simulator::new(MachineConfig::default());
        let mut hooks = ReconfigureOnMarker { fired: false };
        let res = sim.run(trace, &mut hooks, true);
        assert!(hooks.fired);
        assert_eq!(res.stats.reconfigurations, 1);
        assert_eq!(res.stats.markers, 1);
        assert!(res.stats.overhead_cycles >= 17.0);
        let events = res.events.unwrap();
        assert!(events.regions().contains(&3));
    }

    #[test]
    fn interval_hook_called_repeatedly() {
        struct CountIntervals {
            calls: u64,
        }
        impl SimHooks for CountIntervals {
            fn interval_ns(&self) -> Option<f64> {
                Some(200.0)
            }
            fn on_interval(
                &mut self,
                stats: &IntervalStats,
                _now: TimeNs,
            ) -> Option<FrequencySetting> {
                assert!(stats.elapsed.as_ns() > 0.0);
                self.calls += 1;
                None
            }
        }
        let sim = Simulator::new(MachineConfig::default());
        let mut hooks = CountIntervals { calls: 0 };
        let res = sim.run(mixed_trace(5000), &mut hooks, false);
        assert!(
            hooks.calls > 2,
            "expected several intervals, got {}",
            hooks.calls
        );
        assert!(res.stats.run_time.as_ns() > 400.0);
    }

    #[test]
    fn memory_bound_code_uses_external_domain_energy() {
        // Loads with a huge working set will miss in L2 and touch main memory.
        let trace: Vec<TraceItem> = (0..3000)
            .map(|i| TraceItem::Instr(Instr::load(0x100 + (i % 16) * 4, i * 4096)))
            .collect();
        let sim = Simulator::new(MachineConfig::default());
        let res = sim.run(trace, &mut NullHooks, false);
        assert!(res.stats.l2_misses > 0);
        assert!(res.stats.domain_energy[Domain::External] > 0.0);
    }

    /// A trace with a loop around a mix of instruction classes.
    fn looped_trace() -> Vec<TraceItem> {
        use crate::instruction::{LoopId, Marker};
        let mut items = vec![TraceItem::Marker(Marker::LoopEnter { loop_id: LoopId(1) })];
        for i in 0..400u64 {
            let class = match i % 4 {
                0 => InstrClass::IntAlu,
                1 => InstrClass::FpAdd,
                2 => InstrClass::Load,
                _ => InstrClass::IntMul,
            };
            items.push(TraceItem::Instr(
                Instr::op(0x1000 + i * 4, class).with_dep1(3),
            ));
        }
        items.push(TraceItem::Marker(Marker::LoopExit { loop_id: LoopId(1) }));
        items
    }

    /// A hook that pins every scalable domain to one frequency from the start.
    #[derive(Debug)]
    struct Pinned(FrequencySetting);

    impl SimHooks for Pinned {
        fn initial_setting(&self) -> Option<FrequencySetting> {
            Some(self.0)
        }
    }

    #[test]
    fn lanes_match_independent_serial_runs_bit_for_bit() {
        use crate::time::MegaHertz;
        let machine = MachineConfig::default();
        let sim = Simulator::new(machine.clone());
        let trace = looped_trace();
        let settings: Vec<FrequencySetting> = [1000.0, 750.0, 500.0]
            .iter()
            .map(|f| FrequencySetting::uniform(MegaHertz::new(*f)).quantized(&machine.grid))
            .collect();

        let single: Vec<SimStats> = settings
            .iter()
            .map(|s| sim.run(trace.iter().copied(), &mut Pinned(*s), false).stats)
            .collect();

        let mut hooks: Vec<Pinned> = settings.iter().map(|s| Pinned(*s)).collect();
        let mut lanes: Vec<&mut dyn SimHooks> =
            hooks.iter_mut().map(|h| h as &mut dyn SimHooks).collect();
        let fused = sim.run_lanes(trace.iter().copied(), &mut lanes);

        assert_eq!(fused.len(), single.len());
        for (f, s) in fused.iter().zip(&single) {
            assert_eq!(f.instructions, s.instructions);
            assert_eq!(f.run_time.as_ns().to_bits(), s.run_time.as_ns().to_bits());
            assert_eq!(
                f.total_energy.as_units().to_bits(),
                s.total_energy.as_units().to_bits()
            );
            assert_eq!(f.sync_crossings, s.sync_crossings);
            assert_eq!(f.sync_stalls, s.sync_stalls);
        }
    }

    /// Asserts that two runs' statistics agree bit for bit in every field.
    fn assert_stats_identical(got: &SimStats, want: &SimStats, lane: usize) {
        // Destructuring names every field, so a new one cannot be skipped.
        let SimStats {
            instructions,
            run_time,
            total_energy,
            domain_energy,
            domain_active_cycles,
            sync_crossings,
            sync_stalls,
            branches,
            branch_mispredicts,
            l1d_accesses,
            l1d_misses,
            l2_accesses,
            l2_misses,
            reconfigurations,
            overhead_cycles,
            markers,
        } = want;
        let counters = [
            (got.instructions, *instructions, "instructions"),
            (got.sync_crossings, *sync_crossings, "sync_crossings"),
            (got.sync_stalls, *sync_stalls, "sync_stalls"),
            (got.branches, *branches, "branches"),
            (
                got.branch_mispredicts,
                *branch_mispredicts,
                "branch_mispredicts",
            ),
            (got.l1d_accesses, *l1d_accesses, "l1d_accesses"),
            (got.l1d_misses, *l1d_misses, "l1d_misses"),
            (got.l2_accesses, *l2_accesses, "l2_accesses"),
            (got.l2_misses, *l2_misses, "l2_misses"),
            (got.reconfigurations, *reconfigurations, "reconfigurations"),
            (got.markers, *markers, "markers"),
        ];
        for (g, w, name) in counters {
            assert_eq!(g, w, "lane {lane}: {name}");
        }
        let mut reals = vec![
            (got.run_time.as_ns(), run_time.as_ns(), "run_time"),
            (
                got.total_energy.as_units(),
                total_energy.as_units(),
                "total_energy",
            ),
            (got.overhead_cycles, *overhead_cycles, "overhead_cycles"),
        ];
        for d in Domain::ALL {
            reals.push((got.domain_energy[d], domain_energy[d], "domain_energy"));
            reals.push((
                got.domain_active_cycles[d],
                domain_active_cycles[d],
                "domain_active_cycles",
            ));
        }
        for (g, w, name) in reals {
            assert_eq!(g.to_bits(), w.to_bits(), "lane {lane}: {name}");
        }
    }

    /// A trace that exercises every trace-determined model: markers, branches
    /// with an irregular direction (so some mispredict), loads and stores
    /// over a footprint larger than the L2, and cross-domain dependences.
    fn divergence_trace() -> Vec<TraceItem> {
        use crate::instruction::{LoopId, Marker};
        let mut items = Vec::new();
        for i in 0..6000u64 {
            if i % 400 == 0 {
                items.push(TraceItem::Marker(Marker::LoopEnter { loop_id: LoopId(1) }));
            }
            let pc = 0x4000 + (i % 300) * 4;
            let addr = (0x10_0000 + i.wrapping_mul(0x9E37_79B9) % (4 << 20)) & !7;
            let instr = match i % 7 {
                0 => Instr::op(pc, InstrClass::IntAlu).with_dep1(2),
                1 => Instr::op(pc, InstrClass::FpMul).with_dep1(1).with_dep2(3),
                2 => Instr::load(pc, addr).with_dep1(2),
                3 => Instr::op(pc, InstrClass::FpAdd).with_dep1(1),
                4 => Instr::store(pc, addr ^ 0x40),
                5 => Instr::op(pc, InstrClass::IntMul).with_dep1(4),
                _ => Instr::branch(pc, (i.wrapping_mul(0x2545_F491) >> 9) & 1 == 1, pc + 64),
            };
            items.push(TraceItem::Instr(instr));
        }
        items
    }

    /// An interval controller that alternates between two settings.
    struct Alternating {
        settings: [FrequencySetting; 2],
        calls: usize,
    }

    impl SimHooks for Alternating {
        fn interval_ns(&self) -> Option<f64> {
            Some(700.0)
        }
        fn on_interval(
            &mut self,
            _stats: &IntervalStats,
            _now: TimeNs,
        ) -> Option<FrequencySetting> {
            self.calls += 1;
            Some(self.settings[self.calls % 2])
        }
    }

    /// A marker hook that charges overhead at every marker and reconfigures
    /// at every other one.
    struct ChargingMarkers {
        setting: FrequencySetting,
        seen: u64,
    }

    impl SimHooks for ChargingMarkers {
        fn on_marker(&mut self, _m: &Marker, _now: TimeNs, _i: u64) -> HookAction {
            self.seen += 1;
            HookAction {
                reconfigure: self.seen.is_multiple_of(2).then_some(self.setting),
                overhead_cycles: 25.0,
                set_region: None,
            }
        }
    }

    #[test]
    fn lanes_with_diverging_timing_match_serial_runs_bit_for_bit() {
        use crate::time::MegaHertz;
        let machine = MachineConfig::default();
        let sim = Simulator::new(machine.clone());
        let trace = divergence_trace();
        let at = |mhz: f64| FrequencySetting::uniform(MegaHertz::new(mhz)).quantized(&machine.grid);
        let memory_slow = FrequencySetting::full_speed()
            .with(Domain::Memory, MegaHertz::new(400.0))
            .quantized(&machine.grid);
        let make_lanes = || -> Vec<Box<dyn SimHooks>> {
            vec![
                Box::new(Pinned(at(900.0))),
                Box::new(Pinned(memory_slow)),
                Box::new(Alternating {
                    settings: [at(600.0), at(1000.0)],
                    calls: 0,
                }),
                Box::new(ChargingMarkers {
                    setting: at(700.0),
                    seen: 0,
                }),
            ]
        };

        let serial: Vec<SimStats> = make_lanes()
            .iter_mut()
            .map(|hooks| sim.run(trace.iter().copied(), &mut **hooks, false).stats)
            .collect();
        let mut hooks = make_lanes();
        let mut lanes: Vec<&mut dyn SimHooks> = hooks
            .iter_mut()
            .map(|h| h.as_mut() as &mut dyn SimHooks)
            .collect();
        let fused = sim.run_lanes(trace.iter().copied(), &mut lanes);

        // The lanes' timing really diverged, and the trace really exercised
        // the shared models.
        let times: Vec<u64> = serial
            .iter()
            .map(|s| s.run_time.as_ns().to_bits())
            .collect();
        for (i, t) in times.iter().enumerate() {
            assert!(
                !times[..i].contains(t),
                "lane {i} repeats an earlier run time"
            );
        }
        assert!(serial.iter().all(|s| s.sync_stalls > 0));
        assert!(serial[2].reconfigurations > 0 && serial[3].reconfigurations > 0);
        assert!(serial[0].branch_mispredicts > 0 && serial[0].l2_misses > 0);
        assert_eq!(serial[3].overhead_cycles, 25.0 * serial[3].markers as f64);

        assert_eq!(fused.len(), serial.len());
        for (lane, (f, s)) in fused.iter().zip(&serial).enumerate() {
            assert_stats_identical(f, s, lane);
        }
    }

    /// A machine whose jitter stream no other test draws.
    fn fresh_seed_machine(seed: u64) -> MachineConfig {
        MachineConfig::default()
            .to_builder()
            .seed(seed)
            .build()
            .expect("the default machine with another seed is valid")
    }

    /// Asserts that the published jitter stream of `machine` covers
    /// `crossings` crossings, ends within one chunk of them, and equals a
    /// fresh draw from the machine's seed.
    fn assert_stream_is_fresh_draws(machine: &MachineConfig, crossings: u64) {
        let published = crate::sync::published_jitter(machine.seed, machine.jitter_sigma_ps);
        let len = published.len() as u64;
        assert!(
            len >= crossings && len < crossings + crate::sync::CHUNK_LEN as u64,
            "{len} values published for {crossings} crossings"
        );
        let mut rng = crate::sync::JitterRng::new(machine.seed);
        for (k, value) in published.iter().enumerate() {
            let want = rng.next_crossing_jitter(machine.jitter_sigma_ps);
            assert_eq!(value.to_bits(), want.to_bits(), "crossing {k}");
        }
    }

    #[test]
    fn jitter_stream_grows_to_the_longest_run_without_changing_a_bit() {
        let machine = fresh_seed_machine(0x5EED_0022);
        let sim = Simulator::new(machine.clone());
        let long = divergence_trace();
        let short = &long[..1500];
        let run = |trace: &[TraceItem]| {
            let mut hooks = ChargingMarkers {
                setting: FrequencySetting::uniform(crate::time::MegaHertz::new(700.0)),
                seen: 0,
            };
            sim.run(trace.iter().copied(), &mut hooks, false).stats
        };
        // Short first, so the long run extends a published prefix; then each
        // length again, reading only what is published.
        let runs = [run(short), run(&long), run(short), run(&long)];
        assert!(runs[0].sync_crossings < runs[1].sync_crossings);
        assert!(
            runs[1].sync_crossings > 2 * crate::sync::CHUNK_LEN as u64,
            "the long run must span several chunks"
        );
        assert_stats_identical(&runs[2], &runs[0], 0);
        assert_stats_identical(&runs[3], &runs[1], 1);
        assert_stream_is_fresh_draws(&machine, runs[1].sync_crossings);
    }

    #[test]
    fn concurrent_passes_extend_the_jitter_stream_like_serial_runs() {
        use std::sync::Barrier;
        let machine = fresh_seed_machine(0x5EED_0023);
        let sim = Simulator::new(machine.clone());
        let long = divergence_trace();
        let lengths = [700, long.len(), 3000];
        let pass = |len: usize| {
            let mut hooks = [
                Pinned(FrequencySetting::full_speed()),
                Pinned(
                    FrequencySetting::uniform(crate::time::MegaHertz::new(600.0))
                        .quantized(&machine.grid),
                ),
            ];
            let mut lanes: Vec<&mut dyn SimHooks> =
                hooks.iter_mut().map(|h| h as &mut dyn SimHooks).collect();
            sim.run_lanes(long[..len].iter().copied(), &mut lanes)
        };
        // Two threads start passes of different lengths on the fresh seed at
        // once, so both race to extend its stream.
        let barrier = Barrier::new(2);
        let (first, second) = std::thread::scope(|scope| {
            let threads = [[0, 1, 2], [1, 2, 0]].map(|order| {
                let (pass, barrier) = (&pass, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    order.map(|i| (i, pass(lengths[i])))
                })
            });
            threads
                .map(|t| t.join().expect("pass thread panicked"))
                .into()
        });
        for (i, stats) in first.into_iter().chain(second) {
            let serial = pass(lengths[i]);
            for (lane, (got, want)) in stats.iter().zip(&serial).enumerate() {
                assert_stats_identical(got, want, lane);
            }
        }
        assert_stream_is_fresh_draws(&machine, pass(long.len())[0].sync_crossings);
    }

    #[test]
    fn empty_lane_set_is_a_no_op() {
        let sim = Simulator::new(MachineConfig::default());
        assert!(sim.run_lanes(looped_trace(), &mut []).is_empty());
    }

    #[test]
    fn single_lane_matches_the_plain_simulator() {
        let sim = Simulator::new(MachineConfig::default());
        let trace = looped_trace();
        let solo = sim.run(trace.iter().copied(), &mut NullHooks, false).stats;
        let lane = sim.run_lanes(trace.iter().copied(), &mut [&mut NullHooks]);
        assert_eq!(lane.len(), 1);
        assert_eq!(
            lane[0].run_time.as_ns().to_bits(),
            solo.run_time.as_ns().to_bits()
        );
        assert_eq!(
            lane[0].total_energy.as_units().to_bits(),
            solo.total_energy.as_units().to_bits()
        );
    }
}
