//! Application editing (phase four): deciding where to place instrumentation
//! and reconfiguration code, and emulating that code at run time.
//!
//! An [`InstrumentationPlan`] is built from the training-run call tree and its
//! long-running set under a chosen [`ContextPolicy`]. It answers the static
//! questions (how many reconfiguration and instrumentation points are placed in
//! the binary, how large the lookup tables are — Table 4 and Figure 12) and
//! hands out [`NodeKey`]s, the identities under which the slowdown-thresholding
//! phase stores per-node frequency settings.
//!
//! A [`RuntimeTracker`] emulates the inserted code during a (training or
//! production) run: it follows the markers of the trace, charges the
//! per-point overhead, and reports when a reconfiguration point is entered or
//! exited so that the controller can write the frequency register.

use crate::call_tree::{CallTree, NodeId, NodeKind};
use crate::candidates::LongRunningSet;
use crate::context::ContextPolicy;
use crate::overhead::{
    LOOP_LABEL_CYCLES, PATH_INSTRUMENTATION_CYCLES, RECONFIG_POINT_CYCLES, SIMPLE_RECONFIG_CYCLES,
};
use mcd_sim::instruction::{LoopId, Marker, SubroutineId};
use std::collections::HashSet;

/// Identity of an entry in the frequency table produced by the off-line
/// analysis.
///
/// Path-tracking policies key the table by call-tree node; the simpler L+F and
/// F policies key it by static structure (all instances of the structure share
/// one setting, "the average frequency of all instances" in the paper's words).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeKey {
    /// A call-tree node (path-tracking policies).
    TreeNode(NodeId),
    /// A static subroutine (L+F and F policies).
    Subroutine(SubroutineId),
    /// A static loop (L+F policy).
    Loop(LoopId),
}

/// Notification that a reconfiguration point was crossed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReconfigEvent {
    /// Execution entered the long-running region identified by the key.
    Enter(NodeKey),
    /// Execution left the long-running region identified by the key.
    Exit(NodeKey),
}

/// What the emulated instrumentation does at one marker.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MarkerOutcome {
    /// Cycles of instrumentation overhead to charge.
    pub overhead_cycles: f64,
    /// Reconfiguration-point crossing, if any.
    pub reconfig: Option<ReconfigEvent>,
    /// Whether an instrumentation point (of any kind) executed.
    pub instrumented: bool,
}

/// The edited binary: where instrumentation goes and what it does.
#[derive(Debug, Clone)]
pub struct InstrumentationPlan {
    policy: ContextPolicy,
    tree: CallTree,
    long_running: LongRunningSet,
    /// Tree nodes that can reach a long-running node (path policies instrument
    /// the corresponding subroutines).
    reaching: HashSet<NodeId>,
    /// Static subroutines whose prologue/epilogue carry path-tracking code.
    instrumented_subroutines: HashSet<SubroutineId>,
    /// Static loops whose header/footer carry label or reconfiguration code.
    instrumented_loops: HashSet<LoopId>,
    /// Static subroutines that are reconfiguration points (some instance is
    /// long-running).
    reconfig_subroutines: HashSet<SubroutineId>,
    /// Static loops that are reconfiguration points.
    reconfig_loops: HashSet<LoopId>,
    /// Static call sites that need label-offset code (call-site policies only).
    instrumented_call_sites: usize,
}

impl InstrumentationPlan {
    /// Builds the plan from the training call tree and its long-running nodes.
    ///
    /// # Panics
    ///
    /// Panics if `tree` was built under a different policy than `policy`'s
    /// identification policy.
    pub fn new(tree: CallTree, long_running: LongRunningSet, policy: ContextPolicy) -> Self {
        assert_eq!(
            tree.policy().identification_policy(),
            policy.identification_policy(),
            "call tree was built under an incompatible context policy"
        );
        let reaching = long_running.nodes_reaching_long_running(&tree);

        let mut instrumented_subroutines = HashSet::new();
        let mut instrumented_loops = HashSet::new();
        let mut reconfig_subroutines = HashSet::new();
        let mut reconfig_loops = HashSet::new();
        let mut instrumented_call_sites = HashSet::new();

        for id in tree.preorder() {
            let node = tree.node(id);
            let reaches = reaching.contains(&id);
            let is_long = long_running.contains(id);
            match node.kind {
                NodeKind::Subroutine(sub) => {
                    if reaches {
                        instrumented_subroutines.insert(sub);
                    }
                    if is_long {
                        reconfig_subroutines.insert(sub);
                    }
                    if reaches && policy.tracks_call_sites() {
                        if let Some(site) = node.call_site {
                            instrumented_call_sites.insert(site);
                        }
                    }
                }
                NodeKind::Loop(l) => {
                    if is_long {
                        reconfig_loops.insert(l);
                        instrumented_loops.insert(l);
                    } else if reaches && policy.tracks_paths() {
                        instrumented_loops.insert(l);
                    }
                }
            }
        }

        InstrumentationPlan {
            policy,
            tree,
            long_running,
            reaching,
            instrumented_subroutines,
            instrumented_loops,
            reconfig_subroutines,
            reconfig_loops,
            instrumented_call_sites: instrumented_call_sites.len(),
        }
    }

    /// The context policy the binary was edited for.
    pub fn policy(&self) -> ContextPolicy {
        self.policy
    }

    /// The training call tree the plan was derived from.
    pub fn tree(&self) -> &CallTree {
        &self.tree
    }

    /// The long-running node set of the training run.
    pub fn long_running(&self) -> &LongRunningSet {
        &self.long_running
    }

    /// The frequency-table keys the off-line analysis must provide settings
    /// for, in deterministic order.
    pub fn reconfig_keys(&self) -> Vec<NodeKey> {
        let mut keys: Vec<NodeKey> = if self.policy.tracks_paths() {
            self.long_running
                .sorted()
                .into_iter()
                .map(NodeKey::TreeNode)
                .collect()
        } else {
            let mut v: Vec<NodeKey> = self
                .reconfig_subroutines
                .iter()
                .map(|&s| NodeKey::Subroutine(s))
                .collect();
            if self.policy.tracks_loops() {
                v.extend(self.reconfig_loops.iter().map(|&l| NodeKey::Loop(l)));
            }
            v
        };
        keys.sort();
        keys
    }

    /// Number of static reconfiguration points placed in the binary (distinct
    /// subroutines and loops that trigger a frequency change).
    pub fn static_reconfiguration_points(&self) -> usize {
        let loops = if self.policy.tracks_loops() {
            self.reconfig_loops.len()
        } else {
            0
        };
        self.reconfig_subroutines.len() + loops
    }

    /// Number of static instrumentation points (reconfiguration points plus
    /// path-tracking prologues/epilogues, loop labels and call-site labels).
    pub fn static_instrumentation_points(&self) -> usize {
        if !self.policy.tracks_paths() {
            // Every instrumentation point is a reconfiguration point.
            return self.static_reconfiguration_points();
        }
        let loops = if self.policy.tracks_loops() {
            self.instrumented_loops.len()
        } else {
            0
        };
        let sites = if self.policy.tracks_call_sites() {
            self.instrumented_call_sites
        } else {
            0
        };
        self.instrumented_subroutines.len() + loops + sites
    }

    /// Estimated size in bytes of the run-time lookup tables: the
    /// `(N+1) × (S+1)` node-label table (two-byte entries) plus the `N+1`-entry
    /// frequency table (four domains, one byte each). Only path-tracking
    /// policies need the label table.
    pub fn lookup_table_bytes(&self) -> usize {
        let n = self.reconfig_keys().len() + 1;
        let freq_table = n * 4;
        if !self.policy.tracks_paths() {
            return freq_table;
        }
        let tracked_nodes = self.reaching.len() + 1;
        let subroutines = self.instrumented_subroutines.len() + 1;
        tracked_nodes * subroutines * 2 + freq_table
    }

    /// Creates a fresh run-time tracker for one simulated run of the edited
    /// binary.
    pub fn tracker(&self) -> RuntimeTracker<'_> {
        RuntimeTracker {
            plan: self,
            frames: Vec::with_capacity(64),
            current: Some(CurrentNode::Known(self.tree.root())),
            started: false,
            active_keys: Vec::with_capacity(16),
            dynamic_instrumentations: 0,
            dynamic_reconfigurations: 0,
            overhead_cycles: 0.0,
        }
    }
}

/// Where the run-time label machinery believes execution currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CurrentNode {
    /// A known node of the training call tree.
    Known(NodeId),
    /// A path that did not appear during training (label 0 in the paper).
    Unknown,
}

/// What a stack frame saved when a subroutine or loop was entered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Frame {
    /// The marker did not touch the label (uninstrumented structure).
    Unchanged,
    /// The label was updated; the previous value is saved for the epilogue,
    /// together with the reconfiguration key pushed at entry (if any).
    Saved {
        previous: CurrentNode,
        entered_key: Option<NodeKey>,
    },
}

/// Emulates the instrumentation inserted by [`InstrumentationPlan`] during one
/// run. Feed it every marker of the trace in order.
#[derive(Debug, Clone)]
pub struct RuntimeTracker<'a> {
    plan: &'a InstrumentationPlan,
    frames: Vec<Frame>,
    current: Option<CurrentNode>,
    started: bool,
    active_keys: Vec<NodeKey>,
    dynamic_instrumentations: u64,
    dynamic_reconfigurations: u64,
    overhead_cycles: f64,
}

impl RuntimeTracker<'_> {
    /// Processes one structural marker, returning the emulated instrumentation
    /// behaviour at that point.
    pub fn on_marker(&mut self, marker: &Marker) -> MarkerOutcome {
        if self.plan.policy.tracks_paths() {
            self.on_marker_path(marker)
        } else {
            self.on_marker_simple(marker)
        }
    }

    /// The innermost active reconfiguration key, if execution is currently
    /// inside a long-running region.
    pub fn current_key(&self) -> Option<NodeKey> {
        self.active_keys.last().copied()
    }

    /// Dynamic executions of instrumentation points so far.
    pub fn dynamic_instrumentations(&self) -> u64 {
        self.dynamic_instrumentations
    }

    /// Dynamic executions of reconfiguration points so far.
    pub fn dynamic_reconfigurations(&self) -> u64 {
        self.dynamic_reconfigurations
    }

    /// Total overhead cycles charged so far.
    pub fn overhead_cycles(&self) -> f64 {
        self.overhead_cycles
    }

    fn charge(&mut self, cycles: f64) {
        self.overhead_cycles += cycles;
        self.dynamic_instrumentations += 1;
    }

    fn on_marker_path(&mut self, marker: &Marker) -> MarkerOutcome {
        let policy = self.plan.policy;
        match marker {
            Marker::SubroutineEnter {
                subroutine,
                call_site,
            } => {
                // The entry marker of `main` corresponds to the tree root: the
                // label starts there without any instrumentation cost.
                if !self.started {
                    self.started = true;
                    let root = self.plan.tree.root();
                    self.current = Some(CurrentNode::Known(root));
                    let mut entered_key = None;
                    let mut reconfig = None;
                    if self.plan.long_running.contains(root) {
                        let key = NodeKey::TreeNode(root);
                        self.active_keys.push(key);
                        self.dynamic_reconfigurations += 1;
                        entered_key = Some(key);
                        reconfig = Some(ReconfigEvent::Enter(key));
                    }
                    self.frames.push(Frame::Saved {
                        previous: CurrentNode::Unknown,
                        entered_key,
                    });
                    return MarkerOutcome {
                        overhead_cycles: 0.0,
                        reconfig,
                        instrumented: false,
                    };
                }
                if !self.plan.instrumented_subroutines.contains(subroutine) {
                    self.frames.push(Frame::Unchanged);
                    return MarkerOutcome::default();
                }
                let previous = self.current.unwrap_or(CurrentNode::Unknown);
                // Follow the tree edge from the current node.
                let next = match previous {
                    CurrentNode::Known(cur) => {
                        let want_site = if policy.tracks_call_sites() {
                            Some(*call_site)
                        } else {
                            None
                        };
                        self.plan
                            .tree
                            .node(cur)
                            .children
                            .iter()
                            .copied()
                            .find(|&c| {
                                let n = self.plan.tree.node(c);
                                n.kind == NodeKind::Subroutine(*subroutine)
                                    && (!policy.tracks_call_sites() || n.call_site == want_site)
                            })
                            .map(CurrentNode::Known)
                            .unwrap_or(CurrentNode::Unknown)
                    }
                    CurrentNode::Unknown => CurrentNode::Unknown,
                };
                self.current = Some(next);
                let mut outcome = MarkerOutcome {
                    overhead_cycles: PATH_INSTRUMENTATION_CYCLES,
                    reconfig: None,
                    instrumented: true,
                };
                let mut entered_key = None;
                if let CurrentNode::Known(node) = next {
                    if self.plan.long_running.contains(node) {
                        outcome.overhead_cycles = RECONFIG_POINT_CYCLES;
                        let key = NodeKey::TreeNode(node);
                        self.active_keys.push(key);
                        entered_key = Some(key);
                        outcome.reconfig = Some(ReconfigEvent::Enter(key));
                        self.dynamic_reconfigurations += 1;
                    }
                }
                self.charge(outcome.overhead_cycles);
                self.frames.push(Frame::Saved {
                    previous,
                    entered_key,
                });
                outcome
            }
            Marker::SubroutineExit { .. } => self.pop_frame(PATH_INSTRUMENTATION_CYCLES),
            Marker::LoopEnter { loop_id } => {
                if !policy.tracks_loops() {
                    // No frame: the matching LoopExit is ignored as well.
                    return MarkerOutcome::default();
                }
                if !self.plan.instrumented_loops.contains(loop_id) {
                    self.frames.push(Frame::Unchanged);
                    return MarkerOutcome::default();
                }
                let previous = self.current.unwrap_or(CurrentNode::Unknown);
                let next = match previous {
                    CurrentNode::Known(cur) => self
                        .plan
                        .tree
                        .node(cur)
                        .children
                        .iter()
                        .copied()
                        .find(|&c| self.plan.tree.node(c).kind == NodeKind::Loop(*loop_id))
                        .map(CurrentNode::Known)
                        .unwrap_or(CurrentNode::Unknown),
                    CurrentNode::Unknown => CurrentNode::Unknown,
                };
                self.current = Some(next);
                let mut outcome = MarkerOutcome {
                    overhead_cycles: LOOP_LABEL_CYCLES,
                    reconfig: None,
                    instrumented: true,
                };
                let mut entered_key = None;
                if let CurrentNode::Known(node) = next {
                    if self.plan.long_running.contains(node) {
                        outcome.overhead_cycles = RECONFIG_POINT_CYCLES;
                        let key = NodeKey::TreeNode(node);
                        self.active_keys.push(key);
                        entered_key = Some(key);
                        outcome.reconfig = Some(ReconfigEvent::Enter(key));
                        self.dynamic_reconfigurations += 1;
                    }
                }
                self.charge(outcome.overhead_cycles);
                self.frames.push(Frame::Saved {
                    previous,
                    entered_key,
                });
                outcome
            }
            Marker::LoopExit { .. } => {
                if !policy.tracks_loops() {
                    // No frame was pushed for this loop.
                    return MarkerOutcome::default();
                }
                self.pop_frame(LOOP_LABEL_CYCLES)
            }
        }
    }

    fn pop_frame(&mut self, base_cycles: f64) -> MarkerOutcome {
        match self.frames.pop() {
            None | Some(Frame::Unchanged) => MarkerOutcome::default(),
            Some(Frame::Saved {
                previous,
                entered_key,
            }) => {
                self.current = Some(previous);
                let mut outcome = MarkerOutcome {
                    overhead_cycles: base_cycles,
                    reconfig: None,
                    instrumented: true,
                };
                if let Some(key) = entered_key {
                    // Leaving a long-running region: restore the enclosing setting.
                    self.active_keys.pop();
                    outcome.overhead_cycles = RECONFIG_POINT_CYCLES;
                    outcome.reconfig = Some(ReconfigEvent::Exit(key));
                    self.dynamic_reconfigurations += 1;
                }
                self.charge(outcome.overhead_cycles);
                outcome
            }
        }
    }

    fn on_marker_simple(&mut self, marker: &Marker) -> MarkerOutcome {
        let policy = self.plan.policy;
        match marker {
            Marker::SubroutineEnter { subroutine, .. } => {
                if self.plan.reconfig_subroutines.contains(subroutine) {
                    let key = NodeKey::Subroutine(*subroutine);
                    self.active_keys.push(key);
                    self.dynamic_reconfigurations += 1;
                    self.charge(SIMPLE_RECONFIG_CYCLES);
                    self.frames.push(Frame::Saved {
                        previous: CurrentNode::Unknown,
                        entered_key: Some(key),
                    });
                    MarkerOutcome {
                        overhead_cycles: SIMPLE_RECONFIG_CYCLES,
                        reconfig: Some(ReconfigEvent::Enter(key)),
                        instrumented: true,
                    }
                } else {
                    self.frames.push(Frame::Unchanged);
                    MarkerOutcome::default()
                }
            }
            Marker::SubroutineExit { .. } => self.pop_simple(),
            Marker::LoopEnter { loop_id } => {
                if policy.tracks_loops() && self.plan.reconfig_loops.contains(loop_id) {
                    let key = NodeKey::Loop(*loop_id);
                    self.active_keys.push(key);
                    self.dynamic_reconfigurations += 1;
                    self.charge(SIMPLE_RECONFIG_CYCLES);
                    self.frames.push(Frame::Saved {
                        previous: CurrentNode::Unknown,
                        entered_key: Some(key),
                    });
                    MarkerOutcome {
                        overhead_cycles: SIMPLE_RECONFIG_CYCLES,
                        reconfig: Some(ReconfigEvent::Enter(key)),
                        instrumented: true,
                    }
                } else {
                    self.frames.push(Frame::Unchanged);
                    MarkerOutcome::default()
                }
            }
            Marker::LoopExit { .. } => self.pop_simple(),
        }
    }

    fn pop_simple(&mut self) -> MarkerOutcome {
        match self.frames.pop() {
            None | Some(Frame::Unchanged) => MarkerOutcome::default(),
            Some(Frame::Saved {
                entered_key: Some(key),
                ..
            }) => {
                self.active_keys.pop();
                self.dynamic_reconfigurations += 1;
                self.charge(SIMPLE_RECONFIG_CYCLES);
                MarkerOutcome {
                    overhead_cycles: SIMPLE_RECONFIG_CYCLES,
                    reconfig: Some(ReconfigEvent::Exit(key)),
                    instrumented: true,
                }
            }
            Some(Frame::Saved {
                entered_key: None, ..
            }) => MarkerOutcome::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_sim::instruction::{CallSiteId, Instr, InstrClass, TraceItem};

    fn sub_enter(s: u32, site: u32) -> TraceItem {
        TraceItem::Marker(Marker::SubroutineEnter {
            subroutine: SubroutineId(s),
            call_site: CallSiteId(site),
        })
    }
    fn sub_exit(s: u32) -> TraceItem {
        TraceItem::Marker(Marker::SubroutineExit {
            subroutine: SubroutineId(s),
        })
    }
    fn instrs(n: usize) -> Vec<TraceItem> {
        (0..n)
            .map(|i| TraceItem::Instr(Instr::op(i as u64 * 4, InstrClass::IntAlu)))
            .collect()
    }

    /// main(500) -> worker(15k) called twice from two sites + helper(100)*5
    fn trace() -> Vec<TraceItem> {
        let mut t = vec![sub_enter(0, u32::MAX)];
        t.extend(instrs(500));
        for site in [0, 1] {
            t.push(sub_enter(1, site));
            t.extend(instrs(15_000));
            t.push(sub_exit(1));
        }
        for _ in 0..5 {
            t.push(sub_enter(2, 2));
            t.extend(instrs(100));
            t.push(sub_exit(2));
        }
        t.push(sub_exit(0));
        t
    }

    fn plan_for(policy: ContextPolicy) -> InstrumentationPlan {
        let t = trace();
        let tree = CallTree::build(&t, policy);
        let lr = LongRunningSet::identify(&tree);
        InstrumentationPlan::new(tree, lr, policy)
    }

    #[test]
    fn path_policy_distinguishes_call_sites() {
        let plan = plan_for(ContextPolicy::LoopFuncSitePath);
        // Two worker nodes (two call sites) are long-running.
        assert_eq!(plan.reconfig_keys().len(), 2);
        // Static reconfiguration points: the single static worker subroutine.
        assert_eq!(plan.static_reconfiguration_points(), 1);
        // Instrumentation: main + worker prologues, plus the two call sites.
        assert!(plan.static_instrumentation_points() >= 3);
        assert!(plan.lookup_table_bytes() > 0);
    }

    #[test]
    fn simple_policy_keys_by_static_structure() {
        let plan = plan_for(ContextPolicy::Func);
        assert_eq!(
            plan.reconfig_keys(),
            vec![NodeKey::Subroutine(SubroutineId(1))]
        );
        assert_eq!(
            plan.static_instrumentation_points(),
            plan.static_reconfiguration_points()
        );
    }

    #[test]
    fn tracker_reconfigures_on_worker_entry_and_exit() {
        let plan = plan_for(ContextPolicy::LoopFuncSitePath);
        let mut tracker = plan.tracker();
        let mut enters = 0;
        let mut exits = 0;
        for item in trace() {
            if let TraceItem::Marker(m) = item {
                let out = tracker.on_marker(&m);
                match out.reconfig {
                    Some(ReconfigEvent::Enter(_)) => enters += 1,
                    Some(ReconfigEvent::Exit(_)) => exits += 1,
                    None => {}
                }
            }
        }
        assert_eq!(enters, 2, "two worker invocations reconfigure on entry");
        assert_eq!(exits, 2, "and restore on exit");
        assert!(tracker.overhead_cycles() > 0.0);
        assert!(tracker.dynamic_instrumentations() >= 4);
        assert_eq!(tracker.current_key(), None, "run ends outside any region");
    }

    #[test]
    fn tracker_simple_policy_fires_on_any_path() {
        let plan = plan_for(ContextPolicy::Func);
        let mut tracker = plan.tracker();
        let mut enters = 0;
        for item in trace() {
            if let TraceItem::Marker(m) = item {
                if let Some(ReconfigEvent::Enter(key)) = tracker.on_marker(&m).reconfig {
                    assert_eq!(key, NodeKey::Subroutine(SubroutineId(1)));
                    enters += 1;
                }
            }
        }
        assert_eq!(enters, 2);
    }

    #[test]
    fn unknown_paths_do_not_reconfigure_under_path_tracking() {
        // Train on the standard trace, then run a production trace where the
        // worker is reached through a *new* call site (site 9).
        let plan = plan_for(ContextPolicy::LoopFuncSitePath);
        let mut tracker = plan.tracker();
        let mut production = vec![sub_enter(0, u32::MAX)];
        production.push(sub_enter(1, 9));
        production.extend(instrs(10));
        production.push(sub_exit(1));
        production.push(sub_exit(0));
        let mut reconfigs = 0;
        for item in production {
            if let TraceItem::Marker(m) = item {
                if tracker.on_marker(&m).reconfig.is_some() {
                    reconfigs += 1;
                }
            }
        }
        assert_eq!(
            reconfigs, 0,
            "a path unseen in training must not trigger reconfiguration"
        );
    }

    #[test]
    fn simple_policy_reconfigures_even_on_new_paths() {
        let plan = plan_for(ContextPolicy::Func);
        let mut tracker = plan.tracker();
        let mut production = vec![sub_enter(0, u32::MAX)];
        production.push(sub_enter(1, 9));
        production.extend(instrs(10));
        production.push(sub_exit(1));
        production.push(sub_exit(0));
        let reconfigs = production
            .iter()
            .filter_map(|i| i.as_marker())
            .filter(|m| tracker.on_marker(m).reconfig.is_some())
            .count();
        assert_eq!(reconfigs, 2, "enter + exit fire regardless of the path");
    }

    #[test]
    fn overhead_is_cheaper_for_simple_policies() {
        let path_plan = plan_for(ContextPolicy::LoopFuncSitePath);
        let simple_plan = plan_for(ContextPolicy::LoopFunc);
        let mut path_tracker = path_plan.tracker();
        let mut simple_tracker = simple_plan.tracker();
        for item in trace() {
            if let TraceItem::Marker(m) = item {
                path_tracker.on_marker(&m);
                simple_tracker.on_marker(&m);
            }
        }
        assert!(path_tracker.overhead_cycles() > simple_tracker.overhead_cycles());
    }
}
