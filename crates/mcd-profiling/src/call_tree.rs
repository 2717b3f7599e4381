//! Call-tree construction (phase one of the paper's analysis).
//!
//! The call tree is a compressed dynamic call trace: one node per distinct
//! path from `main` to a subroutine or loop, annotated with the number of
//! dynamic instances and the instructions executed. It extends the calling
//! context tree of Ammons et al. with loop nodes and (optionally) call-site
//! differentiation, as described in Section 3.1.

use crate::context::ContextPolicy;
use mcd_sim::instruction::{CallSiteId, LoopId, Marker, SubroutineId, TraceItem};

/// Identifier of a node within one call tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// What program structure a call-tree node stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum NodeKind {
    /// A subroutine reached through (optionally) a particular call site.
    Subroutine(SubroutineId),
    /// A loop within the parent subroutine.
    Loop(LoopId),
}

/// One node of the call tree.
#[derive(Debug, Clone, PartialEq)]
pub struct CallTreeNode {
    /// This node's id.
    pub id: NodeId,
    /// Parent node (`None` for the root).
    pub parent: Option<NodeId>,
    /// The structure this node stands for.
    pub kind: NodeKind,
    /// The call site through which the subroutine was reached, when the policy
    /// distinguishes call sites (always `None` for loop nodes and for policies
    /// without call-site tracking).
    pub call_site: Option<CallSiteId>,
    /// Children, in discovery order.
    pub children: Vec<NodeId>,
    /// Number of dynamic instances (entries) of this node.
    pub instances: u64,
    /// Instructions executed while this node was the innermost active node.
    pub self_instructions: u64,
}

/// A call tree built from a dynamic trace under a particular context policy.
#[derive(Debug, Clone, PartialEq)]
pub struct CallTree {
    policy: ContextPolicy,
    nodes: Vec<CallTreeNode>,
    root: NodeId,
}

impl CallTree {
    /// Builds the call tree of `trace` under `policy`.
    ///
    /// The trace must begin with the entry subroutine's `SubroutineEnter`
    /// marker (as produced by the workload generator). Markers that the policy
    /// ignores (loop markers under F-only policies) are skipped.
    pub fn build<'a, I>(trace: I, policy: ContextPolicy) -> Self
    where
        I: IntoIterator<Item = &'a TraceItem>,
    {
        Self::build_items(trace.into_iter().copied(), policy)
    }

    /// [`CallTree::build`] over owned items — the entry point for streamed
    /// decoders such as `PackedTrace` cursors, which yield `TraceItem` by
    /// value without materializing the trace.
    pub fn build_items<I>(trace: I, policy: ContextPolicy) -> Self
    where
        I: IntoIterator<Item = TraceItem>,
    {
        let tree_policy = policy.identification_policy();
        let mut nodes: Vec<CallTreeNode> = Vec::new();
        // The root is created lazily from the first subroutine marker; until
        // then instructions (if any) are dropped.
        let mut stack: Vec<NodeId> = Vec::new();
        let mut root: Option<NodeId> = None;

        for item in trace {
            match item {
                TraceItem::Instr(_) => {
                    if let Some(&top) = stack.last() {
                        nodes[top.0 as usize].self_instructions += 1;
                    }
                }
                TraceItem::Marker(marker) => match marker {
                    Marker::SubroutineEnter {
                        subroutine,
                        call_site,
                    } => {
                        let site = if tree_policy.tracks_call_sites() && !stack.is_empty() {
                            Some(call_site)
                        } else {
                            None
                        };
                        let kind = NodeKind::Subroutine(subroutine);
                        let id = Self::find_or_create(&mut nodes, &stack, kind, site, &mut root);
                        nodes[id.0 as usize].instances += 1;
                        stack.push(id);
                    }
                    Marker::SubroutineExit { subroutine } => {
                        Self::pop_until(&mut stack, &nodes, NodeKind::Subroutine(subroutine));
                    }
                    Marker::LoopEnter { loop_id } => {
                        if tree_policy.tracks_loops() {
                            let kind = NodeKind::Loop(loop_id);
                            let id =
                                Self::find_or_create(&mut nodes, &stack, kind, None, &mut root);
                            nodes[id.0 as usize].instances += 1;
                            stack.push(id);
                        }
                    }
                    Marker::LoopExit { loop_id } => {
                        if tree_policy.tracks_loops() {
                            Self::pop_until(&mut stack, &nodes, NodeKind::Loop(loop_id));
                        }
                    }
                },
            }
        }

        let root = root.unwrap_or_else(|| {
            // Degenerate empty trace: synthesize a root so the tree is well formed.
            nodes.push(CallTreeNode {
                id: NodeId(0),
                parent: None,
                kind: NodeKind::Subroutine(SubroutineId(0)),
                call_site: None,
                children: Vec::new(),
                instances: 0,
                self_instructions: 0,
            });
            NodeId(0)
        });

        CallTree {
            policy,
            nodes,
            root,
        }
    }

    fn find_or_create(
        nodes: &mut Vec<CallTreeNode>,
        stack: &[NodeId],
        kind: NodeKind,
        call_site: Option<CallSiteId>,
        root: &mut Option<NodeId>,
    ) -> NodeId {
        if let Some(&parent) = stack.last() {
            // Look for an existing child of the same kind (and call site).
            let existing = nodes[parent.0 as usize]
                .children
                .iter()
                .copied()
                .find(|&c| {
                    let n = &nodes[c.0 as usize];
                    n.kind == kind && n.call_site == call_site
                });
            if let Some(id) = existing {
                return id;
            }
            let id = NodeId(nodes.len() as u32);
            nodes.push(CallTreeNode {
                id,
                parent: Some(parent),
                kind,
                call_site,
                children: Vec::new(),
                instances: 0,
                self_instructions: 0,
            });
            nodes[parent.0 as usize].children.push(id);
            id
        } else if let Some(r) = *root {
            // Re-entering the root (should not normally happen).
            r
        } else {
            let id = NodeId(nodes.len() as u32);
            nodes.push(CallTreeNode {
                id,
                parent: None,
                kind,
                call_site: None,
                children: Vec::new(),
                instances: 0,
                self_instructions: 0,
            });
            *root = Some(id);
            id
        }
    }

    fn pop_until(stack: &mut Vec<NodeId>, nodes: &[CallTreeNode], kind: NodeKind) {
        // Pop nested nodes (e.g. loops left open by a truncated trace) until the
        // matching node is popped. If no matching node is on the stack, do
        // nothing (stray exit marker).
        if let Some(pos) = stack
            .iter()
            .rposition(|&id| nodes[id.0 as usize].kind == kind)
        {
            stack.truncate(pos);
        }
    }

    /// The context policy this tree was built for.
    pub fn policy(&self) -> ContextPolicy {
        self.policy
    }

    /// The root node id.
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// All nodes, indexable by [`NodeId`].
    pub fn nodes(&self) -> &[CallTreeNode] {
        &self.nodes
    }

    /// A node by id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn node(&self, id: NodeId) -> &CallTreeNode {
        &self.nodes[id.0 as usize]
    }

    /// Number of nodes in the tree.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the tree has no nodes (only possible for an empty trace).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Total instructions attributed to the subtree rooted at `id` (the node's
    /// own instructions plus all descendants').
    pub fn total_instructions(&self, id: NodeId) -> u64 {
        let node = self.node(id);
        node.self_instructions
            + node
                .children
                .iter()
                .map(|&c| self.total_instructions(c))
                .sum::<u64>()
    }

    /// The path signature of a node: the sequence of (kind, call-site) pairs
    /// from the root down to the node. Two nodes in different trees represent
    /// "the same node" (Table 3's *Common* column) when their signatures match.
    pub fn path_signature(&self, id: NodeId) -> Vec<(NodeKind, Option<CallSiteId>)> {
        let mut path = Vec::new();
        let mut cur = Some(id);
        while let Some(c) = cur {
            let n = self.node(c);
            path.push((n.kind, n.call_site));
            cur = n.parent;
        }
        path.reverse();
        path
    }

    /// Iterates node ids in depth-first preorder from the root.
    pub fn preorder(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![self.root];
        while let Some(id) = stack.pop() {
            order.push(id);
            for &c in self.node(id).children.iter().rev() {
                stack.push(c);
            }
        }
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mcd_sim::instruction::{Instr, InstrClass};

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
    fn loop_enter(l: u32) -> TraceItem {
        TraceItem::Marker(Marker::LoopEnter { loop_id: LoopId(l) })
    }
    fn loop_exit(l: u32) -> TraceItem {
        TraceItem::Marker(Marker::LoopExit { loop_id: LoopId(l) })
    }
    fn instrs(n: usize) -> Vec<TraceItem> {
        (0..n)
            .map(|i| TraceItem::Instr(Instr::op(i as u64 * 4, InstrClass::IntAlu)))
            .collect()
    }

    /// The example of Figure 2: main calls initm twice (two call sites), initm
    /// contains loops L1/L2, and L2 calls drand48.
    fn figure2_trace() -> Vec<TraceItem> {
        let mut t = Vec::new();
        t.push(sub_enter(0, u32::MAX)); // main
        for site in [0u32, 1u32] {
            t.push(sub_enter(1, site)); // initm
            t.push(loop_enter(0)); // L1
            for _ in 0..3 {
                t.push(loop_enter(1)); // L2
                for _ in 0..3 {
                    t.push(sub_enter(2, 2)); // drand48
                    t.extend(instrs(5));
                    t.push(sub_exit(2));
                }
                t.push(loop_exit(1));
            }
            t.push(loop_exit(0));
            t.push(sub_exit(1));
        }
        t.push(sub_exit(0));
        t
    }

    #[test]
    fn figure2_tree_shapes_match_the_paper() {
        let trace = figure2_trace();
        // L+F+C+P: main, 2×initm (distinct call sites), each with L1, L2, drand48.
        let full = CallTree::build(&trace, ContextPolicy::LoopFuncSitePath);
        assert_eq!(full.len(), 1 + 2 * 4);
        // L+F+P: the two initm calls merge.
        let lfp = CallTree::build(&trace, ContextPolicy::LoopFuncPath);
        assert_eq!(lfp.len(), 1 + 4);
        // F+C+P: no loop nodes, two initm nodes each with a drand48 child.
        let fcp = CallTree::build(&trace, ContextPolicy::FuncSitePath);
        assert_eq!(fcp.len(), 1 + 2 * 2);
        // F+P (the CCT): main, initm, drand48.
        let fp = CallTree::build(&trace, ContextPolicy::FuncPath);
        assert_eq!(fp.len(), 3);
    }

    #[test]
    fn instance_counts_are_superimposed() {
        let trace = figure2_trace();
        let lfp = CallTree::build(&trace, ContextPolicy::LoopFuncPath);
        // drand48 is a single node called 2 (call sites) * 3 (L1) * 3 (L2) times.
        let drand = lfp
            .nodes()
            .iter()
            .find(|n| n.kind == NodeKind::Subroutine(SubroutineId(2)))
            .expect("drand48 node");
        assert_eq!(drand.instances, 18);
        assert_eq!(drand.self_instructions, 18 * 5);
    }

    #[test]
    fn total_instructions_aggregate_children() {
        let trace = figure2_trace();
        let tree = CallTree::build(&trace, ContextPolicy::LoopFuncSitePath);
        let total = tree.total_instructions(tree.root());
        assert_eq!(total, 2 * 3 * 3 * 5);
        // The root executed no instructions itself.
        assert_eq!(tree.node(tree.root()).self_instructions, 0);
    }

    #[test]
    fn simple_policies_use_their_path_tree_for_identification() {
        let trace = figure2_trace();
        let lf = CallTree::build(&trace, ContextPolicy::LoopFunc);
        let lfp = CallTree::build(&trace, ContextPolicy::LoopFuncPath);
        assert_eq!(lf.len(), lfp.len());
        assert_eq!(lf.policy(), ContextPolicy::LoopFunc);
    }

    #[test]
    fn path_signatures_identify_nodes_across_trees() {
        let trace = figure2_trace();
        let a = CallTree::build(&trace, ContextPolicy::LoopFuncSitePath);
        let b = CallTree::build(&trace, ContextPolicy::LoopFuncSitePath);
        for (na, nb) in a.preorder().iter().zip(b.preorder().iter()) {
            assert_eq!(a.path_signature(*na), b.path_signature(*nb));
        }
    }

    #[test]
    fn truncated_trace_with_unmatched_enters_is_tolerated() {
        let mut trace = figure2_trace();
        trace.truncate(trace.len() / 2);
        let tree = CallTree::build(&trace, ContextPolicy::LoopFuncSitePath);
        assert!(tree.len() >= 3);
        assert!(tree.total_instructions(tree.root()) > 0);
    }

    #[test]
    fn preorder_visits_every_node_once() {
        let trace = figure2_trace();
        let tree = CallTree::build(&trace, ContextPolicy::LoopFuncSitePath);
        let mut order = tree.preorder();
        assert_eq!(order.len(), tree.len());
        order.sort();
        order.dedup();
        assert_eq!(order.len(), tree.len());
    }
}
