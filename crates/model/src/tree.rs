//! Arena-backed rooted in-tree of weighted tasks.

use std::fmt;
use std::sync::OnceLock;

/// Identifier of a node inside a [`TaskTree`].
///
/// Node ids are dense indices in `0..tree.len()`; they are stable for the
/// lifetime of the tree (nodes are never removed) and cheap to copy.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Index of this node in the tree arena.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a dense arena index.
    #[inline]
    pub fn from_index(i: usize) -> Self {
        debug_assert!(i <= u32::MAX as usize);
        NodeId(i as u32)
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// One task during construction: weights plus the adjacency links. The
/// builders accumulate `Node`s; [`TaskTree::from_nodes`] packs them into
/// the tree's struct-of-arrays layout.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct Node {
    pub parent: Option<NodeId>,
    pub children: Vec<NodeId>,
    /// Processing time `w_i`.
    pub work: f64,
    /// Output-file size `f_i` (input file of the parent).
    pub output: f64,
    /// Execution-file (program) size `n_i`.
    pub exec: f64,
}

/// A rooted in-tree of weighted tasks (paper §3.1).
///
/// The tree stores its nodes in a struct-of-arrays layout: one parallel
/// array per field (parent links, weights) plus a packed CSR child table
/// (`child_start`/`child_list`). Traversal-heavy code — the sequential
/// traversals, the schedulers' subtree walks — touches only the arrays it
/// needs, instead of striding over a full node struct per visit. Children
/// keep their insertion order, which matters for order-sensitive
/// traversals such as the *naive* postorder.
///
/// Per-tree facts are memoized: [`TaskTree::fingerprint`],
/// [`TaskTree::critical_path`], the per-node [`TaskTree::depths`],
/// [`TaskTree::weighted_depths`] and [`TaskTree::subtree_work`], and up to
/// [`TRAVERSAL_SLOTS`] sequential traversals
/// ([`TaskTree::memo_traversal`]). Each is computed on first use, shared
/// by every later call on the same tree (and by every thread holding it),
/// and reset by [`TaskTree::set_work`], [`TaskTree::set_output`] and
/// [`TaskTree::set_exec`]. The memo is not part of the tree's value:
/// `Clone` starts a clone with an empty one, and `PartialEq` and `Debug`
/// ignore it.
///
/// # Example
///
/// ```
/// use treesched_model::{TaskTree, TreeBuilder};
///
/// // root with two leaf children, pebble-game weights
/// let mut b = TreeBuilder::new();
/// let root = b.node(1.0, 1.0, 0.0);          // w, f, n
/// let _a = b.child(root, 1.0, 1.0, 0.0);
/// let _c = b.child(root, 1.0, 1.0, 0.0);
/// let tree: TaskTree = b.build().unwrap();
/// assert_eq!(tree.len(), 3);
/// assert_eq!(tree.children(tree.root()).len(), 2);
/// // running the root needs both inputs + its own output file
/// assert_eq!(tree.local_need(tree.root()), 3.0);
/// ```
#[derive(Clone, PartialEq)]
pub struct TaskTree {
    pub(crate) parent: Vec<Option<NodeId>>,
    /// Processing times `w_i`.
    pub(crate) work: Vec<f64>,
    /// Output-file sizes `f_i`.
    pub(crate) output: Vec<f64>,
    /// Execution-file sizes `n_i`.
    pub(crate) exec: Vec<f64>,
    /// CSR offsets: children of `i` live at
    /// `child_list[child_start[i]..child_start[i + 1]]`.
    pub(crate) child_start: Vec<u32>,
    /// Packed child lists, insertion order preserved per node.
    pub(crate) child_list: Vec<NodeId>,
    pub(crate) root: NodeId,
    /// Whole-tree facts, filled on first use.
    pub(crate) memo: Memo,
}

/// Number of traversal slots in a tree's memo (see
/// [`TaskTree::memo_traversal`]).
pub const TRAVERSAL_SLOTS: usize = 3;

/// A sequential traversal memoized in a [`TaskTree`]: the execution order,
/// every node's position in it and the order's peak memory.
#[derive(Clone, Debug, PartialEq)]
pub struct MemoTraversal {
    /// Execution order (children before parents).
    pub order: Vec<NodeId>,
    /// Position of each node in `order`, indexed by node id.
    pub pos: Vec<u32>,
    /// Peak memory of `order`.
    pub peak: f64,
}

/// The memoized whole-tree facts of a [`TaskTree`]. Not part of the
/// tree's value: clones start empty and every memo equals every other.
#[derive(Default)]
pub(crate) struct Memo {
    pub(crate) fingerprint: OnceLock<u64>,
    pub(crate) critical_path: OnceLock<f64>,
    pub(crate) depths: OnceLock<Vec<u32>>,
    pub(crate) weighted_depths: OnceLock<Vec<f64>>,
    pub(crate) subtree_work: OnceLock<Vec<f64>>,
    pub(crate) traversals: [OnceLock<MemoTraversal>; TRAVERSAL_SLOTS],
}

impl Clone for Memo {
    fn clone(&self) -> Memo {
        Memo::default()
    }
}

impl PartialEq for Memo {
    fn eq(&self, _: &Memo) -> bool {
        true
    }
}

impl fmt::Debug for TaskTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TaskTree")
            .field("parent", &self.parent)
            .field("work", &self.work)
            .field("output", &self.output)
            .field("exec", &self.exec)
            .field("child_start", &self.child_start)
            .field("child_list", &self.child_list)
            .field("root", &self.root)
            .finish()
    }
}

impl TaskTree {
    /// Packs builder nodes into the struct-of-arrays layout. Child lists
    /// keep their per-node order.
    pub(crate) fn from_nodes(nodes: Vec<Node>, root: NodeId) -> TaskTree {
        let n = nodes.len();
        let mut child_start = Vec::with_capacity(n + 1);
        let mut children = 0u32;
        child_start.push(0);
        for node in &nodes {
            children += node.children.len() as u32;
            child_start.push(children);
        }
        let mut child_list = Vec::with_capacity(children as usize);
        let mut parent = Vec::with_capacity(n);
        let mut work = Vec::with_capacity(n);
        let mut output = Vec::with_capacity(n);
        let mut exec = Vec::with_capacity(n);
        for node in nodes {
            child_list.extend_from_slice(&node.children);
            parent.push(node.parent);
            work.push(node.work);
            output.push(node.output);
            exec.push(node.exec);
        }
        TaskTree {
            parent,
            work,
            output,
            exec,
            child_start,
            child_list,
            root,
            memo: Memo::default(),
        }
    }

    /// Number of tasks in the tree.
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` when the tree holds no tasks (never the case for built trees).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The root task (the only task without a parent).
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Parent of `i`, or `None` for the root.
    #[inline]
    pub fn parent(&self, i: NodeId) -> Option<NodeId> {
        self.parent[i.index()]
    }

    /// Children of `i` in insertion order.
    #[inline]
    pub fn children(&self, i: NodeId) -> &[NodeId] {
        &self.child_list
            [self.child_start[i.index()] as usize..self.child_start[i.index() + 1] as usize]
    }

    /// `true` when `i` has no children.
    #[inline]
    pub fn is_leaf(&self, i: NodeId) -> bool {
        self.child_start[i.index()] == self.child_start[i.index() + 1]
    }

    /// Processing time `w_i`.
    #[inline]
    pub fn work(&self, i: NodeId) -> f64 {
        self.work[i.index()]
    }

    /// Output-file size `f_i`.
    #[inline]
    pub fn output(&self, i: NodeId) -> f64 {
        self.output[i.index()]
    }

    /// Execution-file (program) size `n_i`.
    #[inline]
    pub fn exec(&self, i: NodeId) -> f64 {
        self.exec[i.index()]
    }

    /// Overwrites the processing time of `i` (and resets the memo).
    pub fn set_work(&mut self, i: NodeId, w: f64) {
        self.memo = Memo::default();
        self.work[i.index()] = w;
    }

    /// Overwrites the output-file size of `i` (and resets the memo).
    pub fn set_output(&mut self, i: NodeId, f: f64) {
        self.memo = Memo::default();
        self.output[i.index()] = f;
    }

    /// Overwrites the execution-file size of `i` (and resets the memo).
    pub fn set_exec(&mut self, i: NodeId, n: f64) {
        self.memo = Memo::default();
        self.exec[i.index()] = n;
    }

    /// Structural hash of the tree: parents, weight bits and child order
    /// through splitmix64 mixing, never 0. Memoized: the first call walks
    /// the tree, later calls read the stored value.
    ///
    /// Equal trees (same shape, weights and child order) hash equal even
    /// when they are distinct allocations. Child order enters only at
    /// nodes whose child list is not ascending: trees built from a parent
    /// array or by [`crate::TreeBuilder`] (whose lists ascend) hash by
    /// parents and weights alone, and a tree whose lists differ from
    /// theirs only in order (one from [`TaskTree::subtree`], say) hashes
    /// apart.
    pub fn fingerprint(&self) -> u64 {
        *self.memo.fingerprint.get_or_init(|| {
            #[inline]
            fn mix(h: u64, v: u64) -> u64 {
                let mut z = h ^ v.wrapping_add(0x9e3779b97f4a7c15);
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
                z ^ (z >> 31)
            }
            let mut h = mix(0x7ee5_c0de, self.len() as u64);
            h = mix(h, self.root.0 as u64);
            for i in self.ids() {
                let parent = self.parent(i).map_or(u64::MAX, |p| p.0 as u64);
                h = mix(h, parent);
                h = mix(h, self.work(i).to_bits());
                h = mix(h, self.output(i).to_bits());
                h = mix(h, self.exec(i).to_bits());
                let kids = self.children(i);
                if kids.windows(2).any(|pair| pair[0] > pair[1]) {
                    // a marker no parent id takes, then the order itself
                    h = mix(h, u64::MAX - 1);
                    for &c in kids {
                        h = mix(h, c.0 as u64);
                    }
                }
            }
            // never 0; the low bit stays set so pinned values do not move
            h | 1
        })
    }

    /// The traversal memoized in `slot` (below [`TRAVERSAL_SLOTS`]): the
    /// first call per slot runs `compute` for the order and its peak, and
    /// the memo adds each node's position; later calls, from any thread,
    /// read the stored traversal. The flag is `true` exactly when this call
    /// ran `compute`. A slot keeps what its first caller computed, so each
    /// slot stands for one algorithm (`treesched_core::SeqAlgo::reference`
    /// keeps one per sequential algorithm).
    pub fn memo_traversal(
        &self,
        slot: usize,
        compute: impl FnOnce(&TaskTree) -> (Vec<NodeId>, f64),
    ) -> (&MemoTraversal, bool) {
        let mut computed = false;
        let traversal = self.memo.traversals[slot].get_or_init(|| {
            computed = true;
            let (order, peak) = compute(self);
            let mut pos = vec![0u32; self.len()];
            for (k, &v) in order.iter().enumerate() {
                pos[v.index()] = k as u32;
            }
            MemoTraversal { order, pos, peak }
        });
        (traversal, computed)
    }

    /// Memory needed *while* task `i` runs:
    /// `Σ_{j ∈ children(i)} f_j + n_i + f_i` (paper §3.1).
    pub fn local_need(&self, i: NodeId) -> f64 {
        let inputs: f64 = self.children(i).iter().map(|&c| self.output(c)).sum();
        inputs + self.exec(i) + self.output(i)
    }

    /// Sum of the input-file sizes of `i` (zero for leaves).
    pub fn input_size(&self, i: NodeId) -> f64 {
        self.children(i).iter().map(|&c| self.output(c)).sum()
    }

    /// Iterator over all node ids in arena order.
    pub fn ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.len() as u32).map(NodeId)
    }

    /// All leaves, in arena order.
    pub fn leaves(&self) -> Vec<NodeId> {
        self.ids().filter(|&i| self.is_leaf(i)).collect()
    }

    /// Number of leaves.
    pub fn leaf_count(&self) -> usize {
        self.ids().filter(|&i| self.is_leaf(i)).count()
    }

    /// Sum of `w_i` over all tasks.
    pub fn total_work(&self) -> f64 {
        self.work.iter().sum()
    }

    /// Largest single task weight, `max_i w_i`.
    pub fn max_work(&self) -> f64 {
        self.work.iter().copied().fold(0.0, f64::max)
    }

    /// Largest output-file size, `max_i f_i`.
    pub fn max_output(&self) -> f64 {
        self.output.iter().copied().fold(0.0, f64::max)
    }

    /// Builds a tree from a parent vector with uniform *pebble-game* weights
    /// (`w = f = 1`, `n = 0`). `parents[i]` is the parent index of node `i`;
    /// exactly one entry must be `None` (the root).
    pub fn pebble_from_parents(parents: &[Option<usize>]) -> Result<Self, crate::TreeError> {
        let n = parents.len();
        Self::from_parents(parents, &vec![1.0; n], &vec![1.0; n], &vec![0.0; n])
    }

    /// Builds a tree from parallel arrays: parent links plus per-node
    /// `w` (work), `f` (output) and `n` (execution file) weights.
    ///
    /// Fails when the arrays disagree in length, when there is not exactly
    /// one root, when a parent index is out of range, or when the parent
    /// links contain a cycle.
    pub fn from_parents(
        parents: &[Option<usize>],
        work: &[f64],
        output: &[f64],
        exec: &[f64],
    ) -> Result<Self, crate::TreeError> {
        use crate::TreeError;
        let n = parents.len();
        if work.len() != n || output.len() != n || exec.len() != n {
            return Err(TreeError::LengthMismatch {
                parents: n,
                weights: work.len().min(output.len()).min(exec.len()),
            });
        }
        if n == 0 {
            return Err(TreeError::Empty);
        }
        let mut parent: Vec<Option<NodeId>> = vec![None; n];
        let mut counts = vec![0u32; n];
        let mut root = None;
        for (i, &p) in parents.iter().enumerate() {
            match p {
                None => {
                    if root.replace(NodeId::from_index(i)).is_some() {
                        return Err(TreeError::MultipleRoots);
                    }
                }
                Some(p) => {
                    if p >= n {
                        return Err(TreeError::BadParent { node: i, parent: p });
                    }
                    if p == i {
                        return Err(TreeError::SelfLoop { node: i });
                    }
                    parent[i] = Some(NodeId::from_index(p));
                    counts[p] += 1;
                }
            }
        }
        let root = root.ok_or(TreeError::NoRoot)?;
        // CSR fill: offsets from the per-parent counts, then a second pass
        // in ascending child id (= the AoS insertion order).
        let mut child_start = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        child_start.push(0);
        for &c in &counts {
            acc += c;
            child_start.push(acc);
        }
        let mut cursor: Vec<u32> = child_start[..n].to_vec();
        let mut child_list = vec![NodeId(0); acc as usize];
        for (i, &p) in parents.iter().enumerate() {
            if let Some(p) = p {
                child_list[cursor[p] as usize] = NodeId::from_index(i);
                cursor[p] += 1;
            }
        }
        let tree = TaskTree {
            parent,
            work: work.to_vec(),
            output: output.to_vec(),
            exec: exec.to_vec(),
            child_start,
            child_list,
            root,
            memo: Memo::default(),
        };
        tree.check_connected()?;
        Ok(tree)
    }

    /// Verifies that every node is reachable from the root (detects cycles
    /// among non-root components).
    pub(crate) fn check_connected(&self) -> Result<(), crate::TreeError> {
        let mut seen = vec![false; self.len()];
        let mut stack = vec![self.root];
        let mut count = 0usize;
        while let Some(v) = stack.pop() {
            if seen[v.index()] {
                return Err(crate::TreeError::Cycle);
            }
            seen[v.index()] = true;
            count += 1;
            stack.extend_from_slice(self.children(v));
        }
        if count != self.len() {
            return Err(crate::TreeError::Disconnected {
                reachable: count,
                total: self.len(),
            });
        }
        Ok(())
    }

    /// Extracts the subtree rooted at `r` as a standalone tree.
    ///
    /// Returns the new tree and the mapping `new id -> old id` (dense, the
    /// new root is entry 0). The mapping order is the DFS order of
    /// [`TaskTree::subtree_nodes_into`]; borrowed [`SubtreeView`]s over that
    /// order avoid this copy entirely on the scheduling hot path.
    ///
    /// [`SubtreeView`]: crate::SubtreeView
    pub fn subtree(&self, r: NodeId) -> (TaskTree, Vec<NodeId>) {
        let mut map: Vec<NodeId> = Vec::new();
        let mut stack = Vec::new();
        self.subtree_nodes_into(r, &mut stack, &mut map);
        let mut old_to_new = std::collections::HashMap::with_capacity(map.len());
        for (new, &old) in map.iter().enumerate() {
            old_to_new.insert(old, NodeId::from_index(new));
        }
        let nodes: Vec<Node> = map
            .iter()
            .map(|&old| Node {
                parent: if old == r {
                    None
                } else {
                    self.parent(old).map(|p| old_to_new[&p])
                },
                children: self.children(old).iter().map(|c| old_to_new[c]).collect(),
                work: self.work(old),
                output: self.output(old),
                exec: self.exec(old),
            })
            .collect();
        (TaskTree::from_nodes(nodes, NodeId(0)), map)
    }

    /// Collects the member nodes of the subtree rooted at `r` into `out`,
    /// in the exact DFS order [`TaskTree::subtree`] uses for its id map
    /// (entry 0 is `r`; a node's position is its id in the extracted
    /// clone). `stack` is caller-provided scratch; both buffers are
    /// cleared first, so warm callers pay no allocation.
    pub fn subtree_nodes_into(&self, r: NodeId, stack: &mut Vec<NodeId>, out: &mut Vec<NodeId>) {
        out.clear();
        stack.clear();
        stack.push(r);
        while let Some(v) = stack.pop() {
            out.push(v);
            stack.extend_from_slice(self.children(v));
        }
    }
}

/// A borrowed view of the subtree rooted at `nodes[0]`: the parent tree's
/// arrays plus the member list in [`TaskTree::subtree`]'s DFS order. All
/// accessors speak **original** node ids, so consumers emit results
/// directly against the parent tree without an id remap — and without the
/// `O(subtree)` clone the owning [`TaskTree::subtree`] pays.
#[derive(Clone, Copy, Debug)]
pub struct SubtreeView<'a> {
    tree: &'a TaskTree,
    nodes: &'a [NodeId],
}

impl<'a> SubtreeView<'a> {
    /// Wraps a member list produced by [`TaskTree::subtree_nodes_into`].
    pub fn new(tree: &'a TaskTree, nodes: &'a [NodeId]) -> SubtreeView<'a> {
        debug_assert!(!nodes.is_empty(), "a subtree view has at least its root");
        SubtreeView { tree, nodes }
    }

    /// The parent tree the view borrows from.
    #[inline]
    pub fn tree(&self) -> &'a TaskTree {
        self.tree
    }

    /// Member nodes in DFS order; a node's position is the id it would
    /// have in the extracted clone (the view's *local* id).
    #[inline]
    pub fn nodes(&self) -> &'a [NodeId] {
        self.nodes
    }

    /// Root of the subtree (original id).
    #[inline]
    pub fn root(&self) -> NodeId {
        self.nodes[0]
    }

    /// Number of member nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` when the view holds no nodes (never for views built over a
    /// valid root).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Children of `i` (original ids; `i` must be a member).
    #[inline]
    pub fn children(&self, i: NodeId) -> &'a [NodeId] {
        self.tree.children(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain3() -> TaskTree {
        // 0 <- 1 <- 2 (root is 0)
        TaskTree::from_parents(
            &[None, Some(0), Some(1)],
            &[1.0, 2.0, 3.0],
            &[10.0, 20.0, 30.0],
            &[0.5, 0.25, 0.125],
        )
        .unwrap()
    }

    #[test]
    fn accessors() {
        let t = chain3();
        assert_eq!(t.len(), 3);
        assert_eq!(t.root(), NodeId(0));
        assert_eq!(t.parent(NodeId(1)), Some(NodeId(0)));
        assert_eq!(t.parent(NodeId(0)), None);
        assert_eq!(t.children(NodeId(0)), &[NodeId(1)]);
        assert!(t.is_leaf(NodeId(2)));
        assert!(!t.is_leaf(NodeId(0)));
        assert_eq!(t.work(NodeId(2)), 3.0);
        assert_eq!(t.output(NodeId(1)), 20.0);
        assert_eq!(t.exec(NodeId(0)), 0.5);
    }

    #[test]
    fn local_need_counts_inputs_program_output() {
        let t = chain3();
        // node 1: input f_2 = 30, exec 0.25, output 20
        assert_eq!(t.local_need(NodeId(1)), 30.0 + 0.25 + 20.0);
        // leaf 2: no inputs
        assert_eq!(t.local_need(NodeId(2)), 0.125 + 30.0);
        assert_eq!(t.input_size(NodeId(0)), 20.0);
        assert_eq!(t.input_size(NodeId(2)), 0.0);
    }

    #[test]
    fn aggregates() {
        let t = chain3();
        assert_eq!(t.total_work(), 6.0);
        assert_eq!(t.max_work(), 3.0);
        assert_eq!(t.max_output(), 30.0);
        assert_eq!(t.leaves(), vec![NodeId(2)]);
        assert_eq!(t.leaf_count(), 1);
    }

    #[test]
    fn from_parents_rejects_multiple_roots() {
        let e = TaskTree::pebble_from_parents(&[None, None]).unwrap_err();
        assert!(matches!(e, crate::TreeError::MultipleRoots));
    }

    #[test]
    fn from_parents_rejects_cycle() {
        // 1 -> 2 -> 1 cycle beside the root
        let e = TaskTree::pebble_from_parents(&[None, Some(2), Some(1)]).unwrap_err();
        assert!(matches!(
            e,
            crate::TreeError::Cycle | crate::TreeError::Disconnected { .. }
        ));
    }

    #[test]
    fn from_parents_rejects_self_loop() {
        let e = TaskTree::pebble_from_parents(&[None, Some(1)]).unwrap_err();
        assert!(matches!(e, crate::TreeError::SelfLoop { node: 1 }));
    }

    #[test]
    fn from_parents_rejects_empty() {
        let e = TaskTree::pebble_from_parents(&[]).unwrap_err();
        assert!(matches!(e, crate::TreeError::Empty));
    }

    #[test]
    fn from_parents_rejects_out_of_range_parent() {
        let e = TaskTree::pebble_from_parents(&[None, Some(7)]).unwrap_err();
        assert!(matches!(
            e,
            crate::TreeError::BadParent { node: 1, parent: 7 }
        ));
    }

    #[test]
    fn from_parents_keeps_child_insertion_order() {
        // children of the root in ascending id order, multiple parents
        let t = TaskTree::pebble_from_parents(&[None, Some(0), Some(0), Some(1), Some(1), Some(0)])
            .unwrap();
        assert_eq!(t.children(NodeId(0)), &[NodeId(1), NodeId(2), NodeId(5)]);
        assert_eq!(t.children(NodeId(1)), &[NodeId(3), NodeId(4)]);
        assert!(t.children(NodeId(4)).is_empty());
    }

    #[test]
    fn subtree_extraction_preserves_weights() {
        let t = chain3();
        let (sub, map) = t.subtree(NodeId(1));
        assert_eq!(sub.len(), 2);
        assert_eq!(sub.root(), NodeId(0));
        assert_eq!(map[0], NodeId(1));
        assert_eq!(sub.work(NodeId(0)), 2.0);
        assert_eq!(sub.output(NodeId(1)), 30.0);
        assert_eq!(sub.parent(NodeId(1)), Some(NodeId(0)));
    }

    #[test]
    fn subtree_nodes_into_matches_the_clone_map() {
        let t = TaskTree::pebble_from_parents(&[None, Some(0), Some(0), Some(1), Some(1), Some(2)])
            .unwrap();
        let mut stack = Vec::new();
        let mut nodes = Vec::new();
        for r in t.ids() {
            let (_, map) = t.subtree(r);
            t.subtree_nodes_into(r, &mut stack, &mut nodes);
            assert_eq!(nodes, map, "root {r:?}");
        }
    }

    #[test]
    fn subtree_view_accessors() {
        let t = TaskTree::pebble_from_parents(&[None, Some(0), Some(0), Some(1), Some(1)]).unwrap();
        let mut stack = Vec::new();
        let mut nodes = Vec::new();
        t.subtree_nodes_into(NodeId(1), &mut stack, &mut nodes);
        let view = SubtreeView::new(&t, &nodes);
        assert_eq!(view.root(), NodeId(1));
        assert_eq!(view.len(), 3);
        assert!(!view.is_empty());
        assert_eq!(view.children(NodeId(1)), &[NodeId(3), NodeId(4)]);
        assert!(std::ptr::eq(view.tree(), &t));
        assert_eq!(view.nodes()[0], NodeId(1));
    }

    /// Trees whose fingerprints are pinned below.
    fn pinned_trees() -> Vec<TaskTree> {
        vec![
            TaskTree::chain(5, 1.0, 1.0, 0.0),
            TaskTree::fork(4, 2.0, 1.0, 0.5),
            TaskTree::complete(3, 3, 1.0, 2.0, 0.5),
            TaskTree::from_parents(
                &[None, Some(0), Some(0), Some(1), Some(1), Some(2)],
                &[1.5, 2.0, 0.0, 3.0, 1e16, 0.25],
                &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0],
                &[0.0, 0.5, 0.0, 0.0, 1.0, 0.0],
            )
            .unwrap(),
        ]
    }

    #[test]
    fn fingerprints_of_ascending_trees_are_pinned() {
        // trees with ascending child lists hash by parents and weights
        // alone; serving routes on these values, so they must not drift
        let fps: Vec<u64> = pinned_trees().iter().map(TaskTree::fingerprint).collect();
        assert_eq!(
            fps,
            [
                0x4eea0e5cd56dc1cd,
                0x2176369cd41c94cf,
                0x7adc6d90af541f73,
                0xc1e51b2a2da76769
            ]
        );
    }

    #[test]
    fn fingerprint_covers_child_order() {
        let asc =
            TaskTree::pebble_from_parents(&[None, Some(0), Some(0), Some(1), Some(1)]).unwrap();
        let mut nodes: Vec<Node> = asc
            .ids()
            .map(|i| Node {
                parent: asc.parent(i),
                children: asc.children(i).to_vec(),
                work: asc.work(i),
                output: asc.output(i),
                exec: asc.exec(i),
            })
            .collect();
        nodes[1].children.reverse();
        let desc = TaskTree::from_nodes(nodes, asc.root());
        assert_eq!(desc.parent, asc.parent);
        assert_ne!(desc.fingerprint(), asc.fingerprint());
    }

    #[test]
    fn setters_reset_the_memo() {
        type Setter = fn(&mut TaskTree, NodeId, f64);
        let setters: [(Setter, usize); 3] = [
            (TaskTree::set_work, 0),
            (TaskTree::set_output, 1),
            (TaskTree::set_exec, 2),
        ];
        // a stand-in traversal whose peak reads the changed column
        let traversal = |t: &TaskTree| {
            let sum = |i: NodeId| t.work(i) + t.output(i) + t.exec(i);
            (t.postorder(), t.ids().map(sum).sum())
        };
        for (set, column) in setters {
            let mut t = TaskTree::complete(2, 3, 1.0, 2.0, 0.5);
            let (fp, cp) = (t.fingerprint(), t.critical_path());
            let _ = (t.depths(), t.subtree_work());
            for slot in 0..TRAVERSAL_SLOTS {
                assert!(t.memo_traversal(slot, traversal).1);
                assert!(!t.memo_traversal(slot, traversal).1);
            }
            let peak = t.memo_traversal(0, traversal).0.peak;
            let leaf = t.leaves()[0];
            set(&mut t, leaf, 7.0);
            for slot in 0..TRAVERSAL_SLOTS {
                let (memo, computed) = t.memo_traversal(slot, traversal);
                assert!(computed, "column {column}, slot {slot}");
                assert_ne!(memo.peak, peak);
                let clone = t.clone(); // an empty memo
                assert_eq!(memo, clone.memo_traversal(slot, traversal).0);
                for (k, v) in memo.order.iter().enumerate() {
                    assert_eq!(memo.pos[v.index()], k as u32);
                }
            }
            // the same tree, built fresh with the new weight
            let mut cols: [Vec<f64>; 3] = [
                t.ids().map(|i| t.work(i)).collect(),
                t.ids().map(|i| t.output(i)).collect(),
                t.ids().map(|i| t.exec(i)).collect(),
            ];
            cols[column][leaf.index()] = 7.0;
            let parents: Vec<Option<usize>> =
                t.ids().map(|i| t.parent(i).map(NodeId::index)).collect();
            let fresh = TaskTree::from_parents(&parents, &cols[0], &cols[1], &cols[2]).unwrap();
            assert_eq!(t, fresh);
            assert_ne!(t.fingerprint(), fp, "column {column}");
            assert_eq!(t.fingerprint(), fresh.fingerprint(), "column {column}");
            assert_eq!(t.critical_path(), fresh.critical_path(), "column {column}");
            assert_eq!(t.weighted_depths(), fresh.weighted_depths());
            assert_eq!(t.subtree_work(), fresh.subtree_work());
            assert_eq!(t.depths(), fresh.depths());
            if column == 0 {
                assert_ne!(t.critical_path(), cp);
            }
        }
    }

    #[test]
    fn the_memo_is_not_part_of_the_value() {
        for cold in pinned_trees() {
            let warm = cold.clone();
            let (fp, cp) = (warm.fingerprint(), warm.critical_path());
            warm.memo_traversal(0, |t| (t.postorder(), 1.0));
            assert_eq!(warm, cold);
            assert_eq!(format!("{warm:?}"), format!("{cold:?}"));
            assert!(!format!("{warm:?}").contains("memo"));
            let (warm_clone, cold_clone) = (warm.clone(), cold.clone());
            assert_eq!(warm_clone, cold_clone);
            assert!(warm_clone.memo.fingerprint.get().is_none());
            assert!(warm_clone.memo.traversals[0].get().is_none());
            assert_eq!(warm_clone.fingerprint(), fp);
            assert_eq!(cold_clone.critical_path().to_bits(), cp.to_bits());
            assert_eq!(cold.fingerprint(), fp);
        }
    }

    #[test]
    fn trees_stay_send_and_sync() {
        fn shared<T: Send + Sync>() {}
        shared::<TaskTree>();
        let t = std::sync::Arc::new(TaskTree::complete(2, 6, 1.0, 1.0, 0.0));
        let fps: Vec<u64> = (0..2)
            .map(|_| {
                let t = std::sync::Arc::clone(&t);
                std::thread::spawn(move || t.fingerprint())
            })
            .map(|h| h.join().unwrap())
            .collect();
        assert_eq!(fps, [t.fingerprint(); 2]);
    }

    #[test]
    fn pebble_weights() {
        let t = TaskTree::pebble_from_parents(&[None, Some(0), Some(0)]).unwrap();
        for i in t.ids() {
            assert_eq!(t.work(i), 1.0);
            assert_eq!(t.output(i), 1.0);
            assert_eq!(t.exec(i), 0.0);
        }
        assert_eq!(t.local_need(t.root()), 3.0);
    }
}
