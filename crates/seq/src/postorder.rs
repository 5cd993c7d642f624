//! Postorder traversals: naive and memory-optimal (Liu 1986).
//!
//! For a *postorder* traversal each subtree is processed contiguously. Liu
//! \[13\] showed that the peak of the best postorder of the subtree rooted at
//! `i` satisfies
//!
//! ```text
//! P_i = max( max_j ( Σ_{l<j} f_{c_l} + P_{c_j} ),  Σ_l f_{c_l} + n_i + f_i )
//! ```
//!
//! where the children `c_1 … c_k` are visited in **non-increasing
//! `P_j − f_j`** order, and that this order is optimal among postorders.
//! The paper's experiments (§6.1) use this `O(n log n)` traversal as the
//! sequential memory reference, having observed it is optimal in 95.8% of
//! their instances and within 1% on average.

use crate::TraversalResult;
use treesched_model::{NodeId, SubtreeView, TaskTree};

/// Peak memory of the postorder induced by the stored child order.
///
/// This is the baseline a fill-reducing ordering would give "for free";
/// [`best_postorder`] is never worse.
pub fn naive_postorder(tree: &TaskTree) -> TraversalResult {
    let order = tree.postorder();
    let peak = crate::peak_of_order(tree, &order).expect("tree postorder is topological");
    TraversalResult { order, peak }
}

/// Liu's memory-optimal postorder (1986): children in non-increasing
/// `P_j − f_j`. Returns the explicit order and its peak.
pub fn best_postorder(tree: &TaskTree) -> TraversalResult {
    let (peaks, sorted_children) = postorder_peaks(tree);
    // Emit the traversal following the sorted child lists, iteratively.
    let mut order = Vec::with_capacity(tree.len());
    // Two-stack postorder on the re-ordered tree.
    let mut stack = vec![tree.root()];
    while let Some(v) = stack.pop() {
        order.push(v);
        stack.extend_from_slice(&sorted_children[v.index()]);
    }
    order.reverse();
    TraversalResult {
        order,
        peak: peaks[tree.root().index()],
    }
}

/// Computes `P_i` for every node plus each node's children sorted by
/// non-increasing `P_j − f_j` (ties broken by id for determinism).
fn postorder_peaks(tree: &TaskTree) -> (Vec<f64>, Vec<Vec<NodeId>>) {
    let n = tree.len();
    let mut peaks = vec![0.0f64; n];
    let mut sorted_children: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for v in tree.postorder() {
        let vi = v.index();
        if tree.is_leaf(v) {
            peaks[vi] = tree.exec(v) + tree.output(v);
            continue;
        }
        let mut kids: Vec<NodeId> = tree.children(v).to_vec();
        kids.sort_by(|&a, &b| {
            let ka = peaks[a.index()] - tree.output(a);
            let kb = peaks[b.index()] - tree.output(b);
            kb.partial_cmp(&ka)
                .expect("weights are finite")
                .then(a.cmp(&b))
        });
        let mut acc = 0.0f64; // Σ of already-produced children files
        let mut peak = 0.0f64;
        for &c in &kids {
            let during_child = acc + peaks[c.index()];
            if during_child > peak {
                peak = during_child;
            }
            acc += tree.output(c);
        }
        let during_self = acc + tree.exec(v) + tree.output(v);
        if during_self > peak {
            peak = during_self;
        }
        peaks[vi] = peak;
        sorted_children[vi] = kids;
    }
    (peaks, sorted_children)
}

/// Reusable buffers for the allocation-free subtree traversals
/// ([`best_postorder_view`], [`naive_postorder_view`]).
///
/// The per-node buffers are sized to the **parent** tree and indexed by
/// original node id; they are *not* cleared between calls — every member
/// node of a view is written before it is read within one call, so stale
/// entries from other subtrees (or other trees of the same size) are
/// never observed. A warm scratch makes repeated subtree traversals
/// allocation-free.
#[derive(Clone, Debug, Default)]
pub struct ViewScratch {
    /// Local id of each original node: its position in the view's node
    /// list, i.e. the id it would get in the [`TaskTree::subtree`] clone.
    vid: Vec<u32>,
    /// Liu peak `P_i` of the subtree below each member node.
    peaks: Vec<f64>,
    /// Flattened sorted-children segments of the current view.
    child_buf: Vec<NodeId>,
    /// Per member node: its segment of `child_buf` as `(start, end)`.
    ranges: Vec<(u32, u32)>,
    /// DFS stack for the emission pass.
    stack: Vec<NodeId>,
}

impl ViewScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> ViewScratch {
        ViewScratch::default()
    }

    fn grow(&mut self, n: usize) {
        if self.vid.len() < n {
            self.vid.resize(n, 0);
            self.peaks.resize(n, 0.0);
            self.ranges.resize(n, (0, 0));
        }
    }
}

/// Liu's memory-optimal postorder of a subtree view, emitted into `out`
/// as **original** node ids.
///
/// The traversal is exactly [`best_postorder`] of the
/// [`TaskTree::subtree`] clone mapped back through the clone's id map:
/// ties in the `P_j − f_j` child order break on the clone-local id (the
/// node's position in the view), not the original id, so the emitted
/// sequence is bit-for-bit the one the clone-based path produces.
pub fn best_postorder_view(
    view: &SubtreeView<'_>,
    scratch: &mut ViewScratch,
    out: &mut Vec<NodeId>,
) {
    let tree = view.tree();
    let nodes = view.nodes();
    scratch.grow(tree.len());
    let ViewScratch {
        vid,
        peaks,
        child_buf,
        ranges,
        stack,
    } = scratch;
    for (k, &v) in nodes.iter().enumerate() {
        vid[v.index()] = k as u32;
    }
    child_buf.clear();
    // The view lists parents before children (DFS preorder), so the
    // reverse is a valid bottom-up order for the Liu recurrence.
    for &v in nodes.iter().rev() {
        let vi = v.index();
        let kids = tree.children(v);
        if kids.is_empty() {
            let end = child_buf.len() as u32;
            ranges[vi] = (end, end);
            peaks[vi] = tree.exec(v) + tree.output(v);
            continue;
        }
        let start = child_buf.len();
        child_buf.extend_from_slice(kids);
        child_buf[start..].sort_by(|&a, &b| {
            let ka = peaks[a.index()] - tree.output(a);
            let kb = peaks[b.index()] - tree.output(b);
            kb.partial_cmp(&ka)
                .expect("weights are finite")
                .then(vid[a.index()].cmp(&vid[b.index()]))
        });
        let mut acc = 0.0f64; // Σ of already-produced children files
        let mut peak = 0.0f64;
        for &c in &child_buf[start..] {
            let during_child = acc + peaks[c.index()];
            if during_child > peak {
                peak = during_child;
            }
            acc += tree.output(c);
        }
        let during_self = acc + tree.exec(v) + tree.output(v);
        if during_self > peak {
            peak = during_self;
        }
        ranges[vi] = (start as u32, child_buf.len() as u32);
        peaks[vi] = peak;
    }
    // Two-stack postorder over the sorted child segments.
    out.clear();
    stack.clear();
    stack.push(view.root());
    while let Some(v) = stack.pop() {
        out.push(v);
        let (s, e) = ranges[v.index()];
        stack.extend_from_slice(&child_buf[s as usize..e as usize]);
    }
    out.reverse();
}

/// Postorder of a subtree view induced by the stored child order, emitted
/// into `out` as **original** node ids — the allocation-free equivalent
/// of [`naive_postorder`] on the [`TaskTree::subtree`] clone.
pub fn naive_postorder_view(
    view: &SubtreeView<'_>,
    scratch: &mut ViewScratch,
    out: &mut Vec<NodeId>,
) {
    let tree = view.tree();
    out.clear();
    scratch.stack.clear();
    scratch.stack.push(view.root());
    while let Some(v) = scratch.stack.pop() {
        out.push(v);
        scratch.stack.extend_from_slice(tree.children(v));
    }
    out.reverse();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::peak_of_order;
    use treesched_model::{TaskTree, TreeBuilder};

    #[test]
    fn leaf_peak_is_program_plus_output() {
        let t = TaskTree::chain(1, 1.0, 5.0, 3.0);
        assert_eq!(best_postorder(&t).peak, 8.0);
    }

    #[test]
    fn reported_peak_matches_simulator() {
        let mut b = TreeBuilder::new();
        let r = b.node(1.0, 2.0, 1.0);
        let a = b.child(r, 1.0, 5.0, 0.0);
        b.child(a, 1.0, 7.0, 2.0);
        b.child(a, 1.0, 1.0, 0.0);
        let c = b.child(r, 1.0, 3.0, 1.0);
        b.child(c, 1.0, 4.0, 0.0);
        let t = b.build().unwrap();
        let res = best_postorder(&t);
        assert_eq!(peak_of_order(&t, &res.order).unwrap(), res.peak);
        assert!(t.is_topological(&res.order));
        let nv = naive_postorder(&t);
        assert_eq!(peak_of_order(&t, &nv.order).unwrap(), nv.peak);
        assert!(res.peak <= nv.peak);
    }

    #[test]
    fn child_order_matters_and_is_chosen_well() {
        // Two children: A with big peak & small file, B with small peak & big
        // file. Optimal postorder runs A first: peak = max(P_A, f_A + P_B, ...).
        let mut b = TreeBuilder::new();
        let r = b.node(1.0, 1.0, 0.0);
        // child A: leaf with huge program (peak 10, file 1)
        b.child(r, 1.0, 1.0, 9.0);
        // child B: leaf with big file (peak 5, file 5)
        b.child(r, 1.0, 5.0, 0.0);
        let t = b.build().unwrap();
        // A first: max(10, 1+5, 1+5+0+1) = 10. B first: max(5, 5+10) = 15.
        assert_eq!(best_postorder(&t).peak, 10.0);
    }

    #[test]
    fn naive_vs_best_on_adversarial_child_order() {
        // Build with the bad child order first: naive must be worse.
        let mut b = TreeBuilder::new();
        let r = b.node(1.0, 1.0, 0.0);
        b.child(r, 1.0, 5.0, 0.0); // big file child inserted first
        b.child(r, 1.0, 1.0, 9.0); // big peak child second
        let t = b.build().unwrap();
        assert_eq!(naive_postorder(&t).peak, 15.0);
        assert_eq!(best_postorder(&t).peak, 10.0);
    }

    #[test]
    fn pebble_fork_peak_counts_all_leaves() {
        // In the pebble-game model a postorder of a fork must hold all leaf
        // results before firing the root.
        let t = TaskTree::fork(6, 1.0, 1.0, 0.0);
        assert_eq!(best_postorder(&t).peak, 7.0);
    }

    #[test]
    fn liu_1986_recurrence_by_hand() {
        // node r with children x (P=6, f=2) and y (P=5, f=4):
        //   order by P-f: x (4) then y (1)
        //   P_r = max(6, 2+5, 2+4+n_r+f_r) with n_r = 0, f_r = 1 -> max(6,7,7) = 7
        let mut b = TreeBuilder::new();
        let r = b.node(1.0, 1.0, 0.0);
        let x = b.child(r, 1.0, 2.0, 0.0);
        b.child(x, 1.0, 6.0, 0.0); // P_x = max(6, 6-6+... ) -> leaf peak 6, then x: 6 vs 6+0+2=8? recompute
        let y = b.child(r, 1.0, 4.0, 0.0);
        b.child(y, 1.0, 5.0, 0.0);
        let t = b.build().unwrap();
        // P_leaf_x = 6; P_x = max(6, 6 + 0 + 2) = 8; f_x = 2
        // P_leaf_y = 5; P_y = max(5, 5 + 0 + 4) = 9; f_y = 4
        // order children of r by P-f: x: 8-2 = 6, y: 9-4 = 5 -> x first
        // P_r = max(8, 2 + 9, 2 + 4 + 0 + 1) = 11
        assert_eq!(best_postorder(&t).peak, 11.0);
    }

    #[test]
    fn deep_tree_runs_iteratively() {
        let t = TaskTree::chain(150_000, 1.0, 1.0, 0.0);
        let res = best_postorder(&t);
        assert_eq!(res.peak, 2.0);
        assert_eq!(res.order.len(), 150_000);
    }

    /// The view traversal of every subtree must be the clone traversal
    /// mapped back through the clone's id map — including on pebble
    /// weights, where every sibling ties in `P_j − f_j` and the clone
    /// tie-break (clone-local ids, which reverse sibling order) differs
    /// from an original-id tie-break.
    #[test]
    fn view_traversals_match_the_clone_path_on_every_subtree() {
        let mut zoo = vec![
            TaskTree::fork(7, 1.0, 1.0, 0.0),
            TaskTree::chain(12, 2.0, 1.0, 0.5),
            TaskTree::complete(2, 4, 1.0, 1.0, 0.0),
            TaskTree::complete(3, 3, 1.0, 2.0, 0.5),
        ];
        let mut b = TreeBuilder::new();
        let r = b.node(1.0, 2.0, 1.0);
        let a = b.child(r, 1.0, 5.0, 0.0);
        b.child(a, 1.0, 7.0, 2.0);
        b.child(a, 1.0, 1.0, 0.0);
        let c = b.child(r, 1.0, 3.0, 1.0);
        b.child(c, 1.0, 4.0, 0.0);
        b.pebble_leaves(c, 3);
        zoo.push(b.build().unwrap());

        let mut scratch = ViewScratch::new();
        let mut stack = Vec::new();
        let mut members = Vec::new();
        let mut got = Vec::new();
        for tree in &zoo {
            for r in tree.ids() {
                let (sub, map) = tree.subtree(r);
                tree.subtree_nodes_into(r, &mut stack, &mut members);
                let view = treesched_model::SubtreeView::new(tree, &members);

                let want: Vec<_> = best_postorder(&sub)
                    .order
                    .iter()
                    .map(|v| map[v.index()])
                    .collect();
                best_postorder_view(&view, &mut scratch, &mut got);
                assert_eq!(got, want, "best, root {r:?}");

                let want: Vec<_> = naive_postorder(&sub)
                    .order
                    .iter()
                    .map(|v| map[v.index()])
                    .collect();
                naive_postorder_view(&view, &mut scratch, &mut got);
                assert_eq!(got, want, "naive, root {r:?}");
            }
        }
    }

    /// A warm scratch carries no state between subtrees (or trees): the
    /// same call on the same view yields the same order after the scratch
    /// was dragged through unrelated trees.
    #[test]
    fn view_scratch_is_reusable_across_trees() {
        let a = TaskTree::fork(5, 1.0, 1.0, 0.0);
        let b = TaskTree::complete(2, 3, 1.0, 2.0, 0.5);
        let mut scratch = ViewScratch::new();
        let mut stack = Vec::new();
        let mut members = Vec::new();
        let mut first = Vec::new();
        let mut again = Vec::new();
        a.subtree_nodes_into(a.root(), &mut stack, &mut members);
        best_postorder_view(
            &treesched_model::SubtreeView::new(&a, &members),
            &mut scratch,
            &mut first,
        );
        b.subtree_nodes_into(b.root(), &mut stack, &mut members);
        best_postorder_view(
            &treesched_model::SubtreeView::new(&b, &members),
            &mut scratch,
            &mut again,
        );
        a.subtree_nodes_into(a.root(), &mut stack, &mut members);
        best_postorder_view(
            &treesched_model::SubtreeView::new(&a, &members),
            &mut scratch,
            &mut again,
        );
        assert_eq!(first, again);
        // and the order is still the clone path's (mapped through its map)
        let (sub, map) = a.subtree(a.root());
        let want: Vec<_> = best_postorder(&sub)
            .order
            .iter()
            .map(|v| map[v.index()])
            .collect();
        assert_eq!(first, want);
    }
}
