//! `SplitSubtrees` (paper Algorithm 2): makespan-optimal splitting of the
//! tree into subtrees for [`crate::heuristics::par_subtrees`].
//!
//! The splitting process repeatedly replaces the heaviest subtree (by total
//! work `W`) with its children, recording after each step the predicted
//! `ParSubtrees` makespan
//!
//! ```text
//! Cmax(s) = W_head(PQ) + Σ_{i ∈ seqSet} w_i + Σ_{i = PQ[p+1..]} W_i
//! ```
//!
//! i.e. the heaviest remaining subtree (parallel phase) plus all popped
//! nodes and all *surplus* subtrees beyond the `p` largest (sequential
//! phase). The recorded splitting with minimal cost is returned; by the
//! paper's Lemma 1 it is makespan-optimal for the `ParSubtrees` scheme.
//!
//! Only the surplus sum depends on `p`: the pop sequence, the popped work
//! and the head are the same for every processor count. So the work is
//! cut in two:
//!
//! * a **per-tree pass**, memoized in the tree ([`TaskTree::memo_split`]),
//!   ranks every node by its queue key `(W, w, id)` as a `u32` and pops
//!   the queue to the end, recording its head at every step. `O(n log n)`:
//!   one sort and `O(n)` heap operations.
//! * a **per-request replay** runs the pop sequence over two heaps of
//!   ranks: the `p` largest queued keys (minimum first, to find the key a
//!   larger newcomer pushes out) and the rest (maximum first, to find the
//!   key promoted when the head is popped), keeping the running surplus
//!   sum. Popped nodes leave the top-`p` heap lazily: their entries are
//!   skipped when they surface. The sum adds and subtracts the same
//!   elements in the same order as a queue of keys would, so every cost is
//!   bit-identical. The chosen splitting is the queue after the best step,
//!   rebuilt from the first pops and sorted once. `O(n)` heap operations
//!   and no sort of all keys, so `O(n log n)` (stale entries can grow the
//!   top-`p` heap past `p`), plus `O(q log q)` for the `q` subtrees of the
//!   chosen step.
//!
//! Against the paper's `O(n(log n + p))` per call, both halves are
//! `O(n log n)` for any `p`, and a request on a tree whose pass is
//! memoized pays only the replay.

use crate::listsched::TotalF64;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use treesched_model::{MemoSplit, NodeId, TaskTree};

/// Priority-queue key: non-increasing `W_i`, ties by non-increasing `w_i`
/// (paper §5.1), final tie by id. The largest key is the head.
type Key = (TotalF64, TotalF64, u32);

/// Reusable buffers of the per-request replay: the queue as two heaps of
/// ranks, the running `Σ W` beyond the `p` largest, and the chosen step's
/// queue. Held by [`crate::SubtreeScratch`], so a warm caller splits
/// without re-allocating them, and the per-tree pass borrows them too, so
/// the only arrays it allocates are the ones the tree keeps.
#[derive(Clone, Debug, Default)]
pub(crate) struct SplitScratch {
    /// The ranks of the `p` largest queued keys, minimum first, plus stale
    /// entries of popped nodes (skipped when they surface).
    top: BinaryHeap<Reverse<u32>>,
    /// Live entries in `top`.
    top_len: usize,
    /// The ranks of the queued keys beyond the `p` largest, maximum first;
    /// the whole queue during the per-tree pass.
    rest: BinaryHeap<u32>,
    /// Running `Σ W_i` over `rest`, in the order elements enter and leave.
    rest_w_sum: f64,
    /// `true` for the ranks of popped nodes while a split runs; all
    /// `false` between calls.
    gone: Vec<bool>,
    /// The ranks queued after the best step, largest first; the heads'
    /// ranks during the per-tree pass.
    frontier: Vec<u32>,
    /// Every node's key, sorted by the per-tree pass.
    keys: Vec<Key>,
}

impl SplitScratch {
    fn reset(&mut self, n: usize) {
        self.top.clear();
        self.top_len = 0;
        self.rest.clear();
        self.rest_w_sum = 0.0;
        if self.gone.len() < n {
            self.gone.resize(n, false);
        }
    }

    /// Queues rank `k`, keeping `top` at the `p` largest; `w` reads a
    /// rank's `W`.
    fn insert(&mut self, p: usize, k: u32, w: impl Fn(u32) -> f64) {
        // invariant: `rest` is nonempty only while `top` holds `p` elements,
        // so filling `top` first never strands a larger key in `rest`
        debug_assert!(self.rest.is_empty() || self.top_len == p);
        if self.top_len < p {
            self.top.push(Reverse(k));
            self.top_len += 1;
            return;
        }
        while self.gone[self.top.peek().expect("top nonempty when full").0 as usize] {
            self.top.pop();
        }
        let mut min_top = self.top.peek_mut().expect("top nonempty when full");
        let Reverse(min) = *min_top;
        // the smaller of `k` and the top's minimum goes to the rest
        let demoted = if k > min {
            *min_top = Reverse(k);
            min
        } else {
            k
        };
        drop(min_top);
        self.rest.push(demoted);
        self.rest_w_sum += w(demoted);
    }

    /// Pops the head `k` (the largest key, always in `top`) and promotes
    /// the largest of `rest`.
    fn pop_head(&mut self, k: u32, w: impl Fn(u32) -> f64) {
        self.gone[k as usize] = true;
        self.top_len -= 1;
        if let Some(promote) = self.rest.pop() {
            self.rest_w_sum -= w(promote);
            self.top.push(Reverse(promote));
            self.top_len += 1;
        }
    }
}

/// Result of `SplitSubtrees`.
#[derive(Clone, Debug, PartialEq)]
pub struct Split {
    /// Roots of the `q ≤ p` subtrees processed in parallel, by
    /// non-increasing `W`.
    pub parallel_roots: Vec<NodeId>,
    /// Roots of the surplus subtrees (beyond the `p` largest), processed
    /// sequentially, by non-increasing `W`.
    pub surplus_roots: Vec<NodeId>,
    /// Nodes popped into the sequential set (the "top" of the tree, where
    /// the parallel subtrees merge), in pop order.
    pub seq_nodes: Vec<NodeId>,
    /// Predicted `ParSubtrees` makespan of this splitting (equals the real
    /// makespan of the schedule built from it).
    pub cost: f64,
    /// Number of pop steps performed to reach this splitting.
    pub steps: usize,
}

fn key_of(tree: &TaskTree, subtree_w: &[f64], v: NodeId) -> Key {
    (
        TotalF64(subtree_w[v.index()]),
        TotalF64(tree.work(v)),
        // larger id = larger key; irrelevant for correctness, fixes ties
        v.0,
    )
}

/// The per-tree pass: ranks every node by its key, then pops the queue
/// (the head is its largest rank) until the head is a single task,
/// recording every head.
fn split_pass(tree: &TaskTree, subtree_w: &[f64], pq: &mut SplitScratch) -> MemoSplit {
    let SplitScratch {
        rest: queue,
        frontier: heads,
        keys,
        ..
    } = pq;
    keys.clear();
    keys.extend(tree.ids().map(|v| key_of(tree, subtree_w, v)));
    keys.sort_unstable();
    let by_rank: Vec<NodeId> = keys.iter().map(|k| NodeId(k.2)).collect();
    let mut rank = vec![0u32; tree.len()];
    for (r, v) in by_rank.iter().enumerate() {
        rank[v.index()] = r as u32;
    }
    queue.clear();
    queue.push(rank[tree.root().index()]);
    heads.clear();
    loop {
        // a popped node has `W > w`, so it has children
        let top = *queue.peek().expect("queue never empties");
        heads.push(top);
        let head = by_rank[top as usize];
        if subtree_w[head.index()] <= tree.work(head) {
            break; // head subtree is a single task (or zero-work chain)
        }
        queue.pop();
        queue.extend(tree.children(head).iter().map(|c| rank[c.index()]));
    }
    MemoSplit {
        heads: heads.iter().map(|&r| by_rank[r as usize]).collect(),
        rank,
        by_rank,
    }
}

/// Runs Algorithm 2 and returns the cost-minimal splitting. The per-tree
/// pass is memoized in `tree`, so later calls, at any `p`, only replay it.
///
/// # Panics
///
/// Panics when `p == 0`.
pub fn split_subtrees(tree: &TaskTree, p: usize) -> Split {
    split_subtrees_in(tree, p, &mut SplitScratch::default())
}

/// [`split_subtrees`] with caller-supplied subtree weights
/// (`tree.subtree_work()`): runs the per-tree pass over them afresh, then
/// the same replay.
///
/// # Panics
///
/// Panics when `p == 0`.
pub fn split_subtrees_with_work(tree: &TaskTree, p: usize, subtree_w: &[f64]) -> Split {
    let mut pq = SplitScratch::default();
    let pass = split_pass(tree, subtree_w, &mut pq);
    replay(tree, &pass, subtree_w, p, &mut pq)
}

/// [`split_subtrees`] over reused buffers.
pub(crate) fn split_subtrees_in(tree: &TaskTree, p: usize, pq: &mut SplitScratch) -> Split {
    let subtree_w = tree.subtree_work();
    let pass = tree.memo_split(|tree| split_pass(tree, subtree_w, pq));
    replay(tree, pass, subtree_w, p, pq)
}

/// The per-request replay of `pass` at `p` processors.
fn replay(
    tree: &TaskTree,
    pass: &MemoSplit,
    subtree_w: &[f64],
    p: usize,
    pq: &mut SplitScratch,
) -> Split {
    assert!(p > 0, "need at least one processor");
    let MemoSplit {
        rank,
        by_rank,
        heads,
    } = pass;
    let w = |r: u32| subtree_w[by_rank[r as usize].index()];
    let rank_of = |v: NodeId| rank[v.index()];
    let root = tree.root();
    pq.reset(tree.len());
    pq.insert(p, rank_of(root), w);
    let mut seq_w = 0.0f64;
    let mut best = (0usize, subtree_w[root.index()]);
    // every step is scored: the surplus sum is a running float sum that can
    // fall below its true value, so no cost bound ends the pass early
    for (step, pair) in heads.windows(2).enumerate() {
        let (v, head) = (pair[0], pair[1]);
        pq.pop_head(rank_of(v), w);
        seq_w += tree.work(v);
        for &c in tree.children(v) {
            pq.insert(p, rank_of(c), w);
        }
        let cost = subtree_w[head.index()] + seq_w + pq.rest_w_sum;
        if cost < best.1 {
            best = (step + 1, cost);
        }
    }
    let pops = &heads[..heads.len() - 1];
    let (steps, cost) = best;

    // the queue after `steps` pops: the root, or the children of the first
    // `steps` pops that are not among them
    let SplitScratch { gone, frontier, .. } = pq;
    for &v in &pops[steps..] {
        gone[rank_of(v) as usize] = false;
    }
    frontier.clear();
    if steps == 0 {
        frontier.push(rank_of(root));
    }
    for &v in &pops[..steps] {
        frontier.extend(
            tree.children(v)
                .iter()
                .map(|&c| rank_of(c))
                .filter(|&r| !gone[r as usize]),
        );
    }
    for &v in &pops[..steps] {
        gone[rank_of(v) as usize] = false;
    }
    frontier.sort_unstable_by(|a, b| b.cmp(a));
    let (top, rest) = frontier.split_at(p.min(frontier.len()));
    let nodes =
        |ranks: &[u32]| -> Vec<NodeId> { ranks.iter().map(|&r| by_rank[r as usize]).collect() };
    Split {
        parallel_roots: nodes(top),
        surplus_roots: nodes(rest),
        seq_nodes: pops[..steps].to_vec(),
        cost,
        steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treesched_model::{TaskTree, TreeBuilder};

    #[test]
    fn single_node_no_split() {
        let t = TaskTree::chain(1, 3.0, 1.0, 0.0);
        let s = split_subtrees(&t, 4);
        assert_eq!(s.parallel_roots, vec![t.root()]);
        assert!(s.surplus_roots.is_empty());
        assert!(s.seq_nodes.is_empty());
        assert_eq!(s.cost, 3.0);
    }

    /// Paper Figure 3: a fork with `p·k` unit leaves. The chosen splitting
    /// pops the root and costs `p(k-1) + 2`.
    #[test]
    fn fork_split_matches_paper() {
        let (p, k) = (3usize, 4usize);
        let t = TaskTree::fork(p * k, 1.0, 1.0, 0.0);
        let s = split_subtrees(&t, p);
        assert_eq!(s.seq_nodes, vec![t.root()]);
        assert_eq!(s.parallel_roots.len(), p);
        assert_eq!(s.surplus_roots.len(), p * k - p);
        assert_eq!(s.cost, (p * (k - 1) + 2) as f64);
    }

    #[test]
    fn balanced_binary_splits_to_fill_processors() {
        // complete binary tree, 2 processors: splitting once gives two equal
        // subtrees
        let t = TaskTree::complete(2, 3, 1.0, 1.0, 0.0);
        let s = split_subtrees(&t, 2);
        assert_eq!(s.seq_nodes.first(), Some(&t.root()));
        assert_eq!(s.parallel_roots.len(), 2);
        // each child subtree has 7 nodes; cost = 7 + 1 = 8 with no surplus
        assert_eq!(s.cost, 8.0);
        assert!(s.surplus_roots.is_empty());
    }

    #[test]
    fn chain_never_benefits_from_splitting() {
        // splitting a chain only adds sequential work
        let t = TaskTree::chain(10, 1.0, 1.0, 0.0);
        let s = split_subtrees(&t, 4);
        // cost of not splitting = 10; every split costs the same 10
        // (seq top + remaining chain), so the first recorded minimum (s=0)
        // wins
        assert_eq!(s.cost, 10.0);
        assert_eq!(s.steps, 0);
        assert_eq!(s.parallel_roots, vec![t.root()]);
    }

    #[test]
    fn ties_broken_by_node_work() {
        // two subtrees of equal W; the one whose root has larger w pops
        // first
        let mut b = TreeBuilder::new();
        let r = b.node(0.0, 1.0, 0.0);
        let a = b.child(r, 3.0, 1.0, 0.0); // W = 4, w = 3
        b.child(a, 1.0, 1.0, 0.0);
        let c = b.child(r, 1.0, 1.0, 0.0); // W = 4, w = 1
        b.child(c, 3.0, 1.0, 0.0);
        let t = b.build().unwrap();
        let s = split_subtrees(&t, 2);
        // after popping root (W=8 > w=0): PQ has a and c, both W=4.
        // head must be `a` (w=3 > w=1).
        assert!(s.seq_nodes.contains(&r));
        if s.seq_nodes.len() > 1 {
            assert_eq!(s.seq_nodes[1], a);
        }
    }

    #[test]
    fn cost_is_minimum_over_all_recorded_steps() {
        // brute-force check on a modest random-ish tree: replaying every
        // step and evaluating the cost formula directly
        let mut b = TreeBuilder::new();
        let r = b.node(2.0, 1.0, 0.0);
        let x = b.child(r, 5.0, 1.0, 0.0);
        let y = b.child(r, 3.0, 1.0, 0.0);
        for _ in 0..4 {
            b.child(x, 2.0, 1.0, 0.0);
        }
        for _ in 0..3 {
            b.child(y, 4.0, 1.0, 0.0);
        }
        let t = b.build().unwrap();
        let p = 2;
        let s = split_subtrees(&t, p);

        // naive replay computing every cost
        let w = t.subtree_work();
        let mut pq: Vec<NodeId> = vec![t.root()];
        let sortkey = |v: &NodeId| {
            (
                std::cmp::Reverse(TotalF64(w[v.index()])),
                std::cmp::Reverse(TotalF64(t.work(*v))),
            )
        };
        let mut seqw = 0.0;
        let mut best = w[t.root().index()];
        loop {
            pq.sort_by_key(|v| sortkey(v));
            let head = pq[0];
            if w[head.index()] <= t.work(head) {
                break;
            }
            pq.remove(0);
            seqw += t.work(head);
            pq.extend_from_slice(t.children(head));
            pq.sort_by_key(|v| sortkey(v));
            let head_w = pq.first().map_or(0.0, |v| w[v.index()]);
            let surplus: f64 = pq.iter().skip(p).map(|v| w[v.index()]).sum();
            let cost = head_w + seqw + surplus;
            if cost < best {
                best = cost;
            }
        }
        assert_eq!(s.cost, best);
    }

    #[test]
    fn parallel_roots_are_disjoint_subtrees_covering_rest() {
        let t = TaskTree::complete(3, 3, 1.0, 1.0, 0.0);
        let s = split_subtrees(&t, 4);
        // no parallel root is an ancestor of another
        let depths = t.depths();
        for &a in &s.parallel_roots {
            let mut anc = t.parent(a);
            while let Some(x) = anc {
                assert!(!s.parallel_roots.contains(&x));
                assert!(!s.surplus_roots.contains(&x));
                anc = t.parent(x);
            }
            let _ = depths;
        }
        // counts add up: seq nodes + all subtree sizes = n
        let sizes = t.subtree_sizes();
        let covered: usize = s
            .parallel_roots
            .iter()
            .chain(&s.surplus_roots)
            .map(|v| sizes[v.index()])
            .sum();
        assert_eq!(covered + s.seq_nodes.len(), t.len());
    }

    #[test]
    fn a_warm_scratch_splits_like_a_fresh_one() {
        // larger and smaller trees in turn, so stale marks or heap entries
        // of an earlier split would show
        let trees = [
            TaskTree::complete(3, 4, 1.0, 1.0, 0.0),
            TaskTree::fork(6, 2.0, 1.0, 0.0),
            TaskTree::complete(2, 6, 1.0, 1.0, 0.0),
            TaskTree::chain(4, 1.0, 1.0, 0.0),
        ];
        let mut warm = SplitScratch::default();
        for t in trees.iter().chain(trees.iter().rev()) {
            let w = t.subtree_work();
            for p in [1, 2, 3, 5, 64] {
                assert_eq!(
                    split_subtrees_in(t, p, &mut warm),
                    split_subtrees_with_work(t, p, w)
                );
                assert!(warm.gone.iter().all(|&g| !g));
            }
        }
    }

    #[test]
    fn more_processors_never_increase_cost() {
        let t = TaskTree::complete(2, 5, 1.0, 1.0, 0.0);
        let mut prev = f64::INFINITY;
        for p in [1, 2, 4, 8, 16] {
            let s = split_subtrees(&t, p);
            assert!(s.cost <= prev + 1e-9, "p={p}: {} > {prev}", s.cost);
            prev = s.cost;
        }
    }
}
