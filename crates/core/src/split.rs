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
//! Complexity: `O(n log n)` for any `p` (the paper's analysis gives
//! `O(n(log n + p))`): one pass of `O(n)` heap operations, then one sort
//! of the chosen splitting's subtree roots. `SplitScratch` keeps three binary
//! heaps over the queue: all of it (its maximum is the head), the `p`
//! largest elements (minimum first, to find the element a larger newcomer
//! pushes out) and the rest (maximum first, to find the element promoted
//! when the head is popped). Popped nodes leave the top-`p` heap lazily:
//! their entries are skipped when they surface. The pass records the pop
//! sequence; the chosen splitting is the queue after the best step,
//! rebuilt from the first pops and sorted once.

use crate::listsched::TotalF64;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use treesched_model::{NodeId, TaskTree};

/// Priority-queue key: non-increasing `W_i`, ties by non-increasing `w_i`
/// (paper §5.1), final tie by id. The largest key is the head.
type Key = (TotalF64, TotalF64, u32);

/// Reusable buffers of `SplitSubtrees`: the queue as three heaps, the
/// running `Σ W` beyond the `p` largest, and the pop sequence. Held by
/// [`crate::SubtreeScratch`], so a warm caller splits without re-allocating
/// the queue.
#[derive(Clone, Debug, Default)]
pub(crate) struct SplitScratch {
    /// Every queued key; its maximum is the head.
    queue: BinaryHeap<Key>,
    /// The `p` largest queued keys, minimum first, plus stale entries of
    /// popped nodes (skipped when they surface).
    top: BinaryHeap<Reverse<Key>>,
    /// Live entries in `top`.
    top_len: usize,
    /// The queued keys beyond the `p` largest, maximum first.
    rest: BinaryHeap<Key>,
    /// Running `Σ W_i` over `rest`, in the order elements enter and leave.
    rest_w_sum: f64,
    /// Popped nodes in pop order.
    popped: Vec<NodeId>,
    /// `true` for popped nodes while a split runs; all `false` between
    /// calls.
    gone: Vec<bool>,
    /// The queue after the best step, largest key first.
    frontier: Vec<Key>,
}

impl SplitScratch {
    fn reset(&mut self, n: usize) {
        self.queue.clear();
        self.top.clear();
        self.top_len = 0;
        self.rest.clear();
        self.rest_w_sum = 0.0;
        self.popped.clear();
        if self.gone.len() < n {
            self.gone.resize(n, false);
        }
    }

    /// Queues `k`, keeping `top` at the `p` largest keys.
    fn insert(&mut self, p: usize, k: Key) {
        self.queue.push(k);
        // invariant: `rest` is nonempty only while `top` holds `p` elements,
        // so filling `top` first never strands a larger key in `rest`
        debug_assert!(self.rest.is_empty() || self.top_len == p);
        if self.top_len < p {
            self.top.push(Reverse(k));
            self.top_len += 1;
            return;
        }
        while self.gone[self.top.peek().expect("top nonempty when full").0 .2 as usize] {
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
        self.rest_w_sum += demoted.0 .0;
    }

    /// The head of the queue: the globally largest key.
    fn head(&self) -> Option<Key> {
        self.queue.peek().copied()
    }

    /// Pops the head (always in `top`) and promotes the largest of `rest`.
    fn pop_head(&mut self) -> NodeId {
        let k = self.queue.pop().expect("pop from nonempty queue");
        let v = node_of(k);
        self.gone[v.index()] = true;
        self.popped.push(v);
        self.top_len -= 1;
        if let Some(promote) = self.rest.pop() {
            self.rest_w_sum -= promote.0 .0;
            self.top.push(Reverse(promote));
            self.top_len += 1;
        }
        v
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

/// Node id back out of a key.
fn node_of(k: Key) -> NodeId {
    NodeId(k.2)
}

/// Runs Algorithm 2 and returns the cost-minimal splitting.
///
/// # Panics
///
/// Panics when `p == 0`.
pub fn split_subtrees(tree: &TaskTree, p: usize) -> Split {
    let subtree_w = tree.subtree_work();
    split_subtrees_with_work(tree, p, &subtree_w)
}

/// [`split_subtrees`] with caller-supplied subtree weights
/// (`tree.subtree_work()`), so hot callers can reuse one computation across
/// processor counts and splitting passes.
///
/// # Panics
///
/// Panics when `p == 0`.
pub fn split_subtrees_with_work(tree: &TaskTree, p: usize, subtree_w: &[f64]) -> Split {
    split_subtrees_in(tree, p, subtree_w, &mut SplitScratch::default())
}

/// [`split_subtrees_with_work`] over reused buffers.
pub(crate) fn split_subtrees_in(
    tree: &TaskTree,
    p: usize,
    subtree_w: &[f64],
    pq: &mut SplitScratch,
) -> Split {
    assert!(p > 0, "need at least one processor");
    let key = |v: NodeId| key_of(tree, subtree_w, v);
    pq.reset(tree.len());
    pq.insert(p, key(tree.root()));
    let mut seq_w = 0.0f64;
    let mut best = (0usize, subtree_w[tree.root().index()]);
    // every step is scored: the surplus sum is a running float sum that can
    // fall below its true value, so no cost bound ends the pass early
    loop {
        let (TotalF64(w_sub), TotalF64(w_node), _) = pq.head().expect("queue never empties");
        if w_sub <= w_node {
            break; // head subtree is a single task (or zero-work chain)
        }
        let popped = pq.pop_head();
        seq_w += tree.work(popped);
        for &c in tree.children(popped) {
            pq.insert(p, key(c));
        }
        let head_w = pq.head().map_or(0.0, |k| k.0 .0);
        let cost = head_w + seq_w + pq.rest_w_sum;
        if cost < best.1 {
            best = (pq.popped.len(), cost);
        }
    }
    let (steps, cost) = best;

    // the queue after `steps` pops: the root, or the children of the first
    // `steps` pops that are not among them
    let SplitScratch {
        popped,
        gone,
        frontier,
        ..
    } = pq;
    for &v in &popped[steps..] {
        gone[v.index()] = false;
    }
    frontier.clear();
    if steps == 0 {
        frontier.push(key(tree.root()));
    }
    for &v in &popped[..steps] {
        frontier.extend(
            tree.children(v)
                .iter()
                .filter(|c| !gone[c.index()])
                .map(|&c| key(c)),
        );
    }
    for &v in &popped[..steps] {
        gone[v.index()] = false;
    }
    frontier.sort_unstable_by(|a, b| b.cmp(a));
    let (top, rest) = frontier.split_at(p.min(frontier.len()));
    Split {
        parallel_roots: top.iter().map(|&k| node_of(k)).collect(),
        surplus_roots: rest.iter().map(|&k| node_of(k)).collect(),
        seq_nodes: popped[..steps].to_vec(),
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
                    split_subtrees_in(t, p, &w, &mut warm),
                    split_subtrees_with_work(t, p, &w)
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
