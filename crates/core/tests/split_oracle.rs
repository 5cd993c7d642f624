//! `SplitSubtrees` against the two-pass ordered-set implementation it
//! replaced, kept here as the oracle.
//!
//! `TopP` and `reference_split` are the old code verbatim: a multiset
//! split into the `p` largest keys and the rest (two `BTreeSet`s with a
//! running surplus sum), run once to find the best step and again to
//! replay it. Every `Split` field must match, `cost` bit for bit, over
//! random trees (integer works with zeros, zero-work chains, equal-`W`
//! ties, works of mixed magnitude whose running sums round) at small,
//! tree-sized and huge processor counts, and over the medium corpus.
//! `split_subtrees_with_work` runs the per-tree pass afresh on every call;
//! `split_subtrees` replays the pass memoized in the tree, so one tree
//! also runs every processor count, shuffled, through that one pass.
//! Cases derive from `PROPTEST_SEED`; `PROPTEST_CASES` raises the count.

use proptest::prelude::*;
use std::collections::BTreeSet;
use treesched_core::listsched::TotalF64;
use treesched_core::{split_subtrees, split_subtrees_with_work, Split};
use treesched_gen::{assembly_corpus, Scale};
use treesched_model::{NodeId, TaskTree};

/// Priority-queue key: non-increasing `W_i`, ties by non-increasing `w_i`
/// (paper §5.1), final tie by id. Stored ascending; `last()` is the head.
type Key = (TotalF64, TotalF64, u32);

/// Ordered multiset split into the `p` largest elements (`top`) and the
/// rest, with running sums of `W` over each part.
struct TopP {
    p: usize,
    top: BTreeSet<Key>,
    rest: BTreeSet<Key>,
    rest_w_sum: f64,
}

impl TopP {
    fn new(p: usize) -> Self {
        TopP {
            p,
            top: BTreeSet::new(),
            rest: BTreeSet::new(),
            rest_w_sum: 0.0,
        }
    }

    fn len(&self) -> usize {
        self.top.len() + self.rest.len()
    }

    fn insert(&mut self, k: Key) {
        // invariant: `rest` is nonempty only while `top` holds `p` elements,
        // so filling `top` first never strands a larger key in `rest`
        debug_assert!(self.rest.is_empty() || self.top.len() == self.p);
        if self.top.len() < self.p {
            self.top.insert(k);
            return;
        }
        let min_top = *self.top.first().expect("top nonempty when full");
        if k > min_top {
            self.top.remove(&min_top);
            self.rest.insert(min_top);
            self.rest_w_sum += min_top.0 .0;
            self.top.insert(k);
        } else {
            self.rest.insert(k);
            self.rest_w_sum += k.0 .0;
        }
    }

    /// The head of the queue: the globally largest key.
    fn head(&self) -> Option<Key> {
        self.top.last().copied()
    }

    fn pop_head(&mut self) -> Key {
        debug_assert!(self.len() > 0, "pop from empty queue");
        let k = *self.top.last().expect("pop from nonempty queue");
        self.top.remove(&k);
        if let Some(&promote) = self.rest.last() {
            self.rest.remove(&promote);
            self.rest_w_sum -= promote.0 .0;
            self.top.insert(promote);
        }
        k
    }

    /// `Σ W_i` over the elements beyond the `p` largest.
    fn surplus_w(&self) -> f64 {
        self.rest_w_sum
    }
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

fn reference_split(tree: &TaskTree, p: usize, subtree_w: &[f64]) -> Split {
    assert!(p > 0, "need at least one processor");

    // Pass 1: find the number of pops minimizing the cost.
    let (best_steps, best_cost) = {
        let mut pq = TopP::new(p);
        pq.insert(key_of(tree, subtree_w, tree.root()));
        let mut seq_w = 0.0f64;
        let mut best = (0usize, subtree_w[tree.root().index()]);
        let mut s = 0usize;
        loop {
            let head = pq.head().expect("queue never empties");
            let (TotalF64(w_sub), TotalF64(w_node), _) = head;
            if w_sub <= w_node {
                break; // head subtree is a single task (or zero-work chain)
            }
            let popped = node_of(pq.pop_head());
            seq_w += tree.work(popped);
            for &c in tree.children(popped) {
                pq.insert(key_of(tree, subtree_w, c));
            }
            s += 1;
            let head_w = pq.head().map_or(0.0, |k| k.0 .0);
            let cost = head_w + seq_w + pq.surplus_w();
            if cost < best.1 {
                best = (s, cost);
            }
        }
        best
    };

    // Pass 2: replay to the chosen step and extract the sets.
    let mut pq = TopP::new(p);
    pq.insert(key_of(tree, subtree_w, tree.root()));
    let mut seq_nodes = Vec::with_capacity(best_steps);
    for _ in 0..best_steps {
        let popped = node_of(pq.pop_head());
        seq_nodes.push(popped);
        for &c in tree.children(popped) {
            pq.insert(key_of(tree, subtree_w, c));
        }
    }
    let parallel_roots: Vec<NodeId> = pq.top.iter().rev().map(|&k| node_of(k)).collect();
    let surplus_roots: Vec<NodeId> = pq.rest.iter().rev().map(|&k| node_of(k)).collect();
    Split {
        parallel_roots,
        surplus_roots,
        seq_nodes,
        cost: best_cost,
        steps: best_steps,
    }
}

/// The split under test and the oracle's, every field equal and `cost`
/// equal by its bits.
fn check(what: &str, tree: &TaskTree, p: usize) -> Result<(), TestCaseError> {
    let w = tree.subtree_work();
    let got = split_subtrees_with_work(tree, p, w);
    let want = reference_split(tree, p, w);
    prop_assert_eq!(
        &got.parallel_roots,
        &want.parallel_roots,
        "{}, p={}: parallel roots",
        what,
        p
    );
    prop_assert_eq!(
        &got.surplus_roots,
        &want.surplus_roots,
        "{}, p={}: surplus roots",
        what,
        p
    );
    prop_assert_eq!(
        &got.seq_nodes,
        &want.seq_nodes,
        "{}, p={}: seq nodes",
        what,
        p
    );
    prop_assert_eq!(got.steps, want.steps, "{}, p={}: steps", what, p);
    prop_assert_eq!(
        got.cost.to_bits(),
        want.cost.to_bits(),
        "{}, p={}: cost",
        what,
        p
    );
    Ok(())
}

struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())]
    }
}

/// Works of mixed magnitude: beside `1e16` a unit work vanishes from a
/// running sum, so the order of additions and removals shows in the bits
/// (and the surplus sum can read below zero).
const MIXED: [f64; 8] = [0.0, 1.0, 1.0, 2.0, 0.5, 1e16, 3.0, 1e-3];

/// A random tree of `n` nodes with shuffled ids (parents may carry larger
/// ids than their children) in one of four shapes and weightings:
/// integer works in `0..=3` on random attachment, zero-work chains
/// (long parent runs, works mostly 0), equal-`W` ties (unit works on
/// forks of identical chains) and mixed magnitudes.
fn random_tree(n: usize, shape: usize, rng: &mut Mix) -> TaskTree {
    let mut label: Vec<usize> = (0..n).collect();
    for k in (1..n).rev() {
        label.swap(k, rng.below(k + 1));
    }
    let mut parents = vec![None; n];
    let arms = 1 + rng.below(6);
    for k in 1..n {
        let parent = match shape {
            // chains: usually continue the previous node
            1 if rng.below(4) != 0 => k - 1,
            // identical arms hanging off the root: node k continues arm
            // k mod arms, so every arm carries the same work
            2 => k.saturating_sub(arms),
            _ => rng.below(k),
        };
        parents[label[k]] = Some(label[parent]);
    }
    let work: Vec<f64> = (0..n)
        .map(|_| match shape {
            1 => [0.0, 0.0, 0.0, 1.0][rng.below(4)],
            2 => 1.0,
            3 => rng.pick(&MIXED),
            _ => rng.below(4) as f64,
        })
        .collect();
    TaskTree::from_parents(&parents, &work, &vec![1.0; n], &vec![0.0; n]).expect("a valid tree")
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn the_heap_split_matches_the_two_pass_oracle(
        n in 1usize..80,
        shape in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = Mix(seed);
        let tree = random_tree(n, shape, &mut rng);
        for p in [1, 2, 3, 4, 8, 16, n, n + 1, 65536] {
            check(&format!("shape {shape}, n={n}"), &tree, p)?;
        }
    }

    #[test]
    fn the_memoized_pass_replays_like_the_oracle(
        n in 1usize..80,
        shape in 0usize..4,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = Mix(seed);
        let tree = random_tree(n, shape, &mut rng);
        let mut ps = [1, 2, 3, 4, 8, 16, n, n + 1, 65536];
        for k in (1..ps.len()).rev() {
            ps.swap(k, rng.below(k + 1));
        }
        for p in ps {
            let got = split_subtrees(&tree, p);
            let want = reference_split(&tree, p, tree.subtree_work());
            prop_assert_eq!(&got, &want, "shape {}, n={}, p={}", shape, n, p);
            prop_assert_eq!(
                got.cost.to_bits(),
                want.cost.to_bits(),
                "shape {}, n={}, p={}: cost",
                shape,
                n,
                p
            );
        }
    }
}

/// The lowest value the oracle's running surplus sum takes while it
/// scores every step.
fn lowest_surplus(tree: &TaskTree, p: usize) -> f64 {
    let w = tree.subtree_work();
    let mut pq = TopP::new(p);
    pq.insert(key_of(tree, w, tree.root()));
    let mut lowest = 0.0f64;
    while let Some((TotalF64(w_sub), TotalF64(w_node), _)) = pq.head() {
        if w_sub <= w_node {
            break;
        }
        let popped = node_of(pq.pop_head());
        for &c in tree.children(popped) {
            pq.insert(key_of(tree, w, c));
        }
        lowest = lowest.min(pq.surplus_w());
    }
    lowest
}

/// Rounding in the surplus sum, hand-built: `1e16` enters the rest ahead
/// of unit works that vanish beside it, and leaves before them, so the
/// running sum reads `-1` at one step.
#[test]
fn a_surplus_sum_below_zero_matches_the_oracle() {
    let tree = TaskTree::from_parents(
        &[
            None,
            Some(0),
            Some(0),
            Some(1),
            Some(2),
            Some(0),
            Some(0),
            Some(6),
            Some(4),
            Some(7),
        ],
        &[3.0, 2e16, 0.0, 3.0, 2e16, 1.0, 2e16, 2e16, 1e16, 3.0],
        &[1.0; 10],
        &[0.0; 10],
    )
    .unwrap();
    assert_eq!(lowest_surplus(&tree, 1), -1.0);
    for p in 1..=11 {
        check("hand-built", &tree, p).unwrap();
    }
}

#[test]
fn the_medium_corpus_splits_like_the_oracle() {
    for entry in assembly_corpus(Scale::Medium) {
        for p in [2, 4, 8] {
            check(&entry.name, &entry.tree, p).unwrap();
            assert_eq!(
                split_subtrees(&entry.tree, p),
                reference_split(&entry.tree, p, entry.tree.subtree_work())
            );
        }
    }
}
