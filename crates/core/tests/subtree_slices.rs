//! Every subtree's memoized postorder slice against the traversal of the
//! subtree cloned into a tree of its own.
//!
//! `SeqAlgo::subtree_orders` runs the best and the naive postorder once
//! at the root and hands out each subtree's order as a slice of that
//! one order. The slice at `r` must equal `best_postorder` (or
//! `naive_postorder`) of `tree.subtree(r)`, mapped back through the
//! clone's id map, for every node `r`. Ties are the risk, so the random
//! trees are tie-heavy: siblings with equal `P − f`, zero outputs,
//! zero-work chains, shuffled ids, and twins whose child lists run in
//! descending order. Cases derive from `PROPTEST_SEED`; `PROPTEST_CASES`
//! raises the count.

use proptest::prelude::*;
use treesched_core::{SeqAlgo, SubtreeScratch};
use treesched_model::{NodeId, TaskTree};
use treesched_seq::{best_postorder, naive_postorder, TraversalResult};

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
}

/// A random tree of `n` nodes with shuffled ids in one of three shapes:
/// random attachment, chains (long parent runs) and identical arms off
/// the root. Weights come from small sets with zeros, so equal `P − f`
/// among siblings is common; `pebble` makes every output 1 and every
/// program 0, so all siblings of equal shape tie.
fn random_tree(n: usize, shape: usize, pebble: bool, rng: &mut Mix) -> TaskTree {
    let mut label: Vec<usize> = (0..n).collect();
    for k in (1..n).rev() {
        label.swap(k, rng.below(k + 1));
    }
    let mut parents = vec![None; n];
    let arms = 1 + rng.below(5);
    for k in 1..n {
        let parent = match shape {
            1 if rng.below(4) != 0 => k - 1,
            2 => k.saturating_sub(arms),
            _ => rng.below(k),
        };
        parents[label[k]] = Some(label[parent]);
    }
    let mut column =
        |from: &[f64]| -> Vec<f64> { (0..n).map(|_| from[rng.below(from.len())]).collect() };
    let work = column(&[0.0, 0.0, 1.0]);
    let (output, exec) = if pebble {
        (vec![1.0; n], vec![0.0; n])
    } else {
        (column(&[0.0, 1.0, 1.0, 2.0]), column(&[0.0, 0.0, 1.0]))
    };
    TaskTree::from_parents(&parents, &work, &output, &exec).expect("a valid tree")
}

/// Each node's memoized slice equals the clone path's traversal of its
/// subtree, mapped back to original ids.
fn check(what: &str, tree: &TaskTree) -> Result<(), TestCaseError> {
    type Traversal = fn(&TaskTree) -> TraversalResult;
    let algos: [(SeqAlgo, Traversal); 2] = [
        (SeqAlgo::BestPostorder, best_postorder),
        (SeqAlgo::NaivePostorder, naive_postorder),
    ];
    for (algo, traversal) in algos {
        let orders = algo
            .subtree_orders(tree, &mut SubtreeScratch::new())
            .expect("a postorder algorithm");
        prop_assert_eq!(orders.order.len(), tree.len());
        for r in tree.ids() {
            let (clone, map) = tree.subtree(r);
            let want: Vec<NodeId> = traversal(&clone)
                .order
                .iter()
                .map(|v| map[v.index()])
                .collect();
            prop_assert_eq!(
                orders.subtree(r),
                &want[..],
                "{}, {}: root {:?}",
                what,
                algo.name(),
                r
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn every_subtree_slice_matches_its_clone(
        n in 1usize..60,
        shape in 0usize..3,
        pebble in 0usize..2,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = Mix(seed);
        let tree = random_tree(n, shape, pebble == 1, &mut rng);
        let what = format!("shape {shape}, n={n}");
        check(&what, &tree)?;
        // the same tree numbered in DFS pop order: descending child lists
        let (twin, _) = tree.subtree(tree.root());
        check(&format!("{what}, descending twin"), &twin)?;
    }
}

#[test]
fn liu_exact_has_no_subtree_slices() {
    let tree = TaskTree::complete(2, 3, 1.0, 1.0, 0.0);
    assert!(SeqAlgo::LiuExact
        .subtree_orders(&tree, &mut SubtreeScratch::new())
        .is_none());
}
