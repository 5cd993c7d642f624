//! Schedules built from a tree's memoized reference traversal against
//! schedules built on a fresh clone of the tree, whose memo is empty.
//!
//! One warm `Scratch` serves requests interleaved across several trees:
//! twins that differ only in the order of some node's children, an equal
//! tree in a second allocation, and a tree whose memo was filled and then
//! reset by `set_work`/`set_output`/`set_exec`. Every registry entry runs
//! under every `SeqAlgo` at p ∈ {1, 2, 3, 8}, and each result must equal
//! `schedule_once` on `tree.clone()`: the same error, or the same
//! placements, evaluation, domain peaks and diagnostics, every float by
//! `to_bits`. Cases derive from `PROPTEST_SEED`; `PROPTEST_CASES` raises
//! the count.

use proptest::prelude::*;
use treesched_core::{
    memory_reference, Outcome, Platform, Request, SchedError, SchedulerRegistry, Scratch, SeqAlgo,
};
use treesched_gen::{random_attachment, random_deep, WeightRange};
use treesched_model::{NodeId, TaskTree};

const ALGOS: [SeqAlgo; 3] = [
    SeqAlgo::BestPostorder,
    SeqAlgo::LiuExact,
    SeqAlgo::NaivePostorder,
];

/// Small integer weights, so equal priorities (and with them tie-breaks
/// by traversal position) are common.
const SMALL: WeightRange = WeightRange {
    work: (0, 3),
    output: (0, 3),
    exec: (0, 2),
};

/// Twins with equal parents and weights whose child lists run in opposite
/// orders: `subtree` numbers nodes in DFS pop order (descending child
/// lists), `from_parents` on its parents builds ascending ones.
fn child_order_twins(tree: &TaskTree) -> (TaskTree, TaskTree) {
    let (desc, _) = tree.subtree(tree.root());
    let parents: Vec<Option<usize>> = desc
        .ids()
        .map(|i| desc.parent(i).map(NodeId::index))
        .collect();
    let column =
        |f: fn(&TaskTree, NodeId) -> f64| desc.ids().map(|i| f(&desc, i)).collect::<Vec<_>>();
    let (w, f, n) = (
        column(TaskTree::work),
        column(TaskTree::output),
        column(TaskTree::exec),
    );
    let asc = TaskTree::from_parents(&parents, &w, &f, &n).expect("a valid tree");
    (desc, asc)
}

/// Everything an outcome reports, floats as bits; errors as their debug
/// rendering.
fn bits(result: Result<Outcome, SchedError>) -> Result<Vec<u64>, String> {
    let out = result.map_err(|e| format!("{e:?}"))?;
    let mut v = vec![out.schedule.processors as u64];
    for pl in &out.schedule.placements {
        v.extend([pl.proc as u64, pl.start.to_bits(), pl.finish.to_bits()]);
    }
    v.extend([out.eval.makespan.to_bits(), out.eval.peak_memory.to_bits()]);
    v.extend(out.domain_peaks.iter().map(|m| m.to_bits()));
    v.push(out.diagnostics.seq_peak.map_or(u64::MAX, f64::to_bits));
    v.push(
        out.diagnostics
            .cap_violations
            .map_or(u64::MAX, |c| c as u64),
    );
    Ok(v)
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn memoized_traversals_schedule_like_fresh_trees(
        n in 1usize..28,
        deep in 0usize..2,
        seed in 0u64..u64::MAX,
    ) {
        let base = match deep {
            0 => random_attachment(n, SMALL, seed),
            _ => random_deep(n, 3, SMALL, seed),
        };
        let (desc, asc) = child_order_twins(&base);
        let registry = SchedulerRegistry::standard();
        let mut warm = Scratch::new();
        // fill the memo through every scheduler and algorithm, then change
        // one weight
        let mut changed = asc.clone();
        for algo in ALGOS {
            for entry in registry.iter() {
                let req = Request::new(&changed, Platform::new(2).with_memory_cap(8.0)).with_seq(algo);
                let _ = entry.scheduler().schedule(&req, &mut warm);
            }
        }
        let (node, value) = (NodeId::from_index(seed as usize % n), (seed % 7) as f64 + 0.5);
        match seed % 3 {
            0 => changed.set_work(node, value),
            1 => changed.set_output(node, value),
            _ => changed.set_exec(node, value),
        }
        let trees = [desc, asc.clone(), changed, asc];
        // the paper's cap, read on clones so no memo fills before the run
        let caps: Vec<f64> = trees.iter().map(|t| memory_reference(&t.clone())).collect();
        for p in [1u32, 2, 3, 8] {
            for algo in ALGOS {
                for entry in registry.iter() {
                    for (k, tree) in trees.iter().enumerate() {
                        let platform = Platform::new(p).with_memory_cap(caps[k]);
                        let got = entry
                            .scheduler()
                            .schedule(&Request::new(tree, platform.clone()).with_seq(algo), &mut warm);
                        let fresh = tree.clone();
                        let want = entry
                            .scheduler()
                            .schedule_once(&Request::new(&fresh, platform).with_seq(algo));
                        let what = format!("{} on tree {k}, n={n}, p={p}, {algo:?}", entry.name());
                        prop_assert_eq!(bits(got), bits(want), "{}", what);
                    }
                }
            }
        }
        for tree in &trees {
            let fresh = SeqAlgo::BestPostorder.traversal(tree).peak;
            prop_assert_eq!(memory_reference(tree).to_bits(), fresh.to_bits());
        }
    }
}
