//! End-to-end integration: sparse matrix → ordering → elimination tree →
//! assembly tree → every registered scheduler → validated schedules and the
//! paper's bounds, over the whole small corpus.

use treesched::core::{
    makespan_lower_bound, memory_lower_bound_exact, memory_reference, Outcome, Platform, Request,
    SchedulerRegistry, Scratch,
};
use treesched::gen::{assembly_corpus, Scale};
use treesched::model::{TaskTree, ValidateExt};
use treesched::sparse::{assembly, etree, generate, ordering};

/// The registry's list schedulers: the two paper heuristics (§5.2, §5.3)
/// and the three textbook baselines. The memory-capped schedulers are list
/// schedulers too, but their admission may idle a processor while a task
/// is ready, so Graham's bound does not apply to them.
const LIST_SCHEDULERS: [&str; 5] = [
    "ParInnerFirst",
    "ParDeepestFirst",
    "CpList",
    "FifoList",
    "RandomList",
];

/// Schedules `tree` with the registry entry `name` on `p` processors
/// sharing one memory capped at the sequential reference (the cap only
/// matters to the memory-capped schedulers).
fn run(name: &str, tree: &TaskTree, p: u32, scratch: &mut Scratch) -> Outcome {
    let req = Request::new(
        tree,
        Platform::new(p).with_memory_cap(memory_reference(tree)),
    );
    SchedulerRegistry::standard()
        .get(name)
        .unwrap()
        .schedule(&req, scratch)
        .unwrap_or_else(|e| panic!("{name} p={p}: {e}"))
}

#[test]
fn full_pipeline_grid_to_schedules() {
    let pattern = generate::grid2d(12, 12, generate::Stencil::Star);
    let ord = ordering::min_degree(&pattern);
    let permuted = pattern.permute(&ord.order);
    let et = etree::elimination_tree(&permuted);
    let cc = etree::column_counts(&permuted, &et);
    let registry = SchedulerRegistry::standard();
    let mut scratch = Scratch::new();
    for limit in [1u32, 4] {
        let tree = assembly::assembly_tree_from_etree(&et, &cc, limit).expect("connected");
        tree.validate().expect("valid assembly tree");
        for p in [2u32, 8] {
            for h in registry.names() {
                let out = run(h, &tree, p, &mut scratch);
                out.schedule
                    .validate(&tree)
                    .unwrap_or_else(|e| panic!("{h} p={p}: {e}"));
                assert!(out.eval.makespan >= makespan_lower_bound(&tree, p) - 1e-9);
                assert!(out.eval.peak_memory >= memory_lower_bound_exact(&tree) - 1e-6);
            }
        }
    }
}

#[test]
fn corpus_scenarios_all_valid_and_bounded() {
    let registry = SchedulerRegistry::standard();
    let mut scratch = Scratch::new();
    for e in &assembly_corpus(Scale::Small) {
        let tree = &e.tree;
        let mem_exact = memory_lower_bound_exact(tree);
        let mem_ref = memory_reference(tree);
        assert!(mem_exact <= mem_ref + 1e-9, "{}", e.name);
        for p in [2u32, 16] {
            let lb = makespan_lower_bound(tree, p);
            for h in registry.names() {
                let ev = run(h, tree, p, &mut scratch).eval;
                assert!(ev.makespan >= lb - 1e-9 * lb, "{} {h} p={p}", e.name);
                assert!(
                    ev.peak_memory >= mem_exact - 1e-9 * mem_exact,
                    "{} {h} p={p}: parallel memory {} below sequential optimum {}",
                    e.name,
                    ev.peak_memory,
                    mem_exact
                );
            }
        }
    }
}

#[test]
fn par_subtrees_memory_guarantee_on_corpus() {
    // paper §5.1: M ≤ (p+1) · M_seq
    let mut scratch = Scratch::new();
    for e in &assembly_corpus(Scale::Small) {
        let mseq = memory_reference(&e.tree);
        for p in [1u32, 2, 3, 4, 8, 16] {
            let ev = run("ParSubtrees", &e.tree, p, &mut scratch).eval;
            assert!(
                ev.peak_memory <= (p as f64 + 1.0) * mseq * (1.0 + 1e-9),
                "{} p={p}: {} > {}",
                e.name,
                ev.peak_memory,
                (p as f64 + 1.0) * mseq
            );
        }
    }
}

#[test]
fn list_schedulers_meet_graham_bound_on_corpus() {
    // §5.2/§5.3: every list scheduler is a (2 − 1/p)-approximation of the
    // optimal makespan; since Cmax* ≥ LB, their makespan is
    // ≤ (2 − 1/p) · Cmax*, which we can only check against the achievable
    // bound W/p + CP·(1 − 1/p) (list scheduling bound).
    let mut scratch = Scratch::new();
    for e in &assembly_corpus(Scale::Small) {
        let tree = &e.tree;
        let w = tree.total_work();
        let cp = tree.critical_path();
        for p in [2u32, 8, 32] {
            let list_bound = w / p as f64 + cp * (1.0 - 1.0 / p as f64);
            for h in LIST_SCHEDULERS {
                let ev = run(h, tree, p, &mut scratch).eval;
                assert!(
                    ev.makespan <= list_bound * (1.0 + 1e-9),
                    "{} {h} p={p}: {} > {}",
                    e.name,
                    ev.makespan,
                    list_bound
                );
            }
        }
    }
}

#[test]
fn single_processor_all_heuristics_sequentialize() {
    let registry = SchedulerRegistry::standard();
    let mut scratch = Scratch::new();
    for e in &assembly_corpus(Scale::Small) {
        let tree = &e.tree;
        for h in registry.names() {
            let ev = run(h, tree, 1, &mut scratch).eval;
            assert!(
                (ev.makespan - tree.total_work()).abs() <= 1e-9 * tree.total_work(),
                "{} {h}",
                e.name
            );
        }
    }
}

#[test]
fn facade_reexports_work() {
    // the facade crate exposes the whole pipeline under one namespace
    let tree = treesched::TaskTree::fork(4, 1.0, 1.0, 0.0);
    let stats = treesched::TreeStats::of(&tree);
    assert_eq!(stats.nodes, 5);
    let r = treesched::seq::best_postorder(&tree);
    assert_eq!(r.peak, 5.0);
    let req = treesched::core::Request::new(&tree, treesched::core::Platform::new(2));
    let registry = treesched::core::SchedulerRegistry::standard();
    let out = registry
        .get("subtrees")
        .unwrap()
        .schedule_once(&req)
        .unwrap();
    assert!(out.schedule.validate(&tree).is_ok());
}
