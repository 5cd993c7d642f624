//! The paper's subtree heuristics (§5.1) and the sequential sub-algorithm
//! choice shared by every scheduler.
//!
//! | Registry name             | Focus    | Memory guarantee   | Makespan guarantee | Code |
//! |---------------------------|----------|--------------------|--------------------|------|
//! | `ParSubtrees`             | memory   | `≤ (p+1)·M_seq`    | `p`-approx         | [`par_subtrees`] |
//! | `ParSubtreesOptim`        | balanced | (weaker than above) | better in practice | [`par_subtrees_optim`] |
//! | `ParInnerFirst`           | balanced | unbounded (Fig. 4) | `(2 − 1/p)`-approx | [`list_schedule`](crate::listsched::list_schedule) |
//! | `ParDeepestFirst`         | makespan | unbounded (Fig. 5) | `(2 − 1/p)`-approx | [`list_schedule`](crate::listsched::list_schedule) |
//!
//! All four are reached by name through
//! [`crate::api::SchedulerRegistry::standard`]; the two list schedulers are
//! priority keys over the one event loop, built in [`crate::api`].

use crate::listsched::Speeds;
use crate::schedule::{Placement, Schedule};
use crate::split::{split_subtrees_in, SplitScratch};
use treesched_model::{MemoTraversal, NodeId, SubtreeView, TaskTree};
use treesched_seq::{
    best_postorder_view, liu_exact_view, naive_postorder_view, LiuScratch, TraversalResult,
    ViewScratch,
};

/// Which sequential memory-minimizing algorithm the subtree phases use.
///
/// The paper's implementation (§6.1) uses the **optimal postorder** rather
/// than Liu's exact `O(n²)` algorithm, having measured it optimal in 95.8%
/// of instances; that is the default here too.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum SeqAlgo {
    /// Liu's optimal postorder (1986) — the paper's choice, `O(n log n)`.
    #[default]
    BestPostorder,
    /// Liu's exact algorithm (1987) — optimal over all traversals, `O(n²)`.
    LiuExact,
    /// The postorder induced by the stored child order (baseline).
    NaivePostorder,
}

impl SeqAlgo {
    /// Runs the selected traversal algorithm.
    pub fn traversal(self, tree: &TaskTree) -> TraversalResult {
        match self {
            SeqAlgo::BestPostorder => treesched_seq::best_postorder(tree),
            SeqAlgo::LiuExact => treesched_seq::liu_exact(tree),
            SeqAlgo::NaivePostorder => treesched_seq::naive_postorder(tree),
        }
    }

    /// The reference traversal of `tree` under this algorithm, memoized in
    /// the tree (one slot per algorithm): the first call per tree runs
    /// [`SeqAlgo::traversal`], later calls from any thread share its
    /// result until a `set_*` method changes the tree. The flag is `true`
    /// exactly when this call computed the traversal.
    pub fn reference(self, tree: &TaskTree) -> (&MemoTraversal, bool) {
        tree.memo_traversal(self as usize, |tree| {
            let tr = self.traversal(tree);
            (tr.order, tr.peak)
        })
    }

    /// The stable wire name used by the CLI `--seq` flag and the serving
    /// JSONL protocol.
    pub fn name(self) -> &'static str {
        match self {
            SeqAlgo::BestPostorder => "best",
            SeqAlgo::LiuExact => "liu",
            SeqAlgo::NaivePostorder => "naive",
        }
    }

    /// Inverse of [`SeqAlgo::name`]; `None` for unknown names.
    pub fn by_name(name: &str) -> Option<SeqAlgo> {
        match name {
            "best" => Some(SeqAlgo::BestPostorder),
            "liu" => Some(SeqAlgo::LiuExact),
            "naive" => Some(SeqAlgo::NaivePostorder),
            _ => None,
        }
    }
}

/// Reusable buffers for the per-subtree scheduling phases.
///
/// Every sequential sub-algorithm — the two postorders *and*
/// [`SeqAlgo::LiuExact`] — runs on a borrowed [`SubtreeView`] over these
/// buffers instead of cloning each subtree into a fresh `TaskTree`.
#[derive(Clone, Debug, Default)]
pub struct SubtreeScratch {
    /// DFS work stack for [`TaskTree::subtree_nodes_into`].
    dfs: Vec<NodeId>,
    /// Subtree membership in clone-DFS order (the view's node list).
    nodes: Vec<NodeId>,
    /// Traversal order of the current subtree, in original ids.
    order: Vec<NodeId>,
    /// Buffers of the view-based postorder algorithms.
    view: ViewScratch,
    /// The `SplitSubtrees` queue heaps and pop sequence.
    split: SplitScratch,
    /// Chain storage of the view-based exact algorithm.
    liu: LiuScratch,
    /// Processor indices of mixed-speed platforms, fastest first (see
    /// [`rank_procs`]).
    procs: Vec<u32>,
    views: u64,
}

impl SubtreeScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> SubtreeScratch {
        SubtreeScratch::default()
    }

    /// Number of subtrees scheduled through a borrowed view (no clone).
    pub fn subtree_views(&self) -> u64 {
        self.views
    }
}

/// Schedules the subtree rooted at `r` sequentially on `proc` (of the given
/// `speed`) from `start`, in the order chosen by `seq`, writing placements.
/// Returns the finish time. Unit-speed callers pass `speed = 1.0`, which is
/// bit-identical to the historical unscaled arithmetic (`w / 1.0 == w`).
#[allow(clippy::too_many_arguments)]
fn schedule_subtree(
    tree: &TaskTree,
    r: NodeId,
    proc: u32,
    speed: f64,
    start: f64,
    seq: SeqAlgo,
    placements: &mut [Placement],
    member: &mut [bool],
    sub: &mut SubtreeScratch,
) -> f64 {
    sub.views += 1;
    let SubtreeScratch {
        dfs,
        nodes,
        order,
        view,
        liu,
        ..
    } = sub;
    tree.subtree_nodes_into(r, dfs, nodes);
    let v = SubtreeView::new(tree, nodes);
    match seq {
        SeqAlgo::BestPostorder => best_postorder_view(&v, view, order),
        SeqAlgo::NaivePostorder => naive_postorder_view(&v, view, order),
        SeqAlgo::LiuExact => {
            liu_exact_view(&v, liu, order);
        }
    }
    let mut t = start;
    for &orig in order.iter() {
        member[orig.index()] = true;
        let w = tree.work(orig) / speed;
        placements[orig.index()] = Placement {
            proc,
            start: t,
            finish: t + w,
        };
        t += w;
    }
    t
}

/// Finishes a subtree schedule: every node not yet `placed` runs after
/// `start`, sequentially on `proc` (the fastest processor), in the order of
/// the whole-tree traversal `global`.
fn schedule_remainder(
    tree: &TaskTree,
    global: &[NodeId],
    placed: &[bool],
    speeds: Speeds<'_>,
    proc: u32,
    start: f64,
    mut placements: Vec<Placement>,
) -> Schedule {
    let speed = speeds.speed(proc);
    let mut t = start;
    for &v in global {
        if !placed[v.index()] {
            let w = tree.work(v) / speed;
            placements[v.index()] = Placement {
                proc,
                start: t,
                finish: t + w,
            };
            t += w;
        }
    }
    Schedule {
        processors: speeds.count(),
        placements,
    }
}

fn blank_placements(n: usize) -> Vec<Placement> {
    vec![
        Placement {
            proc: 0,
            start: f64::NAN,
            finish: f64::NAN
        };
        n
    ]
}

/// On [`Speeds::Per`], fills `procs` with the processor indices in
/// placement priority order: non-increasing speed, ties by index (stable).
/// The fastest processor comes first — it receives the heaviest subtree
/// and the sequential remainder. Read it through [`ranked`].
fn rank_procs(speeds: Speeds<'_>, procs: &mut Vec<u32>) {
    if let Speeds::Per(s) = speeds {
        procs.clear();
        procs.extend(0..s.len() as u32);
        procs.sort_by(|&a, &b| s[b as usize].total_cmp(&s[a as usize]));
    }
}

/// The processor of placement rank `k` (0 = fastest) after [`rank_procs`];
/// on [`Speeds::Unit`] every processor ties, so it is `k` itself.
fn ranked(speeds: Speeds<'_>, procs: &[u32], k: usize) -> u32 {
    match speeds {
        Speeds::Unit(_) => k as u32,
        Speeds::Per(_) => procs[k],
    }
}

/// Sorts subtree roots by non-increasing subtree weight `W`, ties by id.
fn sort_heaviest_first(roots: &mut [NodeId], subtree_w: &[f64]) {
    roots.sort_by(|&a, &b| {
        subtree_w[b.index()]
            .total_cmp(&subtree_w[a.index()])
            .then(a.cmp(&b))
    });
}

/// **ParSubtrees** (paper Algorithm 1): split the tree with
/// [`split_subtrees`](crate::split::split_subtrees), process the `q ≤ p`
/// chosen subtrees concurrently (each with the sequential memory-optimal
/// algorithm `seq`), then process the remaining nodes sequentially in the
/// order of the whole-tree traversal produced by `seq` (memoized in the
/// tree, see [`SeqAlgo::reference`]).
///
/// The split reasons in platform-independent *work* units; placement is
/// speed-aware. On [`Speeds::Unit`] the `k`-th subtree of the split runs on
/// processor `k`. On [`Speeds::Per`] the subtrees are matched
/// heaviest-to-fastest (`k`-th heaviest onto the `k`-th fastest processor,
/// each task running for `w / speed`). The remainder runs on the fastest
/// processor. `sub` holds reusable buffers, so a warm caller does not
/// re-allocate them.
///
/// Guarantees (paper §5.1): peak memory `≤ (p+1)·M_seq`; makespan is a
/// `p`-approximation and is optimal among all `ParSubtrees`-style splittings
/// (Lemma 1).
///
/// # Panics
///
/// Panics when the processor count is 0.
pub fn par_subtrees(
    tree: &TaskTree,
    speeds: Speeds<'_>,
    seq: SeqAlgo,
    sub: &mut SubtreeScratch,
) -> Schedule {
    let p = speeds.count();
    assert!(p > 0, "need at least one processor");
    let (subtree_w, global) = (tree.subtree_work(), &seq.reference(tree).0.order);
    let mut split = split_subtrees_in(tree, p as usize, &subtree_w, &mut sub.split);
    if let Speeds::Per(_) = speeds {
        sort_heaviest_first(&mut split.parallel_roots, &subtree_w);
    }
    rank_procs(speeds, &mut sub.procs);
    let n = tree.len();
    let mut placements = blank_placements(n);
    let mut in_parallel = vec![false; n];
    let mut t0 = 0.0f64;
    for (k, &r) in split.parallel_roots.iter().enumerate() {
        let proc = ranked(speeds, &sub.procs, k);
        let fin = schedule_subtree(
            tree,
            r,
            proc,
            speeds.speed(proc),
            0.0,
            seq,
            &mut placements,
            &mut in_parallel,
            sub,
        );
        t0 = t0.max(fin);
    }
    // sequential remainder: popped nodes and surplus subtrees
    schedule_remainder(
        tree,
        global,
        &in_parallel,
        speeds,
        ranked(speeds, &sub.procs, 0),
        t0,
        placements,
    )
}

/// **ParSubtreesOptim** (paper §5.1, makespan optimization): identical
/// splitting, but *all* produced subtrees are allocated to the `p`
/// processors LPT-style (largest total weight first, to the processor where
/// it finishes earliest, `load + W / speed`, ties to the faster then
/// lower-indexed processor), each processor running its subtrees back to
/// back. The popped nodes then run sequentially on the fastest processor.
/// Arguments as for [`par_subtrees`].
///
/// This improves the makespan at the price of a (usually slight) memory
/// increase, as the paper's experiments show.
///
/// # Panics
///
/// Panics when the processor count is 0.
pub fn par_subtrees_optim(
    tree: &TaskTree,
    speeds: Speeds<'_>,
    seq: SeqAlgo,
    sub: &mut SubtreeScratch,
) -> Schedule {
    let p = speeds.count();
    assert!(p > 0, "need at least one processor");
    let (subtree_w, global) = (tree.subtree_work(), &seq.reference(tree).0.order);
    let split = split_subtrees_in(tree, p as usize, &subtree_w, &mut sub.split);
    let mut roots: Vec<NodeId> = split
        .parallel_roots
        .iter()
        .chain(&split.surplus_roots)
        .copied()
        .collect();
    sort_heaviest_first(&mut roots, &subtree_w);
    rank_procs(speeds, &mut sub.procs);
    let n = tree.len();
    let mut placements = blank_placements(n);
    let mut in_parallel = vec![false; n];
    let mut loads = vec![0.0f64; p as usize];
    for &r in &roots {
        // earliest finish over processors fastest first; on unit speeds the
        // `W` term is the same for every processor, so the load decides
        let finish = |proc: u32| match speeds {
            Speeds::Unit(_) => loads[proc as usize],
            Speeds::Per(s) => loads[proc as usize] + subtree_w[r.index()] / s[proc as usize],
        };
        let proc = (0..p as usize)
            .map(|k| ranked(speeds, &sub.procs, k))
            .min_by(|&a, &b| finish(a).total_cmp(&finish(b)))
            .expect("p > 0");
        loads[proc as usize] = schedule_subtree(
            tree,
            r,
            proc,
            speeds.speed(proc),
            loads[proc as usize],
            seq,
            &mut placements,
            &mut in_parallel,
            sub,
        );
    }
    let t0 = loads.iter().fold(0.0f64, |a, &b| a.max(b));
    schedule_remainder(
        tree,
        global,
        &in_parallel,
        speeds,
        ranked(speeds, &sub.procs, 0),
        t0,
        placements,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Outcome, Platform, Request, SchedulerRegistry};
    use treesched_model::{TaskTree, TreeBuilder};
    use treesched_seq::best_postorder;

    /// Runs the registry scheduler `name` on `p` unit-speed processors.
    fn run(name: &str, tree: &TaskTree, p: u32, seq: SeqAlgo) -> Outcome {
        let req = Request::new(tree, Platform::new(p)).with_seq(seq);
        SchedulerRegistry::standard()
            .get(name)
            .unwrap()
            .schedule_once(&req)
            .unwrap()
    }

    /// Paper Figure 3: ParSubtrees achieves makespan `p(k−1) + 2` on the
    /// fork with `p·k` unit leaves while the optimum is `k + 1`; the
    /// optimized variant recovers it.
    #[test]
    fn fig3_fork_makespans() {
        let (p, k) = (4u32, 6usize);
        let t = TaskTree::fork(p as usize * k, 1.0, 1.0, 0.0);
        let ms = run("ParSubtrees", &t, p, SeqAlgo::default()).eval.makespan;
        assert_eq!(ms, (p as usize * (k - 1) + 2) as f64);
        let opt = run("ParSubtreesOptim", &t, p, SeqAlgo::default())
            .eval
            .makespan;
        assert_eq!(opt, (k + 1) as f64);
        // list schedulers also achieve the optimum here
        let dfs = run("ParDeepestFirst", &t, p, SeqAlgo::default())
            .eval
            .makespan;
        assert_eq!(dfs, (k + 1) as f64);
    }

    #[test]
    fn all_heuristics_produce_valid_schedules() {
        let t = TaskTree::complete(3, 4, 1.0, 2.0, 0.5);
        for entry in SchedulerRegistry::standard().campaign() {
            let h = entry.name();
            for p in [1u32, 2, 5, 16] {
                let s = run(h, &t, p, SeqAlgo::default()).schedule;
                assert!(s.validate(&t).is_ok(), "{h} p={p}");
                assert!(s.max_concurrency() <= p as usize, "{h} p={p}");
            }
        }
    }

    #[test]
    fn par_subtrees_makespan_equals_split_cost() {
        let t = TaskTree::complete(2, 5, 1.0, 1.0, 0.0);
        for p in [1u32, 2, 3, 8] {
            let split = crate::split::split_subtrees(&t, p as usize);
            let ev = run("ParSubtrees", &t, p, SeqAlgo::default()).eval;
            assert!(
                (ev.makespan - split.cost).abs() < 1e-9,
                "p={p}: {} vs {}",
                ev.makespan,
                split.cost
            );
        }
    }

    #[test]
    fn par_subtrees_memory_bound_holds() {
        // M <= (p+1) * M_seq (paper §5.1), with M_seq the best postorder
        let mut b = TreeBuilder::new();
        let r = b.node(2.0, 3.0, 1.0);
        let x = b.child(r, 1.0, 4.0, 0.0);
        let y = b.child(r, 5.0, 2.0, 2.0);
        for _ in 0..5 {
            b.child(x, 2.0, 3.0, 1.0);
            b.child(y, 1.0, 2.0, 0.0);
        }
        let t = b.build().unwrap();
        let mseq = best_postorder(&t).peak;
        for p in [1u32, 2, 4] {
            let ev = run("ParSubtrees", &t, p, SeqAlgo::default()).eval;
            assert!(
                ev.peak_memory <= (p as f64 + 1.0) * mseq + 1e-9,
                "p={p}: {} > {}",
                ev.peak_memory,
                (p as f64 + 1.0) * mseq
            );
        }
    }

    #[test]
    fn single_processor_heuristics_match_sequential_memory() {
        // with p = 1, ParSubtrees runs the sequential algorithm on the whole
        // tree; its memory equals the best postorder peak
        let t = TaskTree::complete(2, 4, 1.0, 2.0, 1.0);
        let ev = run("ParSubtrees", &t, 1, SeqAlgo::default()).eval;
        assert_eq!(ev.peak_memory, best_postorder(&t).peak);
        assert_eq!(ev.makespan, t.total_work());
        // ParInnerFirst on one processor replays a sequential postorder
        let ev = run("ParInnerFirst", &t, 1, SeqAlgo::default()).eval;
        assert_eq!(ev.peak_memory, best_postorder(&t).peak);
    }

    #[test]
    fn inner_first_prefers_inner_nodes() {
        // a chain plus spare leaves: when the chain's inner node becomes
        // ready it must run before any queued leaf
        let mut b = TreeBuilder::new();
        let r = b.node(1.0, 1.0, 0.0);
        let c = b.child(r, 1.0, 1.0, 0.0);
        b.child(c, 1.0, 1.0, 0.0); // chain leaf
        for _ in 0..6 {
            b.child(r, 1.0, 1.0, 0.0); // fork leaves
        }
        let t = b.build().unwrap();
        let s = run("ParInnerFirst", &t, 1, SeqAlgo::default()).schedule;
        // node c (inner, id 1) becomes ready after its leaf (id 2); it must
        // start right then, before the remaining fork leaves
        let start_c = s.placement(NodeId(1)).start;
        let later_leaves = (3..9)
            .filter(|&i| s.placement(NodeId(i)).start > start_c)
            .count();
        assert!(later_leaves >= 5, "inner node must preempt queued leaves");
    }

    #[test]
    fn deepest_first_follows_critical_path() {
        // two chains of different weighted depth: the deep chain's leaf goes
        // first
        let mut b = TreeBuilder::new();
        let r = b.node(1.0, 1.0, 0.0);
        let a = b.child(r, 1.0, 1.0, 0.0);
        let deep = b.child(a, 10.0, 1.0, 0.0); // wdepth 12
        b.child(r, 1.0, 1.0, 0.0); // shallow leaf, wdepth 2
        let t = b.build().unwrap();
        let s = run("ParDeepestFirst", &t, 1, SeqAlgo::default()).schedule;
        assert!(s.placement(deep).start < s.placement(NodeId(3)).start);
    }

    /// The borrowed-view subtree path must place every task exactly where
    /// the historical clone-based path did, for every subtree of a zoo of
    /// shapes and both postorder sub-algorithms.
    #[test]
    fn view_scheduling_matches_the_clone_path_on_every_subtree() {
        let mut mixed = TreeBuilder::new();
        let r = mixed.node(2.0, 3.0, 1.0);
        let x = mixed.child(r, 1.0, 4.0, 0.0);
        let y = mixed.child(r, 5.0, 2.0, 2.0);
        for i in 0..4 {
            mixed.child(x, 1.0 + i as f64, 3.0, 1.0);
            let z = mixed.child(y, 2.0, 1.0 + i as f64, 0.0);
            mixed.child(z, 1.0, 1.0, 0.0);
        }
        let zoo = [
            TaskTree::fork(7, 1.0, 1.0, 0.0),
            TaskTree::chain(12, 1.0, 1.0, 0.0),
            TaskTree::complete(2, 4, 1.0, 2.0, 0.5),
            TaskTree::complete(3, 3, 2.0, 1.0, 1.0),
            mixed.build().unwrap(),
        ];
        let mut sub = SubtreeScratch::new();
        for tree in &zoo {
            for seq in [
                SeqAlgo::BestPostorder,
                SeqAlgo::NaivePostorder,
                SeqAlgo::LiuExact,
            ] {
                for r in tree.ids() {
                    let n = tree.len();
                    let mut got = blank_placements(n);
                    let mut got_member = vec![false; n];
                    let fin = schedule_subtree(
                        tree,
                        r,
                        3,
                        1.0,
                        1.5,
                        seq,
                        &mut got,
                        &mut got_member,
                        &mut sub,
                    );

                    // historical clone-based reference
                    let (clone, map) = tree.subtree(r);
                    let order = seq.traversal(&clone).order;
                    let mut want = blank_placements(n);
                    let mut want_member = vec![false; n];
                    let mut t = 1.5;
                    for nid in order {
                        let orig = map[nid.index()];
                        want_member[orig.index()] = true;
                        let w = tree.work(orig);
                        want[orig.index()] = Placement {
                            proc: 3,
                            start: t,
                            finish: t + w,
                        };
                        t += w;
                    }
                    assert_eq!(fin, t, "finish time, root {r:?}");
                    assert_eq!(got_member, want_member, "membership, root {r:?}");
                    for v in tree.ids() {
                        if !want_member[v.index()] {
                            continue;
                        }
                        assert_eq!(got[v.index()], want[v.index()], "node {v:?} of root {r:?}");
                    }
                }
            }
        }
        assert!(sub.subtree_views() > 0);
    }

    #[test]
    fn liu_exact_subtree_option_works() {
        let t = TaskTree::complete(2, 4, 1.0, 3.0, 1.0);
        let s = run("ParSubtrees", &t, 3, SeqAlgo::LiuExact).schedule;
        assert!(s.validate(&t).is_ok());
        let s2 = run("ParSubtrees", &t, 3, SeqAlgo::NaivePostorder).schedule;
        assert!(s2.validate(&t).is_ok());
        // exact sequential sub-traversals can only help memory
        let m_exact = s.peak_memory(&t);
        let m_naive = s2.peak_memory(&t);
        assert!(m_exact <= m_naive + 1e-9);
    }
}
