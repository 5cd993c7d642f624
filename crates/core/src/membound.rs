//! Memory-capped list scheduling — the paper's stated future work (§7:
//! *"we will consider designing scheduling algorithms that take as input a
//! cap on the memory usage"*).
//!
//! Two admission policies are provided:
//!
//! * [`Admission::SequentialOrder`] (default, **safe**): tasks may only
//!   *start* in the order of a reference sequential traversal `σ` (children
//!   of a task precede it in `σ`, so dependencies are compatible). Multiple
//!   consecutive `σ`-tasks run concurrently when memory allows. Key
//!   property: if every started task has finished, the resident memory
//!   equals the sequential resident memory before the next `σ`-step, so
//!   whenever `cap ≥ peak(σ)` the next task *always* fits — the scheduler
//!   never deadlocks and **never exceeds the cap**. This is the
//!   "activation order" idea later formalized by the authors' follow-up
//!   work on memory-bounded tree scheduling.
//! * [`Admission::Greedy`]: scan the ready queue in priority order and
//!   start anything that fits. More parallelism-seeking, but it can paint
//!   itself into a corner (fill memory with leaf outputs whose parents no
//!   longer fit) and then must *force-admit* a task over the cap to make
//!   progress; each forced admission is counted as a violation. Note the
//!   skip-scan costs `O(ready)` per event once memory is saturated —
//!   `O(n · width)` worst case — so this policy is a comparison baseline,
//!   not the production path.
//!
//! A run reporting `violations == 0` stayed under the cap throughout.

use crate::listsched::TotalF64;
use crate::schedule::{Placement, Schedule};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use treesched_model::{NodeId, TaskTree};

/// Admission policy of the memory-capped scheduler.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Admission {
    /// Start tasks in the reference sequential order; safe for any cap at
    /// least the sequential traversal's peak.
    #[default]
    SequentialOrder,
    /// Start any ready task that fits, in priority order; may violate an
    /// otherwise-feasible cap.
    Greedy,
}

/// Outcome of a memory-capped scheduling run.
#[derive(Clone, Debug)]
pub struct MemBoundedRun {
    /// The produced schedule (always dependency- and processor-valid).
    pub schedule: Schedule,
    /// Number of forced admissions that exceeded the cap.
    pub violations: usize,
    /// Peak memory actually reached.
    pub peak_memory: f64,
}

/// Memory-capped scheduling of `tree` on `p` processors under `cap`.
///
/// `order` is the reference sequential traversal (typically
/// [`treesched_seq::best_postorder`]); under [`Admission::SequentialOrder`]
/// it is also the activation order, and under [`Admission::Greedy`] it
/// provides the ready-queue priorities.
///
/// This is [`mem_bounded_schedule_domains`] on one shared domain of `p`
/// unit-speed processors.
///
/// # Panics
///
/// Panics when `p == 0` or when `order` is not a permutation of the nodes.
pub fn mem_bounded_schedule(
    tree: &TaskTree,
    p: u32,
    order: &[NodeId],
    cap: f64,
    policy: Admission,
) -> MemBoundedRun {
    let (speeds, domain_of) = (vec![1.0; p as usize], vec![0; p as usize]);
    let ctx = DomainCtx {
        speeds: &speeds,
        domain_of: &domain_of,
        caps: &[cap],
    };
    mem_bounded_schedule_domains(tree, &ctx, order, policy)
}

/// Per-processor platform context for [`mem_bounded_schedule_domains`]: one
/// speed and one memory-domain index per processor (`u32::MAX` = no domain:
/// unbounded memory), plus one capacity per domain. Built from a
/// [`crate::api::Platform`] via `fill_speeds` / `fill_domains`; the flat
/// shared-cap case is one domain holding every processor.
#[derive(Clone, Copy, Debug)]
pub struct DomainCtx<'a> {
    /// Speed of each processor, in processor index order.
    pub speeds: &'a [f64],
    /// Memory-domain index of each processor (`u32::MAX` = none).
    pub domain_of: &'a [u32],
    /// Capacity of each domain, in domain index order.
    pub caps: &'a [f64],
}

/// Domain- and speed-aware memory-capped scheduling: the kernel behind
/// [`mem_bounded_schedule`] that *enforces* each memory domain's capacity
/// during admission (where [`crate::schedule::Schedule::domain_peaks`] only
/// reports the peaks after the fact) and runs each task for `w / speed` on
/// its processor.
///
/// Memory accounting mirrors `domain_peaks` exactly: a task's footprint
/// (`exec + output`) is charged to the domain of the processor it starts
/// on; at finish its `exec` is released there and each input file is
/// released from the domain of the *child* that produced it. A task is
/// admitted on the first idle processor — fastest first, ties by index —
/// whose domain has room for the footprint (processors outside every
/// domain are never memory-blocked). When nothing runs and no processor's
/// domain has room, a task is force-admitted on the first idle processor
/// and counted in [`MemBoundedRun::violations`], under either policy.
/// [`MemBoundedRun::peak_memory`] stays the *global* resident peak, equal
/// to `schedule.peak_memory(tree)`.
///
/// The flat case — equal speeds, one domain holding every processor, as
/// [`mem_bounded_schedule`] builds it — keeps the flat scheduler's own
/// rules, which its pinned schedules record: admission tests the running
/// global sum (`exec + output` in, `exec + input_size` out), and idle
/// processors form one LIFO stack, so a task takes the processor freed
/// last (lowest index first at the start).
///
/// # Panics
///
/// Panics when there are no processors, `order` is not a permutation of
/// the nodes, or the context slices disagree on the processor count.
pub fn mem_bounded_schedule_domains(
    tree: &TaskTree,
    ctx: &DomainCtx<'_>,
    order: &[NodeId],
    policy: Admission,
) -> MemBoundedRun {
    let p = ctx.speeds.len();
    assert!(p > 0, "need at least one processor");
    assert_eq!(ctx.domain_of.len(), p, "one domain per processor");
    let n = tree.len();
    assert_eq!(order.len(), n, "order must cover every task");
    let eps: Vec<f64> = ctx.caps.iter().map(|c| 1e-9 * (1.0 + c.abs())).collect();
    let pos = treesched_model::io::positions(n, order);

    // the admission scan order — fastest first, ties by index — cut into
    // runs of equal speed and domain: the processors of a run are equally
    // fit for any task, so each run keeps its idle processors on one stack
    let mut prio: Vec<u32> = (0..p as u32).collect();
    prio.sort_by(|&a, &b| ctx.speeds[b as usize].total_cmp(&ctx.speeds[a as usize]));
    let key = |proc: u32| {
        (
            ctx.speeds[proc as usize].to_bits(),
            ctx.domain_of[proc as usize],
        )
    };
    let mut run_of = vec![0usize; p];
    let mut run_domain: Vec<u32> = Vec::new();
    let mut idle: Vec<Vec<u32>> = Vec::new();
    for (k, &proc) in prio.iter().enumerate() {
        if k == 0 || key(proc) != key(prio[k - 1]) {
            run_domain.push(ctx.domain_of[proc as usize]);
            idle.push(Vec::new());
        }
        run_of[proc as usize] = run_domain.len() - 1;
        idle.last_mut().expect("a run is open").push(proc);
    }
    for stack in &mut idle {
        stack.reverse(); // lowest index on top
    }
    // one run in one domain — the flat case: admission tests the global
    // resident sum, and a freed processor goes back on top of the stack;
    // otherwise each domain tests its own level, and each run hands out
    // its lowest idle index
    let flat = run_domain.len() == 1 && run_domain[0] != u32::MAX;

    let mut events: BinaryHeap<Reverse<(TotalF64, NodeId)>> = BinaryHeap::new();
    let mut done = vec![false; n];
    let mut remaining_children: Vec<usize> = (0..n)
        .map(|i| tree.children(NodeId::from_index(i)).len())
        .collect();
    let mut ready: BinaryHeap<Reverse<(usize, NodeId)>> = BinaryHeap::new();
    if policy == Admission::Greedy {
        for i in tree.ids() {
            if tree.is_leaf(i) {
                ready.push(Reverse((pos[i.index()], i)));
            }
        }
    }
    let mut cursor = 0usize;

    struct DomState {
        resident: Vec<f64>,
        total: f64,
        peak: f64,
        running: usize,
        violations: usize,
        idle: Vec<Vec<u32>>,
        idle_count: usize,
        proc_of: Vec<u32>,
        placements: Vec<Placement>,
    }

    let mut st = DomState {
        resident: vec![0.0; ctx.caps.len()],
        total: 0.0,
        peak: 0.0,
        running: 0,
        violations: 0,
        idle,
        idle_count: p,
        proc_of: vec![0; n],
        placements: vec![
            Placement {
                proc: 0,
                start: f64::NAN,
                finish: f64::NAN
            };
            n
        ],
    };

    // first run with an idle processor whose domain fits `footprint`, or
    // — with `force` — simply the first run with an idle processor
    let pick = |st: &DomState, footprint: f64, force: bool| -> Option<usize> {
        let mut fallback = None;
        for (g, &d) in run_domain.iter().enumerate() {
            if st.idle[g].is_empty() {
                continue;
            }
            fallback.get_or_insert(g);
            if d == u32::MAX {
                return Some(g);
            }
            let level = if flat {
                st.total
            } else {
                st.resident[d as usize]
            };
            if level + footprint <= ctx.caps[d as usize] + eps[d as usize] {
                return Some(g);
            }
        }
        fallback.filter(|_| force)
    };

    let start = |st: &mut DomState,
                 node: NodeId,
                 g: usize,
                 t: f64,
                 events: &mut BinaryHeap<Reverse<(TotalF64, NodeId)>>| {
        let proc = st.idle[g]
            .pop()
            .expect("pick returns a run with an idle processor");
        st.idle_count -= 1;
        let finish = t + tree.work(node) / ctx.speeds[proc as usize];
        st.placements[node.index()] = Placement {
            proc,
            start: t,
            finish,
        };
        st.proc_of[node.index()] = proc;
        events.push(Reverse((TotalF64(finish), node)));
        let footprint = tree.exec(node) + tree.output(node);
        let d = ctx.domain_of[proc as usize];
        if d != u32::MAX {
            st.resident[d as usize] += footprint;
        }
        st.total += footprint;
        st.peak = st.peak.max(st.total);
        st.running += 1;
    };

    let admit_sequential =
        |st: &mut DomState,
         cursor: &mut usize,
         t: f64,
         done: &[bool],
         events: &mut BinaryHeap<Reverse<(TotalF64, NodeId)>>| {
            while *cursor < n && st.idle_count > 0 {
                let node = order[*cursor];
                if !tree.children(node).iter().all(|c| done[c.index()]) {
                    break; // a child is still running; wait for its event
                }
                let footprint = tree.exec(node) + tree.output(node);
                if let Some(g) = pick(st, footprint, false) {
                    start(st, node, g, t, events);
                    *cursor += 1;
                } else if st.running == 0 {
                    // cap below the sequential peak: force through, count it
                    let g = pick(st, footprint, true).expect("a processor is idle");
                    start(st, node, g, t, events);
                    st.violations += 1;
                    *cursor += 1;
                } else {
                    break; // wait for running tasks to release memory
                }
            }
        };

    let admit_greedy =
        |st: &mut DomState,
         ready: &mut BinaryHeap<Reverse<(usize, NodeId)>>,
         t: f64,
         events: &mut BinaryHeap<Reverse<(TotalF64, NodeId)>>| {
            let mut skipped: Vec<(usize, NodeId)> = Vec::new();
            while st.idle_count > 0 {
                let Some(Reverse((k, node))) = ready.pop() else {
                    break;
                };
                let footprint = tree.exec(node) + tree.output(node);
                if let Some(g) = pick(st, footprint, false) {
                    start(st, node, g, t, events);
                } else {
                    skipped.push((k, node));
                }
            }
            if st.running == 0 && st.idle_count > 0 && !skipped.is_empty() {
                // nothing fits and nothing runs: force the cheapest through
                let (j, _) = skipped
                    .iter()
                    .enumerate()
                    .min_by(|(_, (_, a)), (_, (_, b))| {
                        (tree.exec(*a) + tree.output(*a))
                            .total_cmp(&(tree.exec(*b) + tree.output(*b)))
                    })
                    .expect("nonempty");
                let (_, node) = skipped.swap_remove(j);
                let footprint = tree.exec(node) + tree.output(node);
                let g = pick(&*st, footprint, true).expect("a processor is idle");
                start(st, node, g, t, events);
                st.violations += 1;
            }
            for e in skipped {
                ready.push(Reverse(e));
            }
        };

    match policy {
        Admission::SequentialOrder => {
            admit_sequential(&mut st, &mut cursor, 0.0, &done, &mut events)
        }
        Admission::Greedy => admit_greedy(&mut st, &mut ready, 0.0, &mut events),
    }

    while let Some(&Reverse((TotalF64(t), _))) = events.peek() {
        while let Some(&Reverse((TotalF64(tf), node))) = events.peek() {
            if tf > t {
                break;
            }
            events.pop();
            let proc = st.proc_of[node.index()];
            let stack = &mut st.idle[run_of[proc as usize]];
            let at = if flat {
                stack.len()
            } else {
                stack.partition_point(|&q| q > proc)
            };
            stack.insert(at, proc);
            st.idle_count += 1;
            st.running -= 1;
            // release the program from this task's domain and each input
            // file from the domain of the child that produced it
            let d = ctx.domain_of[proc as usize];
            if d != u32::MAX {
                st.resident[d as usize] -= tree.exec(node);
            }
            for &c in tree.children(node) {
                let cd = ctx.domain_of[st.proc_of[c.index()] as usize];
                if cd != u32::MAX {
                    st.resident[cd as usize] -= tree.output(c);
                }
            }
            st.total -= tree.exec(node) + tree.input_size(node);
            done[node.index()] = true;
            if policy == Admission::Greedy {
                if let Some(parent) = tree.parent(node) {
                    let r = &mut remaining_children[parent.index()];
                    *r -= 1;
                    if *r == 0 {
                        ready.push(Reverse((pos[parent.index()], parent)));
                    }
                }
            }
        }
        match policy {
            Admission::SequentialOrder => {
                admit_sequential(&mut st, &mut cursor, t, &done, &mut events)
            }
            Admission::Greedy => admit_greedy(&mut st, &mut ready, t, &mut events),
        }
    }

    debug_assert!(policy == Admission::Greedy || cursor == n);
    MemBoundedRun {
        schedule: Schedule {
            processors: p as u32,
            placements: st.placements,
        },
        violations: st.violations,
        peak_memory: st.peak,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bounds::memory_reference;
    use treesched_model::TaskTree;
    use treesched_seq::best_postorder;

    fn run(tree: &TaskTree, p: u32, cap: f64, policy: Admission) -> MemBoundedRun {
        let order = best_postorder(tree).order;
        mem_bounded_schedule(tree, p, &order, cap, policy)
    }

    #[test]
    fn generous_cap_behaves_like_unbounded() {
        let t = TaskTree::fork(6, 1.0, 1.0, 0.0);
        for policy in [Admission::SequentialOrder, Admission::Greedy] {
            let r = run(&t, 3, 1e12, policy);
            assert_eq!(r.violations, 0);
            assert!(r.schedule.validate(&t).is_ok());
            assert_eq!(r.peak_memory, r.schedule.peak_memory(&t));
        }
        // greedy with ample memory packs the leaves: 6/3 + root = 3
        assert_eq!(run(&t, 3, 1e12, Admission::Greedy).schedule.makespan(), 3.0);
    }

    /// The safety theorem for the sequential-activation policy: any cap at
    /// least the reference traversal's peak yields zero violations and a
    /// peak within the cap.
    #[test]
    fn sequential_policy_is_safe_at_reference_cap() {
        let trees = [
            TaskTree::complete(2, 5, 1.0, 1.0, 0.0),
            TaskTree::complete(3, 3, 1.0, 2.0, 0.5),
            TaskTree::fork(17, 1.0, 3.0, 1.0),
            TaskTree::chain(25, 2.0, 4.0, 1.0),
        ];
        for t in &trees {
            let mseq = memory_reference(t);
            for p in [1u32, 2, 4, 8] {
                let r = run(t, p, mseq, Admission::SequentialOrder);
                assert_eq!(r.violations, 0, "p={p}");
                assert!(r.peak_memory <= mseq + 1e-9, "p={p}");
                assert!(r.schedule.validate(t).is_ok());
            }
        }
    }

    #[test]
    fn greedy_can_violate_where_sequential_does_not() {
        // Binary tree: greedy grabs leaves across subtrees and strands
        // itself; sequential-order stays feasible at the same cap.
        let t = TaskTree::complete(2, 5, 1.0, 1.0, 0.0);
        let mseq = memory_reference(&t);
        let seq = run(&t, 8, mseq, Admission::SequentialOrder);
        let greedy = run(&t, 8, mseq, Admission::Greedy);
        assert_eq!(seq.violations, 0);
        assert!(greedy.violations > 0, "greedy should strand itself here");
    }

    #[test]
    fn cap_trades_makespan_for_memory() {
        let t = TaskTree::complete(2, 6, 1.0, 1.0, 0.0);
        let p = 8;
        let loose = run(&t, p, 1e12, Admission::SequentialOrder);
        let mseq = memory_reference(&t);
        let tight = run(&t, p, mseq, Admission::SequentialOrder);
        assert_eq!(tight.violations, 0);
        assert!(tight.peak_memory <= mseq + 1e-9);
        assert!(loose.peak_memory >= tight.peak_memory);
        assert!(loose.schedule.makespan() <= tight.schedule.makespan() + 1e-9);
    }

    #[test]
    fn infeasible_cap_still_completes_with_violations() {
        let t = TaskTree::complete(2, 3, 1.0, 5.0, 2.0);
        for policy in [Admission::SequentialOrder, Admission::Greedy] {
            let r = run(&t, 2, 0.5, policy);
            assert!(r.schedule.validate(&t).is_ok());
            assert!(r.violations > 0);
            assert_eq!(r.peak_memory, r.schedule.peak_memory(&t));
        }
    }

    #[test]
    fn chain_cap_two_is_exact() {
        let t = TaskTree::chain(20, 1.0, 1.0, 0.0);
        let r = run(&t, 4, 2.0, Admission::SequentialOrder);
        assert_eq!(r.violations, 0);
        assert_eq!(r.peak_memory, 2.0);
        assert_eq!(r.schedule.makespan(), 20.0);
    }

    #[test]
    fn sequential_policy_parallelizes_when_memory_allows() {
        // fork with ample cap: consecutive σ-leaves start concurrently
        let t = TaskTree::fork(8, 1.0, 1.0, 0.0);
        let r = run(&t, 4, 100.0, Admission::SequentialOrder);
        assert_eq!(r.violations, 0);
        assert_eq!(r.schedule.makespan(), 3.0); // 8 leaves / 4 procs + root
        assert_eq!(r.schedule.max_concurrency(), 4);
    }
}
