//! Event-driven list scheduling (paper Algorithm 3).
//!
//! The scheduler is driven by task-finish events. At each event, tasks whose
//! children have all completed become *ready* and enter a priority queue;
//! every idle processor is then given the head of the queue. The queue
//! ordering is the only degree of freedom: `ParInnerFirst`,
//! `ParDeepestFirst` and the textbook baselines of the
//! [`crate::api::SchedulerRegistry`] are all instances with different
//! priority keys, lowered to [`Key3`].
//!
//! [`list_schedule`] is the one event loop and the one entry point. It runs
//! on any [`Speeds`] (each ready task goes to the free processor where it
//! finishes earliest) and optionally pays cross-domain transfer costs
//! ([`CommCosts`]); custom priorities reach it through
//! [`crate::api::Scratch::run_list_schedule`].
//!
//! As a list scheduling algorithm, any instance is a `(2 − 1/p)`-
//! approximation for makespan minimization (Graham 1966, paper §5.2/§5.3).

use crate::schedule::{Placement, Schedule};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use treesched_model::{NodeId, TaskTree};

/// Totally ordered `f64` for use inside priority keys (weights are validated
/// finite, so `total_cmp` agrees with the usual order).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TotalF64(pub f64);

impl Eq for TotalF64 {}
impl PartialOrd for TotalF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TotalF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Canonical encoded priority key: three `u64` components compared
/// lexicographically, **smaller = higher priority**. Every built-in
/// priority scheme lowers into this shape so the ready queue inside
/// [`ListScratch`] can be reused across schedulers and trees without
/// re-allocating (see [`crate::api::Scratch`]).
pub type Key3 = (u64, u64, u64);

/// Order-preserving encoding of an `f64` into a `u64`: for finite `a`, `b`,
/// `a.total_cmp(&b) == key_from_f64(a).cmp(&key_from_f64(b))`.
#[inline]
pub fn key_from_f64(x: f64) -> u64 {
    let b = x.to_bits();
    if b & (1 << 63) != 0 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Reusable state for [`list_schedule`]: the ready queue, the event
/// queue, and the bookkeeping tables. Clearing these instead of
/// re-allocating them is what lets a corpus campaign of thousands of
/// schedules run without per-schedule heap churn.
///
/// It also keeps the last schedule's two orders, which the evaluator
/// sorts its event keys from: tasks in dispatch order and in completion
/// order.
#[derive(Default)]
pub struct ListScratch {
    ready: BinaryHeap<Reverse<(Key3, NodeId)>>,
    events: BinaryHeap<Reverse<(TotalF64, NodeId)>>,
    remaining_children: Vec<usize>,
    free: ClassPool,
    proc_of: Vec<u32>,
    /// Tasks as they were dispatched, each instant's group by id.
    dispatched: Vec<NodeId>,
    /// Tasks as the event queue popped their finish.
    completed: Vec<NodeId>,
}

impl ListScratch {
    /// The last schedule's tasks in dispatch order: instant by instant,
    /// each instant's group by id. Without transfer delays every task
    /// starts when it is dispatched, so this is the start order, ties by
    /// id, except where a zero-work task frees its processor for a second
    /// group at the same instant.
    pub(crate) fn dispatch_order(&self) -> &[NodeId] {
        &self.dispatched
    }

    /// The last schedule's tasks in the order the event queue popped their
    /// finish, `(finish, id)`, except that a zero-work task's finish pops
    /// one round after the peers it ties with.
    pub(crate) fn completion_order(&self) -> &[NodeId] {
        &self.completed
    }
}

/// Pool of idle processors grouped by speed class, replacing the historical
/// free-stack with its O(p) fastest-free scan and `Vec::remove` shift.
///
/// The classes are the distinct speeds in non-increasing order; each class
/// owns a fixed contiguous LIFO segment of `slots`. `pop_best`
/// takes the newest entry of the fastest non-empty class — exactly the
/// processor the historical scan picked (ties keep the last-freed slot) —
/// in `O(#classes)` without touching the heap. With a single class
/// (uniform speeds) the pool *is* the historical LIFO stack.
#[derive(Clone, Debug, Default)]
pub struct ClassPool {
    /// Speed-class index of each processor.
    class_of: Vec<u32>,
    /// Start offset of each class's segment in `slots`.
    base: Vec<u32>,
    /// Current fill of each class's segment.
    len: Vec<u32>,
    /// Backing storage, one slot per processor.
    slots: Vec<u32>,
    /// Distinct speeds, non-increasing (parallel to `base`/`len`).
    class_speed: Vec<f64>,
    /// Total idle processors, for an O(1) emptiness check.
    avail: u32,
}

impl ClassPool {
    /// Rebuilds the pool for `speeds` with every processor idle, reusing
    /// the existing buffers (no allocation when capacities suffice).
    fn rebuild(&mut self, speeds: Speeds<'_>) {
        let p = speeds.count() as usize;
        self.class_of.clear();
        self.class_speed.clear();
        match speeds {
            Speeds::Unit(_) => {
                self.class_speed.push(1.0);
                self.class_of.resize(p, 0);
            }
            Speeds::Per(s) => {
                self.class_speed.extend_from_slice(s);
                self.class_speed.sort_unstable_by(|a, b| b.total_cmp(a));
                self.class_speed.dedup_by(|a, b| a.total_cmp(b).is_eq());
                self.class_of.extend(s.iter().map(|v| {
                    self.class_speed
                        .iter()
                        .position(|c| c.total_cmp(v).is_eq())
                        .expect("speed is one of the classes") as u32
                }));
            }
        }
        let classes = self.class_speed.len();
        self.base.clear();
        self.base.resize(classes, 0);
        self.len.clear();
        self.len.resize(classes, 0);
        for &c in &self.class_of {
            self.base[c as usize] += 1; // class sizes, then prefix sums
        }
        let mut offset = 0u32;
        for b in &mut self.base {
            let size = *b;
            *b = offset;
            offset += size;
        }
        self.slots.clear();
        self.slots.resize(p, 0);
        self.avail = 0;
        // proc 0 pushed last = popped first, like the historical
        // `(0..p).rev()` stack fill
        for proc in (0..p as u32).rev() {
            self.push(proc);
        }
    }

    /// Returns `proc` to the idle pool.
    #[inline]
    fn push(&mut self, proc: u32) {
        let c = self.class_of[proc as usize] as usize;
        self.slots[(self.base[c] + self.len[c]) as usize] = proc;
        self.len[c] += 1;
        self.avail += 1;
    }

    /// Takes the newest idle processor of the fastest non-empty class.
    #[inline]
    fn pop_best(&mut self) -> Option<u32> {
        for c in 0..self.len.len() {
            if self.len[c] > 0 {
                self.len[c] -= 1;
                self.avail -= 1;
                return Some(self.slots[(self.base[c] + self.len[c]) as usize]);
            }
        }
        None
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.avail == 0
    }
}

/// Per-processor execution speeds for the list scheduler.
///
/// A task of work `w` placed on processor `i` runs for `w / speed(i)`.
/// [`Speeds::Unit`] is the paper's model of identical processors and is the
/// fast path: no per-processor scan, and `w / 1.0 == w` bit-for-bit, so
/// unit-speed schedules are byte-identical to the historical ones.
#[derive(Clone, Copy, Debug)]
pub enum Speeds<'a> {
    /// `p` processors, all at speed `1.0`.
    Unit(u32),
    /// One finite, positive speed factor per processor (the slice length is
    /// the processor count). Validated upstream by
    /// [`crate::api::Platform::validate`].
    Per(&'a [f64]),
}

impl Speeds<'_> {
    /// Number of processors.
    pub fn count(&self) -> u32 {
        match self {
            Speeds::Unit(p) => *p,
            Speeds::Per(s) => s.len() as u32,
        }
    }

    /// Speed of processor `proc`.
    #[inline]
    pub fn speed(&self, proc: u32) -> f64 {
        match self {
            Speeds::Unit(_) => 1.0,
            Speeds::Per(s) => s[proc as usize],
        }
    }
}

/// Cross-domain communication context for [`list_schedule`]:
/// which memory domain each processor lives in, and what one unit of output
/// data costs to move between two domains.
#[derive(Clone, Copy, Debug)]
pub struct CommCosts<'a> {
    /// Memory-domain index of each processor, in processor index order
    /// (`u32::MAX` = no domain: unbounded memory, free communication). See
    /// [`crate::api::Platform::fill_domains`].
    pub domain_of: &'a [u32],
    /// Flattened `domains × domains` row-major transfer-cost matrix. See
    /// [`crate::api::Platform::comm`].
    pub cost: &'a [f64],
    /// Number of domains (the matrix dimension).
    pub domains: usize,
}

impl CommCosts<'_> {
    /// Transfer cost per unit of data between the domains of two
    /// processors; zero within a domain and for domain-less processors.
    #[inline]
    fn between(&self, src: u32, dst: u32) -> f64 {
        if src == dst || src == u32::MAX || dst == u32::MAX {
            0.0
        } else {
            self.cost[src as usize * self.domains + dst as usize]
        }
    }
}

/// Runs Algorithm 3: event-based list scheduling of `tree` on the
/// processors described by `speeds`, ready tasks ordered by `keys`
/// (**smaller key = higher priority**), with the node id as the final
/// deterministic tie-break.
///
/// Ready tasks leave the queue in priority order, and each is placed on the
/// free processor where it would *finish* earliest — the fastest free one;
/// ties keep the last-freed slot, which on [`Speeds::Unit`] is the
/// historical single-speed assignment. With `comm`, the pick reserves the
/// processor at event time `t` and the task waits until every child's
/// output has crossed into the processor's memory domain:
/// `start = max(t, max_c finish_c + output_c × cost(dom_c, dom))`. Without
/// it, `start = t`. An all-zero cost matrix delays nothing, but the
/// [`crate::api`] layer passes `None` for it anyway.
///
/// Every queue and table is borrowed from `scratch`, so repeated calls do
/// not re-allocate; only the returned placements are fresh.
///
/// # Panics
///
/// Panics when the processor count is 0, `keys.len() != tree.len()`, or
/// `comm.domain_of` does not have one entry per processor. The
/// [`crate::api`] layer checks these conditions and reports them as typed
/// [`crate::api::SchedError`]s instead.
pub fn list_schedule(
    tree: &TaskTree,
    speeds: Speeds<'_>,
    keys: &[Key3],
    comm: Option<&CommCosts<'_>>,
    scratch: &mut ListScratch,
) -> Schedule {
    let p = speeds.count();
    assert!(p > 0, "need at least one processor");
    assert_eq!(keys.len(), tree.len(), "one key per task");
    if let Some(comm) = comm {
        assert_eq!(comm.domain_of.len(), p as usize, "one domain per processor");
    }
    let n = tree.len();
    let ListScratch {
        ready,
        events,
        remaining_children,
        free,
        proc_of,
        dispatched,
        completed,
    } = scratch;

    // ready queue: min-heap on (key, id); finish events: min-heap on (time, node)
    ready.clear();
    events.clear();
    remaining_children.clear();
    remaining_children.extend((0..n).map(|i| tree.children(NodeId::from_index(i)).len()));
    for i in tree.ids() {
        if tree.is_leaf(i) {
            ready.push(Reverse((keys[i.index()], i)));
        }
    }
    free.rebuild(speeds);
    proc_of.clear();
    proc_of.resize(n, 0);
    dispatched.clear();
    dispatched.reserve(n);
    completed.clear();
    completed.reserve(n);
    let mut placements: Vec<Placement> = vec![
        Placement {
            proc: 0,
            start: f64::NAN,
            finish: f64::NAN
        };
        n
    ];

    let assign = |t: f64,
                  ready: &mut BinaryHeap<Reverse<(Key3, NodeId)>>,
                  events: &mut BinaryHeap<Reverse<(TotalF64, NodeId)>>,
                  free: &mut ClassPool,
                  placements: &mut Vec<Placement>,
                  proc_of: &mut [u32],
                  dispatched: &mut Vec<NodeId>| {
        let group = dispatched.len();
        while !free.is_empty() && !ready.is_empty() {
            let Reverse((_, node)) = ready.pop().expect("nonempty");
            // Every free processor can start the task at `t`, so the
            // earliest-finishing one is the fastest.
            let proc = free.pop_best().expect("nonempty");
            let mut start = t;
            if let Some(comm) = comm {
                let dst = comm.domain_of[proc as usize];
                for &c in tree.children(node) {
                    let src = comm.domain_of[proc_of[c.index()] as usize];
                    let delay = tree.output(c) * comm.between(src, dst);
                    if delay > 0.0 {
                        let earliest = placements[c.index()].finish + delay;
                        if earliest > start {
                            start = earliest;
                        }
                    }
                }
            }
            let finish = start + tree.work(node) / speeds.speed(proc);
            placements[node.index()] = Placement {
                proc,
                start,
                finish,
            };
            proc_of[node.index()] = proc;
            events.push(Reverse((TotalF64(finish), node)));
            dispatched.push(node);
        }
        dispatched[group..].sort_unstable();
    };

    // initial assignment at t = 0
    assign(
        0.0,
        ready,
        events,
        free,
        &mut placements,
        proc_of,
        dispatched,
    );

    while let Some(&Reverse((TotalF64(t), _))) = events.peek() {
        // pop every task finishing exactly at t, release its processor, and
        // promote parents that became ready
        while let Some(&Reverse((TotalF64(tf), node))) = events.peek() {
            if tf > t {
                break;
            }
            events.pop();
            completed.push(node);
            free.push(proc_of[node.index()]);
            if let Some(parent) = tree.parent(node) {
                let r = &mut remaining_children[parent.index()];
                *r -= 1;
                if *r == 0 {
                    ready.push(Reverse((keys[parent.index()], parent)));
                }
            }
        }
        assign(t, ready, events, free, &mut placements, proc_of, dispatched);
    }

    Schedule {
        processors: p,
        placements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::try_evaluate;
    use treesched_model::{TaskTree, TreeBuilder};
    use treesched_seq::best_postorder;

    /// Priority keys replaying a fixed sequential order: ready tasks are
    /// served in the order they appear in `order`. With `p = 1` this
    /// reproduces the sequential traversal exactly.
    fn keys_from_order(tree: &TaskTree, order: &[NodeId]) -> Vec<Key3> {
        treesched_model::io::positions(tree.len(), order)
            .into_iter()
            .map(|k| (k as u64, 0, 0))
            .collect()
    }

    /// Unit-speed, comm-free list scheduling with a throwaway scratch.
    fn unit(tree: &TaskTree, p: u32, keys: &[Key3]) -> Schedule {
        list_schedule(
            tree,
            Speeds::Unit(p),
            keys,
            None,
            &mut ListScratch::default(),
        )
    }

    #[test]
    fn single_processor_replays_sequential_order() {
        let mut b = TreeBuilder::new();
        let r = b.node(1.0, 1.0, 0.0);
        let x = b.child(r, 2.0, 3.0, 1.0);
        b.child(x, 1.0, 5.0, 0.0);
        b.child(r, 3.0, 2.0, 0.0);
        let t = b.build().unwrap();
        let order = best_postorder(&t).order;
        let keys = keys_from_order(&t, &order);
        let s = unit(&t, 1, &keys);
        let ev = try_evaluate(&t, &s).unwrap();
        assert_eq!(ev.makespan, t.total_work());
        assert_eq!(
            ev.peak_memory,
            treesched_seq::peak_of_order(&t, &order).unwrap()
        );
        // tasks ran in exactly the given order
        let mut seq: Vec<NodeId> = t.ids().collect();
        seq.sort_by(|&a, &b| s.placement(a).start.total_cmp(&s.placement(b).start));
        assert_eq!(seq, order);
    }

    #[test]
    fn fork_uses_all_processors() {
        let t = TaskTree::fork(6, 1.0, 1.0, 0.0);
        let keys = keys_from_order(&t, &t.postorder());
        let s = unit(&t, 3, &keys);
        let ev = try_evaluate(&t, &s).unwrap();
        assert_eq!(ev.makespan, 3.0); // 6 leaves / 3 procs + root
        assert_eq!(s.max_concurrency(), 3);
    }

    #[test]
    fn never_exceeds_processor_count() {
        let t = TaskTree::complete(3, 4, 1.0, 1.0, 0.0);
        let keys = keys_from_order(&t, &t.postorder());
        for p in [1u32, 2, 4, 7] {
            let s = unit(&t, p, &keys);
            assert!(s.validate(&t).is_ok());
            assert!(s.max_concurrency() <= p as usize);
        }
    }

    #[test]
    fn makespan_within_graham_bound() {
        let t = TaskTree::complete(2, 6, 1.0, 1.0, 0.0);
        for p in [2u32, 4, 8] {
            let keys = keys_from_order(&t, &t.postorder());
            let s = unit(&t, p, &keys);
            let lb = (t.total_work() / p as f64).max(t.critical_path());
            let graham = (2.0 - 1.0 / p as f64) * lb;
            assert!(s.makespan() <= graham + 1e-9);
            assert!(s.makespan() >= lb - 1e-9);
        }
    }

    #[test]
    fn respects_priorities() {
        // two leaves with different priorities, one processor: the smaller
        // key runs first
        let t = TaskTree::fork(2, 1.0, 1.0, 0.0);
        let keys = [(9, 0, 0), (5, 0, 0), (3, 0, 0)]; // leaf 2 first, then leaf 1
        let s = unit(&t, 1, &keys);
        assert!(s.placement(NodeId(2)).start < s.placement(NodeId(1)).start);
    }

    #[test]
    fn inner_node_scheduled_when_ready() {
        // chain: with 4 processors only one can be busy at a time
        let t = TaskTree::chain(5, 2.0, 1.0, 0.0);
        let keys = keys_from_order(&t, &t.postorder());
        let s = unit(&t, 4, &keys);
        assert_eq!(s.makespan(), 10.0);
        assert_eq!(s.max_concurrency(), 1);
    }

    #[test]
    fn work_conserving_no_idle_when_ready() {
        // list scheduling never leaves a processor idle while a task is
        // ready: on the fork, leaves are packed tightly
        let t = TaskTree::fork(7, 1.0, 1.0, 0.0);
        let keys = keys_from_order(&t, &t.postorder());
        let s = unit(&t, 2, &keys);
        assert_eq!(s.makespan(), 5.0); // ceil(7/2) = 4 slots, then root
    }

    #[test]
    fn class_pool_matches_the_historical_free_stack_scan() {
        // drive the pool and the historical Vec-based free stack (top scan
        // with strict `>`, ties keep the newest slot) through the same
        // pop/push sequence and compare every pick
        let speeds = [2.0f64, 1.0, 2.0, 3.0, 1.0, 3.0, 2.0];
        let mut pool = ClassPool::default();
        pool.rebuild(Speeds::Per(&speeds));
        let mut stack: Vec<u32> = (0..speeds.len() as u32).rev().collect();
        let reference_pop = |stack: &mut Vec<u32>| {
            let mut best = stack.len() - 1;
            for j in (0..best).rev() {
                if speeds[stack[j] as usize] > speeds[stack[best] as usize] {
                    best = j;
                }
            }
            stack.remove(best)
        };
        let mut held: Vec<u32> = Vec::new();
        for step in 0..200u32 {
            let pop_turn = step % 5 < 3;
            if pop_turn && !stack.is_empty() {
                let want = reference_pop(&mut stack);
                let got = pool.pop_best().expect("pool agrees stack is nonempty");
                assert_eq!(got, want, "step {step}");
                held.push(got);
            } else if let Some(proc) = held.pop() {
                stack.push(proc);
                pool.push(proc);
            }
        }
        while !stack.is_empty() {
            assert_eq!(pool.pop_best(), Some(reference_pop(&mut stack)));
        }
        assert!(pool.pop_best().is_none());
        assert!(pool.is_empty());
    }

    #[test]
    fn key_encoding_preserves_f64_order() {
        let xs: [f64; 8] = [-1e30, -2.5, -0.0, 0.0, 1e-300, 1.0, 2.5, 1e30];
        for a in xs {
            for b in xs {
                assert_eq!(
                    a.total_cmp(&b),
                    key_from_f64(a).cmp(&key_from_f64(b)),
                    "{a} vs {b}"
                );
            }
        }
    }

    #[test]
    #[should_panic]
    fn zero_processors_panics() {
        let t = TaskTree::chain(2, 1.0, 1.0, 0.0);
        let keys = keys_from_order(&t, &t.postorder());
        let _ = unit(&t, 0, &keys);
    }

    #[test]
    fn all_unit_per_speeds_match_the_unit_fast_path_exactly() {
        // Speeds::Per with all-1.0 entries must take the same decisions as
        // Speeds::Unit, down to the processor indices — this is what makes
        // "uniform heterogeneous" platforms bit-compatible with homogeneous
        // ones.
        let mut scratch = ListScratch::default();
        for t in [
            TaskTree::fork(9, 1.0, 1.0, 0.0),
            TaskTree::complete(3, 4, 1.0, 1.0, 0.0),
            TaskTree::chain(7, 2.0, 1.0, 0.0),
        ] {
            let keys = keys_from_order(&t, &t.postorder());
            for p in [1usize, 3, 5] {
                let unit = list_schedule(&t, Speeds::Unit(p as u32), &keys, None, &mut scratch);
                let ones = vec![1.0f64; p];
                let per = list_schedule(&t, Speeds::Per(&ones), &keys, None, &mut scratch);
                assert_eq!(unit, per, "p={p}");
            }
        }
    }

    #[test]
    fn tasks_go_to_the_fastest_free_processor() {
        // fork with 2 leaves on a fast + slow pair: the higher-priority leaf
        // takes the fast processor, and the root (ready when both finish)
        // also lands on the fast one
        let t = TaskTree::fork(2, 1.0, 1.0, 0.0);
        let keys = keys_from_order(&t, &t.postorder());
        let speeds = [2.0f64, 1.0];
        let mut scratch = ListScratch::default();
        let s = list_schedule(&t, Speeds::Per(&speeds), &keys, None, &mut scratch);
        // leaf 1 (first in postorder) on proc 0 at speed 2: finishes at 0.5
        assert_eq!(s.placement(NodeId(1)).proc, 0);
        assert_eq!(s.placement(NodeId(1)).finish, 0.5);
        // leaf 2 runs concurrently on the slow processor
        assert_eq!(s.placement(NodeId(2)).proc, 1);
        assert_eq!(s.placement(NodeId(2)).finish, 1.0);
        // root becomes ready at t = 1 and picks the fast (free) processor
        assert_eq!(s.placement(NodeId(0)).proc, 0);
        assert_eq!(s.placement(NodeId(0)).start, 1.0);
        assert_eq!(s.placement(NodeId(0)).finish, 1.5);
    }

    #[test]
    fn faster_processors_shorten_the_makespan() {
        let t = TaskTree::complete(2, 5, 1.0, 1.0, 0.0);
        let keys = keys_from_order(&t, &t.postorder());
        let mut scratch = ListScratch::default();
        let uniform = list_schedule(&t, Speeds::Unit(4), &keys, None, &mut scratch);
        let boosted = [4.0f64, 1.0, 1.0, 1.0];
        let het = list_schedule(&t, Speeds::Per(&boosted), &keys, None, &mut scratch);
        assert!(het.makespan() < uniform.makespan());
    }
}
