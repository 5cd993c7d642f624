//! Exact bi-objective solver for the unit-time model: the full Pareto
//! frontier of (makespan, peak memory).
//!
//! The paper's Theorem 1 shows that deciding whether both a makespan bound
//! and a memory bound can be met is NP-complete already in the Pebble Game
//! model (`w_i = 1`). This module solves small instances of that decision
//! problem *exactly* — and more: it enumerates the entire Pareto frontier —
//! by dynamic programming over *waves*.
//!
//! With unit execution times, any schedule can be normalized to
//! synchronous waves: at integer step `t` a set `S_t` of ready tasks
//! (`|S_t| ≤ p`) executes. The DP state is the set of completed tasks; for
//! each state we keep the Pareto set of `(steps, peak)` pairs over all ways
//! of reaching it. File sizes `f_i` and program sizes `n_i` remain
//! arbitrary.
//!
//! Complexity is exponential (states × wave subsets); intended for trees of
//! up to ~16 tasks as a ground-truth oracle for heuristic evaluation — see
//! `pareto_dominates_heuristics` in the integration tests.

use treesched_model::{NodeId, TaskTree};

/// Largest tree accepted by the exact solver.
pub const MAX_PARETO_NODES: usize = 20;

/// One Pareto-optimal trade-off point.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ParetoPoint {
    /// Number of unit-time steps (the makespan).
    pub makespan: u32,
    /// Peak memory over the whole execution.
    pub memory: f64,
}

/// Inserts `(steps, peak)` into a Pareto set kept sorted by ascending
/// `steps` (and thus strictly descending `peak`).
fn insert_pareto(set: &mut Vec<ParetoPoint>, p: ParetoPoint) {
    // dominated by an existing point?
    if set
        .iter()
        .any(|q| q.makespan <= p.makespan && q.memory <= p.memory + 1e-12)
    {
        return;
    }
    set.retain(|q| !(p.makespan <= q.makespan && p.memory <= q.memory + 1e-12));
    let pos = set.partition_point(|q| q.makespan < p.makespan);
    set.insert(pos, p);
}

/// Computes the exact Pareto frontier of `(makespan, peak memory)` for a
/// **unit-work** tree on `p` processors. Points are returned by increasing
/// makespan (hence decreasing memory).
///
/// # Panics
///
/// Panics when some `w_i ≠ 1`, when `p == 0`, or when the tree exceeds
/// [`MAX_PARETO_NODES`].
pub fn pareto_frontier(tree: &TaskTree, p: u32) -> Vec<ParetoPoint> {
    assert!(p > 0, "need at least one processor");
    let n = tree.len();
    assert!(
        n <= MAX_PARETO_NODES,
        "exact Pareto solver limited to {MAX_PARETO_NODES} tasks, got {n}"
    );
    for i in tree.ids() {
        assert!(
            tree.work(i) == 1.0,
            "exact Pareto solver requires unit works (task {i} has w = {})",
            tree.work(i)
        );
    }

    let child_mask: Vec<u32> = (0..n)
        .map(|i| {
            tree.children(NodeId::from_index(i))
                .iter()
                .fold(0u32, |m, c| m | (1 << c.index()))
        })
        .collect();
    let parent_bit: Vec<Option<u32>> = (0..n)
        .map(|i| {
            tree.parent(NodeId::from_index(i))
                .map(|q| 1u32 << q.index())
        })
        .collect();
    let outputs: Vec<f64> = (0..n).map(|i| tree.output(NodeId::from_index(i))).collect();
    let footprint: Vec<f64> = (0..n)
        .map(|i| {
            let id = NodeId::from_index(i);
            tree.exec(id) + tree.output(id)
        })
        .collect();

    let resident = |mask: u32| -> f64 {
        let mut r = 0.0;
        for i in 0..n {
            if mask & (1 << i) != 0 {
                match parent_bit[i] {
                    Some(pb) if mask & pb != 0 => {}
                    _ => r += outputs[i],
                }
            }
        }
        r
    };

    let full: u32 = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
    let mut frontier: std::collections::HashMap<u32, Vec<ParetoPoint>> =
        std::collections::HashMap::new();
    frontier.insert(
        0,
        vec![ParetoPoint {
            makespan: 0,
            memory: 0.0,
        }],
    );
    // waves strictly grow the done set, so iterating "levels" by total
    // completed count visits each state after all its predecessors
    let mut by_count: Vec<Vec<u32>> = vec![Vec::new(); n + 1];
    by_count[0].push(0);

    for count in 0..n {
        let states = std::mem::take(&mut by_count[count]);
        for mask in states {
            let Some(points) = frontier.get(&mask).cloned() else {
                continue;
            };
            let res = resident(mask);
            // ready tasks
            let ready: Vec<usize> = (0..n)
                .filter(|&i| mask & (1 << i) == 0 && child_mask[i] & !mask == 0)
                .collect();
            // enumerate nonempty subsets of `ready` of size ≤ p
            let r = ready.len();
            for bits in 1u32..(1 << r) {
                if bits.count_ones() > p {
                    continue;
                }
                let mut add_mask = 0u32;
                let mut wave_mem = 0.0;
                for (j, &task) in ready.iter().enumerate() {
                    if bits & (1 << j) != 0 {
                        add_mask |= 1 << task;
                        wave_mem += footprint[task];
                    }
                }
                let new_mask = mask | add_mask;
                let step_peak = res + wave_mem;
                let entry = frontier.entry(new_mask).or_insert_with(|| {
                    let c = new_mask.count_ones() as usize;
                    by_count[c].push(new_mask);
                    Vec::new()
                });
                for pt in &points {
                    insert_pareto(
                        entry,
                        ParetoPoint {
                            makespan: pt.makespan + 1,
                            memory: pt.memory.max(step_peak),
                        },
                    );
                }
            }
        }
    }
    frontier.remove(&full).unwrap_or_default()
}

/// `true` when some frontier point weakly dominates `(makespan, memory)` —
/// i.e. the measured schedule is consistent with the exact frontier.
pub fn dominated_by_frontier(frontier: &[ParetoPoint], makespan: f64, memory: f64) -> bool {
    frontier
        .iter()
        .any(|q| (q.makespan as f64) <= makespan + 1e-9 && q.memory <= memory + 1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Platform, Request, SchedulerRegistry};
    use treesched_model::{TaskTree, TreeBuilder};

    #[test]
    fn chain_single_point() {
        let t = TaskTree::chain(6, 1.0, 1.0, 0.0);
        for p in [1u32, 3] {
            let f = pareto_frontier(&t, p);
            assert_eq!(
                f,
                vec![ParetoPoint {
                    makespan: 6,
                    memory: 2.0
                }]
            );
        }
    }

    #[test]
    fn fork_single_point_per_p() {
        // fork of k pebble leaves: memory is k+1 at the root regardless of
        // pacing, so the frontier collapses to the fastest schedule
        let k = 6;
        let t = TaskTree::fork(k, 1.0, 1.0, 0.0);
        for p in [1u32, 2, 3, 6] {
            let f = pareto_frontier(&t, p);
            let steps = (k as u32).div_ceil(p) + 1;
            assert_eq!(
                f,
                vec![ParetoPoint {
                    makespan: steps,
                    memory: k as f64 + 1.0
                }]
            );
        }
    }

    #[test]
    fn sequential_memory_matches_liu_exact() {
        let mut b = TreeBuilder::new();
        let r = b.node(1.0, 1.0, 0.0);
        let a = b.child(r, 1.0, 3.0, 0.0);
        b.child(a, 1.0, 1.0, 4.0);
        b.child(a, 1.0, 2.0, 1.0);
        let c = b.child(r, 1.0, 1.0, 2.0);
        b.child(c, 1.0, 2.0, 0.0);
        let t = b.build().unwrap();
        let f1 = pareto_frontier(&t, 1);
        // with one processor the makespan is fixed at n and the best memory
        // is the sequential optimum
        assert_eq!(f1.len(), 1);
        assert_eq!(f1[0].makespan, t.len() as u32);
        assert_eq!(f1[0].memory, treesched_seq::liu_exact(&t).peak);
    }

    #[test]
    fn frontier_exhibits_tradeoff() {
        // two independent pebble chains: running them in parallel halves the
        // makespan but doubles the transient memory
        let mut b = TreeBuilder::new();
        let r = b.node(1.0, 0.0, 0.0);
        for _ in 0..2 {
            let mut c = b.pebble_child(r);
            for _ in 0..4 {
                c = b.pebble_child(c);
            }
        }
        let t = b.build().unwrap();
        let f = pareto_frontier(&t, 2);
        assert!(f.len() >= 2, "expected a real trade-off, got {f:?}");
        // frontier sorted by makespan, memory strictly decreasing
        for w in f.windows(2) {
            assert!(w[0].makespan < w[1].makespan);
            assert!(w[0].memory > w[1].memory);
        }
        // fastest point: both chains in lockstep -> 2 files + 2 in flight
        assert_eq!(f[0].makespan, 6); // 5 per chain in parallel + root
                                      // most frugal point: sequential-ish, 3 pebbles
        assert_eq!(f.last().unwrap().memory, 3.0);
    }

    #[test]
    fn heuristics_are_dominated_by_frontier() {
        let trees = [
            TaskTree::complete(2, 2, 1.0, 1.0, 0.0),
            TaskTree::fork(5, 1.0, 2.0, 1.0),
            {
                let mut b = TreeBuilder::new();
                let r = b.node(1.0, 1.0, 0.0);
                let x = b.pebble_child(r);
                b.pebble_leaves(x, 3);
                let y = b.pebble_child(r);
                b.pebble_leaves(y, 2);
                b.build().unwrap()
            },
        ];
        for t in &trees {
            for p in [1u32, 2, 3] {
                let f = pareto_frontier(t, p);
                assert!(!f.is_empty());
                for entry in SchedulerRegistry::standard().campaign() {
                    let h = entry.name();
                    let req = Request::new(t, Platform::new(p));
                    let ev = entry.scheduler().schedule_once(&req).unwrap().eval;
                    assert!(
                        dominated_by_frontier(&f, ev.makespan, ev.peak_memory),
                        "{h} p={p}: ({}, {}) beats the exact frontier {f:?}",
                        ev.makespan,
                        ev.peak_memory
                    );
                }
            }
        }
    }

    #[test]
    fn theorem1_bounds_are_on_the_frontier() {
        // a small 3-partition instance: m = 1, B = 3, a = [1, 1, 1]
        // (degenerate but legal for the construction): p = 3B = 9,
        // B_mem = 3B + 3 = 12, B_Cmax = 3
        let mut b = TreeBuilder::new();
        let r = b.node(1.0, 1.0, 0.0);
        for _ in 0..3 {
            let ni = b.pebble_child(r);
            b.pebble_leaves(ni, 3);
        }
        let t = b.build().unwrap();
        let f = pareto_frontier(&t, 9);
        assert!(
            dominated_by_frontier(&f, 3.0, 12.0),
            "theorem-1 witness point missing from {f:?}"
        );
        // and the bounds are tight: nothing strictly better exists
        assert!(!dominated_by_frontier(&f, 2.99, 12.0));
        let best_mem_at_3: f64 = f
            .iter()
            .filter(|q| q.makespan <= 3)
            .map(|q| q.memory)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(best_mem_at_3, 12.0);
    }

    #[test]
    fn insert_pareto_prunes_dominated() {
        let mut s = Vec::new();
        insert_pareto(
            &mut s,
            ParetoPoint {
                makespan: 5,
                memory: 10.0,
            },
        );
        insert_pareto(
            &mut s,
            ParetoPoint {
                makespan: 6,
                memory: 12.0,
            },
        ); // dominated
        assert_eq!(s.len(), 1);
        insert_pareto(
            &mut s,
            ParetoPoint {
                makespan: 4,
                memory: 11.0,
            },
        );
        insert_pareto(
            &mut s,
            ParetoPoint {
                makespan: 3,
                memory: 9.0,
            },
        ); // dominates both
        assert_eq!(
            s,
            vec![ParetoPoint {
                makespan: 3,
                memory: 9.0
            }]
        );
    }

    #[test]
    #[should_panic(expected = "unit works")]
    fn rejects_weighted_works() {
        let t = TaskTree::chain(3, 2.0, 1.0, 0.0);
        let _ = pareto_frontier(&t, 2);
    }
}
