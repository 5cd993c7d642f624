//! Lower bounds for both objectives (paper §6.3, Figure 6).

use crate::api::Platform;
use treesched_model::TaskTree;

/// Makespan lower bound for `p` processors: the maximum of the average load
/// `W/p` and the `w`-weighted critical path. The paper uses exactly this
/// bound for Figure 6.
pub fn makespan_lower_bound(tree: &TaskTree, p: u32) -> f64 {
    assert!(p > 0, "need at least one processor");
    (tree.total_work() / p as f64).max(tree.critical_path())
}

/// [`makespan_lower_bound`] generalized to a heterogeneous [`Platform`]:
/// the maximum of the speed-weighted average load `W / Σ speed_i` (no
/// schedule can process work faster than every processor running flat out)
/// and the critical path on the fastest processor `CP / max_i speed_i`
/// (dependent work cannot be split). On unit-speed platforms this is
/// exactly [`makespan_lower_bound`], bit for bit.
///
/// The bound already accounts for cross-domain communication costs
/// ([`Platform::comm_cost`]) — by proving no transfer is *unavoidable*: a
/// schedule may colocate the whole tree inside one memory domain (every
/// domain holds at least one processor), paying zero transfer time, so no
/// universal lower bound can charge for communication and the comm-free
/// value remains the tightest simple bound on comm-bearing platforms.
pub fn makespan_lower_bound_on(tree: &TaskTree, platform: &Platform) -> f64 {
    if platform.is_unit_speed() {
        return makespan_lower_bound(tree, platform.processors());
    }
    let total_speed: f64 = platform
        .classes()
        .iter()
        .map(|c| c.count as f64 * c.speed)
        .sum();
    let max_speed = platform
        .classes()
        .iter()
        .map(|c| c.speed)
        .fold(0.0f64, f64::max);
    assert!(total_speed > 0.0, "need at least one processor");
    (tree.total_work() / total_speed).max(tree.critical_path() / max_speed)
}

/// Memory reference used by the paper (§6.1, §6.3): the peak of the
/// **optimal sequential postorder**. More processors can never require less
/// memory than an optimal sequential traversal, and the optimal postorder
/// is within 1% of it on realistic trees, so this is the paper's practical
/// lower-bound estimate for parallel peak memory.
pub fn memory_reference(tree: &TaskTree) -> f64 {
    treesched_seq::best_postorder_peak(tree)
}

/// True optimal sequential memory (Liu's exact algorithm) — a genuine lower
/// bound on the peak memory of any schedule, sequential or parallel, at
/// `O(n²)` worst-case cost.
pub fn memory_lower_bound_exact(tree: &TaskTree) -> f64 {
    treesched_seq::liu_exact(tree).peak
}

/// Trivial structural memory bound: the largest single-task footprint.
pub fn memory_lower_bound_trivial(tree: &TaskTree) -> f64 {
    tree.max_local_need()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::api::{Platform, Request, SchedulerRegistry};
    use treesched_model::TaskTree;

    #[test]
    fn makespan_bound_fork() {
        let t = TaskTree::fork(8, 1.0, 1.0, 0.0);
        assert_eq!(makespan_lower_bound(&t, 2), 4.5); // W/p = 9/2
        assert_eq!(makespan_lower_bound(&t, 8), 2.0); // CP
    }

    #[test]
    fn makespan_bound_chain_is_critical_path() {
        let t = TaskTree::chain(7, 2.0, 1.0, 0.0);
        for p in [1, 2, 4, 32] {
            assert_eq!(makespan_lower_bound(&t, p), 14.0);
        }
    }

    #[test]
    fn bound_hierarchy() {
        let t = TaskTree::complete(3, 3, 1.0, 2.0, 1.0);
        let trivial = memory_lower_bound_trivial(&t);
        let exact = memory_lower_bound_exact(&t);
        let reference = memory_reference(&t);
        assert!(trivial <= exact);
        assert!(exact <= reference);
    }

    #[test]
    fn all_heuristics_respect_bounds() {
        let t = TaskTree::complete(2, 6, 1.0, 2.0, 0.5);
        for entry in SchedulerRegistry::standard().campaign() {
            let h = entry.name();
            for p in [2u32, 4, 8] {
                let req = Request::new(&t, Platform::new(p));
                let ev = entry.scheduler().schedule_once(&req).unwrap().eval;
                assert!(
                    ev.makespan >= makespan_lower_bound(&t, p) - 1e-9,
                    "{h} p={p}"
                );
                assert!(
                    ev.peak_memory >= memory_lower_bound_exact(&t) - 1e-9,
                    "{h} p={p}"
                );
            }
        }
    }
}
