//! Sequential memory-optimal tree traversals.
//!
//! With a single processor the only objective is the **peak memory** of the
//! traversal (paper §1). This crate implements the classical algorithms the
//! paper builds upon:
//!
//! * [`naive_postorder`] — the postorder induced by the stored child order
//!   (baseline);
//! * [`best_postorder`] — Liu's memory-optimal *postorder* traversal
//!   (Liu 1986, ref. \[13\]): children visited in non-increasing
//!   `P_j − f_j`, `O(n log n)`. This is the sequential reference the paper's
//!   experiments use (§6.1);
//! * [`liu_exact`] — Liu's exact algorithm over **all** traversals
//!   (Liu 1987, ref. \[14\]): hill–valley segment decomposition and optimal
//!   chain merging, `O(n²)` worst case;
//! * [`peak_of_order`] — an explicit-order simulator used to cross-check
//!   every reported peak;
//! * [`oracle`] — an exponential exact DP over tree ideals, the test oracle.
//!
//! All algorithms return a [`TraversalResult`] carrying the explicit node
//! order *and* the peak, and the test-suite verifies
//! `peak_of_order(order) == peak` for each of them.
//!
//! ```
//! use treesched_model::TaskTree;
//! use treesched_seq::{best_postorder, liu_exact, peak_of_order};
//!
//! let tree = TaskTree::fork(5, 1.0, 1.0, 0.0);
//! let po = best_postorder(&tree);
//! let exact = liu_exact(&tree);
//! assert_eq!(po.peak, 6.0);          // 5 leaf files + the root's
//! assert_eq!(exact.peak, 6.0);       // no traversal does better on a fork
//! assert_eq!(peak_of_order(&tree, &exact.order).unwrap(), exact.peak);
//! ```

pub mod liu;
pub mod oracle;
pub mod postorder;
pub mod sim;

pub use liu::{liu_exact, liu_exact_view, LiuScratch};
pub use postorder::{
    best_postorder, best_postorder_view, naive_postorder, naive_postorder_view, ViewScratch,
};
pub use sim::{peak_of_order, OrderError};

use treesched_model::NodeId;

/// A sequential traversal: the explicit topological order plus its peak
/// memory.
#[derive(Clone, Debug, PartialEq)]
pub struct TraversalResult {
    /// Execution order (children always before parents).
    pub order: Vec<NodeId>,
    /// Peak memory of the traversal under the paper's memory model.
    pub peak: f64,
}

#[cfg(test)]
mod crosscheck {
    use super::*;
    use treesched_model::{TaskTree, TreeBuilder};

    /// Both optimal algorithms agree with their simulated peaks, and the
    /// exact algorithm is never worse than the postorder ones.
    #[test]
    fn algorithm_hierarchy_on_example() {
        let mut b = TreeBuilder::new();
        let r = b.node(1.0, 1.0, 0.0);
        let a = b.child(r, 1.0, 2.0, 0.0);
        b.child(a, 1.0, 9.0, 0.0);
        let c = b.child(r, 1.0, 2.0, 0.0);
        b.child(c, 1.0, 9.0, 0.0);
        let t = b.build().unwrap();

        let naive = naive_postorder(&t);
        let best = best_postorder(&t);
        let exact = liu_exact(&t);
        assert_eq!(peak_of_order(&t, &naive.order).unwrap(), naive.peak);
        assert_eq!(peak_of_order(&t, &best.order).unwrap(), best.peak);
        assert_eq!(peak_of_order(&t, &exact.order).unwrap(), exact.peak);
        assert!(best.peak <= naive.peak);
        assert!(exact.peak <= best.peak);
        assert_eq!(exact.peak, oracle::min_peak_exhaustive(&t));
    }

    #[test]
    fn chain_peak_is_adjacent_pair() {
        // chain of k nodes, f weights 1: processing node i needs f_child + f_i
        let t = TaskTree::chain(6, 1.0, 1.0, 0.0);
        for algo in [naive_postorder(&t), best_postorder(&t), liu_exact(&t)] {
            assert_eq!(algo.peak, 2.0);
        }
    }
}
