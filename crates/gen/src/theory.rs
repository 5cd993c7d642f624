//! The paper's proof constructions (§4 and §5), as instance generators.
//!
//! Every tree uses the **Pebble Game** weights (`w = f = 1`, `n = 0`) in
//! which the paper states its complexity results.

use treesched_model::{NodeId, TaskTree, TreeBuilder};

/// Figure 1: the tree of the NP-completeness reduction from 3-Partition.
///
/// A root with `3m` children `N_1 … N_3m`; `N_i` has `3m·a_i` leaf
/// children. The associated decision question uses `p = 3mB` processors,
/// `B_mem = 3mB + 3m` and `B_Cmax = 2m + 1`, where `Σ a_i = mB`.
///
/// Node ids: root = 0; `N_i` = `i` (1-based `i ≤ 3m`); leaves follow.
///
/// # Panics
///
/// Panics unless `a.len()` is a positive multiple of 3 and `Σ a_i` is
/// divisible by `a.len()/3`.
pub fn three_partition_tree(a: &[u64]) -> TaskTree {
    assert!(!a.is_empty() && a.len() % 3 == 0, "need 3m integers");
    let m = a.len() / 3;
    let total: u64 = a.iter().sum();
    assert_eq!(total % m as u64, 0, "Σ a_i must equal m·B");
    let tm = a.len(); // 3m
    let mut b = TreeBuilder::with_capacity(1 + tm + tm * total as usize);
    let root = b.node(1.0, 1.0, 0.0);
    let ns: Vec<NodeId> = (0..tm).map(|_| b.pebble_child(root)).collect();
    for (i, &ai) in a.iter().enumerate() {
        b.pebble_leaves(ns[i], tm * ai as usize);
    }
    b.build().expect("three-partition tree is valid")
}

/// The processor count `p = 3mB` of the reduction for instance `a`.
pub fn three_partition_processors(a: &[u64]) -> u32 {
    let m = (a.len() / 3) as u64;
    let b = a.iter().sum::<u64>() / m;
    (3 * m * b) as u32
}

/// Builds the schedule of the "yes" direction of Theorem 1 for a given
/// 3-partition `groups` (each entry: three 0-based indices into `a`).
/// Returns `(schedule, B_mem, B_Cmax)`; the schedule achieves exactly these
/// bounds, which the test-suite verifies through the simulator.
pub fn three_partition_schedule(
    tree: &TaskTree,
    a: &[u64],
    groups: &[[usize; 3]],
) -> (treesched_core::Schedule, f64, f64) {
    let m = groups.len();
    assert_eq!(a.len(), 3 * m);
    let tm = a.len();
    let b_val = a.iter().sum::<u64>() / m as u64;
    let p = 3 * m as u64 * b_val;
    let mut placements = vec![
        treesched_core::Placement {
            proc: 0,
            start: f64::NAN,
            finish: f64::NAN
        };
        tree.len()
    ];
    for (k, group) in groups.iter().enumerate() {
        let t_leaves = (2 * k) as f64;
        let t_inner = t_leaves + 1.0;
        let mut proc = 0u32;
        for (slot, &i) in group.iter().enumerate() {
            let n_node = NodeId((1 + i) as u32);
            // the N_i node runs in the following step on processor `slot`
            placements[n_node.index()] = treesched_core::Placement {
                proc: slot as u32,
                start: t_inner,
                finish: t_inner + 1.0,
            };
            for &leaf in tree.children(n_node) {
                placements[leaf.index()] = treesched_core::Placement {
                    proc,
                    start: t_leaves,
                    finish: t_leaves + 1.0,
                };
                proc += 1;
            }
        }
        assert_eq!(proc as u64, p, "group {k} must fill every processor");
    }
    let t_root = (2 * m) as f64;
    placements[tree.root().index()] = treesched_core::Placement {
        proc: 0,
        start: t_root,
        finish: t_root + 1.0,
    };
    let bmem = (3 * m as u64 * b_val + 3 * m as u64) as f64;
    let bcmax = (2 * m + 1) as f64;
    let schedule = treesched_core::Schedule {
        processors: p as u32,
        placements,
    };
    let _ = tm;
    (schedule, bmem, bcmax)
}

/// Figure 2: the inapproximability tree of Theorem 2.
///
/// `n` identical subtrees under the root. Subtree `i` is a chain
/// `cp_1 ← cp_2 ← … ← cp_{δ−1} ← b_δ ← b_{δ+1}`, where every `cp_j` also
/// has a child `d_j` with `δ − j + 1` leaf children.
///
/// Key properties (verified in tests): critical path `δ + 2`; optimal
/// sequential peak memory `n + δ`.
///
/// # Panics
///
/// Panics when `delta < 2` or `n == 0`.
pub fn inapprox_tree(n: usize, delta: usize) -> TaskTree {
    assert!(n >= 1 && delta >= 2, "need n ≥ 1 subtrees and δ ≥ 2");
    let mut b = TreeBuilder::new();
    let root = b.node(1.0, 1.0, 0.0);
    for _ in 0..n {
        let mut cp = b.pebble_child(root); // cp_1
        for j in 1..=delta - 1 {
            let d = b.pebble_child(cp); // d_j
            b.pebble_leaves(d, delta - j + 1);
            if j < delta - 1 {
                cp = b.pebble_child(cp); // cp_{j+1}
            }
        }
        let b_delta = b.pebble_child(cp);
        b.pebble_child(b_delta); // b_{δ+1}
    }
    b.build().expect("inapproximability tree is valid")
}

/// Number of descendants of each `cp_1` node in [`inapprox_tree`]:
/// `(δ² + 5δ − 4) / 2` (paper, proof of Theorem 2).
pub fn inapprox_subtree_descendants(delta: usize) -> usize {
    (delta * delta + 5 * delta - 4) / 2
}

/// The explicit sequential order of the Theorem 2 proof achieving the
/// optimal peak `n + δ` on [`inapprox_tree`]: subtrees one after another;
/// within subtree `i`, for `j = 1..δ−1` process the children of `d_j` then
/// `d_j` itself, then `b_{δ+1}`, `b_δ`, and finally `cp_{δ−1}` down to
/// `cp_1`; the root closes the traversal.
///
/// The test-suite replays this order through the sequential simulator and
/// checks the paper's arithmetic: the peak while processing subtree `i` is
/// exactly `i + δ`.
pub fn inapprox_witness_order(tree: &TaskTree, delta: usize) -> Vec<NodeId> {
    let mut order = Vec::with_capacity(tree.len());
    let root = tree.root();
    for &cp1 in tree.children(root) {
        // walk the cp spine collecting [cp_1, …, cp_{δ−1}], the d_j's and
        // the terminal b_δ
        let mut cps = vec![cp1];
        let mut ds = Vec::with_capacity(delta - 1);
        let mut b_delta = None;
        let mut cur = cp1;
        loop {
            let kids = tree.children(cur);
            // children of cp_j: d_j (has leaf children) and either the next
            // cp or b_δ (b_δ has exactly one child, its chain b_{δ+1})
            let mut next = None;
            for &k in kids {
                let gk = tree.children(k);
                let is_d = !gk.is_empty() && gk.iter().all(|&g| tree.is_leaf(g));
                if is_d && ds.len() < delta - 1 && gk.len() >= 2 {
                    ds.push(k);
                } else if gk.len() == 1 || gk.is_empty() {
                    b_delta = Some(k);
                } else {
                    next = Some(k);
                }
            }
            match next {
                Some(k) => {
                    cps.push(k);
                    cur = k;
                }
                None => break,
            }
        }
        let b_delta = b_delta.expect("spine ends in b_δ");
        // d_j children then d_j, for j = 1..δ−1
        for &d in &ds {
            order.extend_from_slice(tree.children(d));
            order.push(d);
        }
        // b_{δ+1} then b_δ
        let b_next = tree.children(b_delta)[0];
        order.push(b_next);
        order.push(b_delta);
        // cp_{δ−1} down to cp_1
        for &cp in cps.iter().rev() {
            order.push(cp);
        }
    }
    order.push(root);
    order
}

/// Figure 3: the fork with `p·k` unit leaves on which `ParSubtrees` is a
/// factor-`p` away from the optimal makespan.
pub fn fork_tree(p: usize, k: usize) -> TaskTree {
    TaskTree::fork(p * k, 1.0, 1.0, 0.0)
}

/// Figure 4: the gadget on which `ParInnerFirst` uses unboundedly more
/// memory than the sequential optimum.
///
/// A spine of `k − 1` join nodes, each with `p − 1` leaf children, ending
/// in a chain; the longest root-to-leaf chain has length `2k`. The optimal
/// sequential memory is `p + 1`, while `ParInnerFirst` with `p` processors
/// holds `(k−1)(p−1) + 1` files when the first join fires.
///
/// # Panics
///
/// Panics when `p < 2` or `k < 2`.
pub fn inner_first_gadget(p: usize, k: usize) -> TaskTree {
    assert!(p >= 2 && k >= 2, "need p ≥ 2 and k ≥ 2");
    let mut b = TreeBuilder::new();
    let root = b.node(1.0, 1.0, 0.0); // join 1
    let mut join = root;
    for _ in 1..k - 1 {
        b.pebble_leaves(join, p - 1);
        join = b.pebble_child(join);
    }
    b.pebble_leaves(join, p - 1);
    // terminal chain: joins occupy depths 0..k-2; chain of k+2 more nodes
    // makes the longest path 2k (2k+1 nodes; edge-length 2k)
    let mut c = b.pebble_child(join);
    for _ in 0..k + 1 {
        c = b.pebble_child(c);
    }
    b.build().expect("inner-first gadget is valid")
}

/// Figure 5: the long-chain tree on which `ParDeepestFirst` needs memory
/// proportional to the number of chains while the sequential optimum is 3.
///
/// A spine `S_1 ← S_2 ← … ← S_c`; spine node `S_i` carries a hanging chain
/// sized so that **all chain leaves share the same (deepest) depth**
/// `c + base_len`.
///
/// # Panics
///
/// Panics when `chains == 0` or `base_len == 0`.
pub fn long_chain_tree(chains: usize, base_len: usize) -> TaskTree {
    assert!(chains >= 1 && base_len >= 1, "need ≥ 1 chain of length ≥ 1");
    let mut b = TreeBuilder::new();
    let root = b.node(1.0, 1.0, 0.0); // S_1
    let mut spine = root;
    for i in 1..=chains {
        // hanging chain at S_i (depth i-1): length so the leaf depth is
        // chains + base_len
        let len = chains + base_len - i + 1;
        let mut c = b.pebble_child(spine);
        for _ in 1..len {
            c = b.pebble_child(c);
        }
        if i < chains {
            spine = b.pebble_child(spine); // S_{i+1}
        }
    }
    b.build().expect("long-chain tree is valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use treesched_core::{try_evaluate, EvalResult, Platform, Request, SchedulerRegistry};
    use treesched_model::ValidateExt;
    use treesched_seq::liu_exact;

    /// Evaluation of the registry scheduler `name` on `p` processors.
    fn run(name: &str, tree: &TaskTree, p: u32) -> EvalResult {
        let req = Request::new(tree, Platform::new(p));
        let registry = SchedulerRegistry::standard();
        registry
            .get(name)
            .unwrap()
            .schedule_once(&req)
            .unwrap()
            .eval
    }

    #[test]
    fn fig1_shape() {
        let a = [4u64, 4, 4, 4, 4, 4]; // m = 2, B = 12
        let t = three_partition_tree(&a);
        let tm = 6;
        assert_eq!(t.len(), 1 + tm + tm * 24);
        assert_eq!(t.children(t.root()).len(), tm);
        assert!(t.validate().is_ok());
        assert_eq!(three_partition_processors(&a), 72);
    }

    /// The "yes" direction of Theorem 1: a valid 3-partition yields a
    /// schedule meeting both bounds exactly.
    #[test]
    fn fig1_yes_instance_schedule_meets_bounds() {
        let a = [4u64, 4, 4, 4, 4, 4];
        let t = three_partition_tree(&a);
        let groups = [[0usize, 1, 2], [3, 4, 5]];
        let (s, bmem, bcmax) = three_partition_schedule(&t, &a, &groups);
        let ev = try_evaluate(&t, &s).unwrap();
        assert_eq!(ev.makespan, bcmax);
        assert_eq!(ev.peak_memory, bmem);
        // m = 2, B = 12: B_mem = 72 + 6, B_Cmax = 5
        assert_eq!(bmem, 78.0);
        assert_eq!(bcmax, 5.0);
    }

    #[test]
    fn fig1_uneven_instance() {
        // m = 2, B = 13, a_i ∈ (B/4, B/2)
        let a = [4u64, 4, 5, 4, 4, 5];
        let t = three_partition_tree(&a);
        let groups = [[0usize, 1, 2], [3, 4, 5]];
        let (s, bmem, bcmax) = three_partition_schedule(&t, &a, &groups);
        let ev = try_evaluate(&t, &s).unwrap();
        assert_eq!(ev.makespan, bcmax);
        assert_eq!(ev.peak_memory, bmem);
    }

    #[test]
    fn fig2_structure_and_bounds() {
        for (n, delta) in [(2usize, 3usize), (3, 4), (4, 5)] {
            let t = inapprox_tree(n, delta);
            assert!(t.validate().is_ok());
            assert_eq!(
                t.len(),
                1 + n * (1 + inapprox_subtree_descendants(delta)),
                "n={n} δ={delta}"
            );
            // critical path δ + 2 (unit works)
            assert_eq!(t.critical_path(), (delta + 2) as f64);
            // optimal sequential peak = n + δ (paper's proof)
            assert_eq!(liu_exact(&t).peak, (n + delta) as f64, "n={n} δ={delta}");
        }
    }

    /// Replays the Theorem 2 proof's explicit sequential schedule and checks
    /// the paper's arithmetic step by step: the traversal is valid, its
    /// peak is exactly `n + δ`, and the running maximum after finishing
    /// subtree `i` is `i + δ`.
    #[test]
    fn fig2_witness_order_achieves_optimum() {
        for (n, delta) in [(2usize, 3usize), (3, 5), (5, 4)] {
            let t = inapprox_tree(n, delta);
            let order = inapprox_witness_order(&t, delta);
            assert!(t.is_topological(&order), "n={n} δ={delta}");
            let peak = treesched_seq::peak_of_order(&t, &order).unwrap();
            assert_eq!(peak, (n + delta) as f64, "n={n} δ={delta}");
            // per-subtree running peaks: after the i-th subtree, the peak so
            // far is i + δ (paper: "the peak memory usage during the
            // processing of the subtree rooted at cp_1^i is i + δ")
            let profile = treesched_seq::sim::profile_of_order(&t, &order).unwrap();
            let per_subtree = (t.len() - 1) / n; // nodes per subtree
            for i in 1..=n {
                let upto = i * per_subtree;
                let running = profile[..upto].iter().fold(0.0f64, |a, &b| a.max(b));
                assert_eq!(running, (i + delta) as f64, "subtree {i}, n={n} δ={delta}");
            }
        }
    }

    #[test]
    fn fig3_fork_counts() {
        let t = fork_tree(3, 5);
        assert_eq!(t.len(), 16);
        assert_eq!(t.leaf_count(), 15);
    }

    #[test]
    fn fig4_gadget_memory_blowup() {
        let (p, k) = (4usize, 6usize);
        let t = inner_first_gadget(p, k);
        assert!(t.validate().is_ok());
        // longest chain 2k edges
        assert_eq!(t.height(), 2 * k as u32);
        // sequential optimum p + 1
        assert_eq!(liu_exact(&t).peak, (p + 1) as f64);
        // ParInnerFirst with p processors accumulates the join leaves
        let ev = run("ParInnerFirst", &t, p as u32);
        assert!(
            ev.peak_memory >= ((k - 1) * (p - 1) + 1) as f64,
            "peak {} too small",
            ev.peak_memory
        );
    }

    #[test]
    fn fig5_long_chain_memory_blowup() {
        let (c, len) = (8usize, 4usize);
        let t = long_chain_tree(c, len);
        assert!(t.validate().is_ok());
        // sequential optimum 3 (c ≥ 2)
        assert_eq!(liu_exact(&t).peak, 3.0);
        // all leaves at the same deepest level
        let depths = t.depths();
        let leaf_depths: Vec<u32> = t.leaves().iter().map(|l| depths[l.index()]).collect();
        assert!(leaf_depths.iter().all(|&d| d == leaf_depths[0]));
        // ParDeepestFirst memory grows with the number of chains
        let ev = run("ParDeepestFirst", &t, c as u32);
        assert!(
            ev.peak_memory >= c as f64,
            "peak {} < c {}",
            ev.peak_memory,
            c
        );
    }

    #[test]
    fn fig5_single_chain_degenerates() {
        let t = long_chain_tree(1, 5);
        assert_eq!(liu_exact(&t).peak, 2.0);
    }
}
