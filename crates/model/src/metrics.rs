//! Derived per-node metrics: depths, subtree weights, releases, critical
//! path.

use crate::TaskTree;

impl TaskTree {
    /// Edge-depth of every node (root = 0), indexed by node id. Memoized
    /// like [`TaskTree::fingerprint`]: later calls borrow the stored array.
    pub fn depths(&self) -> &[u32] {
        self.memo.depths.get_or_init(|| {
            let mut d = vec![0u32; self.len()];
            for v in self.preorder() {
                if let Some(p) = self.parent(v) {
                    d[v.index()] = d[p.index()] + 1;
                }
            }
            d
        })
    }

    /// Height of the tree in edges (max edge-depth of any node).
    pub fn height(&self) -> u32 {
        self.depths().iter().copied().max().unwrap_or(0)
    }

    /// `w`-weighted depth of every node: the sum of `w` along the path from
    /// the node to the root, **including the node's own `w_i`** (paper §5.3:
    /// “this path length includes the `w_i`”). The deepest node by this
    /// metric is the head of the critical path. Memoized like
    /// [`TaskTree::depths`].
    pub fn weighted_depths(&self) -> &[f64] {
        self.memo.weighted_depths.get_or_init(|| {
            let mut d = vec![0.0f64; self.len()];
            for v in self.preorder() {
                let up = self.parent(v).map_or(0.0, |p| d[p.index()]);
                d[v.index()] = up + self.work(v);
            }
            d
        })
    }

    /// Length of the critical path: the largest `w`-weighted root-to-node
    /// path. This is a lower bound on the makespan for any processor count.
    /// Memoized like [`TaskTree::fingerprint`].
    pub fn critical_path(&self) -> f64 {
        *self
            .memo
            .critical_path
            .get_or_init(|| self.weighted_depths().iter().copied().fold(0.0, f64::max))
    }

    /// Total work `W_i` of each subtree (sum of `w_j` over the subtree rooted
    /// at `i`, including `i` itself), indexed by node id. Used by
    /// `SplitSubtrees` (paper Algorithm 2). Memoized like
    /// [`TaskTree::depths`].
    pub fn subtree_work(&self) -> &[f64] {
        self.memo.subtree_work.get_or_init(|| {
            let mut w = self.work.clone();
            for v in self.postorder() {
                if let Some(p) = self.parent(v) {
                    w[p.index()] += w[v.index()];
                }
            }
            w
        })
    }

    /// What each task frees when it finishes, `-(n_i + Σ_{j ∈ children(i)}
    /// f_j)` (its program and its input files), indexed by node id: the
    /// finish events of the peak-memory sweep. Memoized like
    /// [`TaskTree::depths`].
    pub fn releases(&self) -> &[f64] {
        self.memo.releases.get_or_init(|| {
            self.ids()
                .map(|i| -(self.exec(i) + self.input_size(i)))
                .collect()
        })
    }

    /// Number of nodes in each subtree (including the subtree root).
    pub fn subtree_sizes(&self) -> Vec<usize> {
        let mut s = vec![1usize; self.len()];
        for v in self.postorder() {
            if let Some(p) = self.parent(v) {
                s[p.index()] += s[v.index()];
            }
        }
        s
    }

    /// Maximum out-degree (number of children) over all nodes.
    pub fn max_degree(&self) -> usize {
        self.ids()
            .map(|i| self.children(i).len())
            .max()
            .unwrap_or(0)
    }

    /// A trivial lower bound on the peak memory of **any** traversal,
    /// sequential or parallel: the largest single-task footprint
    /// `max_i local_need(i)` (every task must at some point hold its inputs,
    /// program and output simultaneously).
    pub fn max_local_need(&self) -> f64 {
        self.ids().map(|i| self.local_need(i)).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TreeBuilder;

    fn weighted_sample() -> TaskTree {
        // 0 (w=1) <- 1 (w=2) <- 3 (w=4)
        //         <- 2 (w=8) <- 4 (w=16), 5 (w=32)
        let mut b = TreeBuilder::new();
        let r = b.node(1.0, 1.0, 0.0);
        let n1 = b.child(r, 2.0, 1.0, 0.0);
        let n2 = b.child(r, 8.0, 1.0, 0.0);
        b.child(n1, 4.0, 1.0, 0.0);
        b.child(n2, 16.0, 1.0, 0.0);
        b.child(n2, 32.0, 1.0, 0.0);
        b.build().unwrap()
    }

    #[test]
    fn depths_and_height() {
        let t = weighted_sample();
        assert_eq!(t.depths(), vec![0, 1, 1, 2, 2, 2]);
        assert_eq!(t.height(), 2);
        let c = TaskTree::chain(5, 1.0, 1.0, 0.0);
        assert_eq!(c.height(), 4);
    }

    #[test]
    fn weighted_depths_include_own_work() {
        let t = weighted_sample();
        let d = t.weighted_depths();
        assert_eq!(d[0], 1.0);
        assert_eq!(d[1], 3.0); // 1 + 2
        assert_eq!(d[3], 7.0); // 1 + 2 + 4
        assert_eq!(d[5], 41.0); // 1 + 8 + 32
        assert_eq!(t.critical_path(), 41.0);
    }

    #[test]
    fn subtree_work_sums() {
        let t = weighted_sample();
        let w = t.subtree_work();
        assert_eq!(w[0], 63.0);
        assert_eq!(w[1], 6.0);
        assert_eq!(w[2], 56.0);
        assert_eq!(w[3], 4.0);
    }

    #[test]
    fn subtree_sizes_count() {
        let t = weighted_sample();
        let s = t.subtree_sizes();
        assert_eq!(s[0], 6);
        assert_eq!(s[1], 2);
        assert_eq!(s[2], 3);
        assert_eq!(s[5], 1);
    }

    #[test]
    fn degree_and_local_need_bound() {
        let t = weighted_sample();
        assert_eq!(t.max_degree(), 2);
        // root: inputs 1+1, n=0, f=1 -> 3; node 2: 1+1+0+1 = 3
        assert_eq!(t.max_local_need(), 3.0);
    }

    #[test]
    fn critical_path_of_chain_is_total_work() {
        let t = TaskTree::chain(10, 2.5, 1.0, 0.0);
        assert_eq!(t.critical_path(), 25.0);
        assert_eq!(t.total_work(), 25.0);
    }

    #[test]
    fn critical_path_of_fork() {
        let t = TaskTree::fork(7, 3.0, 1.0, 0.0);
        assert_eq!(t.critical_path(), 6.0); // leaf + root
    }
}
