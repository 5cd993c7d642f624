//! The quotient-graph `ordering::min_degree` against the textbook exact
//! minimum-degree algorithm it replaced, kept here as the oracle.
//!
//! Both pick, at every step, the live variable of smallest exact external
//! degree, ties to the smallest index, so the orders must agree entry for
//! entry on every pattern: disconnected graphs, isolated vertices, stars,
//! cliques, arrows, bands, random graphs and the degenerate sizes 0, 1, 2.
//! Cases derive from `PROPTEST_SEED` and replay exactly.

use proptest::prelude::*;
use treesched_sparse::generate;
use treesched_sparse::ordering::{self, Ordering};
use treesched_sparse::SparsePattern;

/// Textbook exact minimum degree: elements as member lists, every member's
/// degree recomputed from scratch by rescanning all adjacent elements, a
/// `(degree, index)` heap with lazy deletion.
fn min_degree_reference(p: &SparsePattern) -> Ordering {
    let n = p.n();
    let mut adj_vars: Vec<Vec<u32>> = (0..n).map(|i| p.neighbors(i).to_vec()).collect();
    let mut adj_elems: Vec<Vec<u32>> = vec![Vec::new(); n];
    let mut elems: Vec<Vec<u32>> = Vec::new();
    let mut elem_alive: Vec<bool> = Vec::new();
    let mut var_alive = vec![true; n];
    let mut degree: Vec<usize> = (0..n).map(|i| p.degree(i)).collect();
    let mut member_mark = vec![0u32; n];
    let mut scan_mark = vec![0u32; n];
    let mut elim_stamp = 0u32;
    let mut scan_stamp = 0u32;
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<(usize, u32)>> = (0..n)
        .map(|i| std::cmp::Reverse((degree[i], i as u32)))
        .collect();

    let mut order = Vec::with_capacity(n);
    while let Some(std::cmp::Reverse((d, v))) = heap.pop() {
        let v = v as usize;
        if !var_alive[v] || d != degree[v] {
            continue;
        }
        order.push(v as u32);
        var_alive[v] = false;

        elim_stamp += 1;
        let mut members: Vec<u32> = Vec::new();
        for &u in &adj_vars[v] {
            let ui = u as usize;
            if var_alive[ui] && member_mark[ui] != elim_stamp {
                member_mark[ui] = elim_stamp;
                members.push(u);
            }
        }
        for &e in &adj_elems[v] {
            if !elem_alive[e as usize] {
                continue;
            }
            for &u in &elems[e as usize] {
                let ui = u as usize;
                if var_alive[ui] && member_mark[ui] != elim_stamp {
                    member_mark[ui] = elim_stamp;
                    members.push(u);
                }
            }
            elem_alive[e as usize] = false;
        }
        let e_new = elems.len() as u32;
        elems.push(members.clone());
        elem_alive.push(true);

        for &u in &members {
            let ui = u as usize;
            adj_vars[ui].retain(|&w| {
                let wi = w as usize;
                var_alive[wi] && member_mark[wi] != elim_stamp
            });
            adj_elems[ui].retain(|&e| elem_alive[e as usize]);
            adj_elems[ui].push(e_new);
        }
        for &u in &members {
            let ui = u as usize;
            scan_stamp += 1;
            scan_mark[ui] = scan_stamp;
            let mut deg = 0usize;
            for &w in &adj_vars[ui] {
                let wi = w as usize;
                if var_alive[wi] && scan_mark[wi] != scan_stamp {
                    scan_mark[wi] = scan_stamp;
                    deg += 1;
                }
            }
            for &e in &adj_elems[ui] {
                for &w in &elems[e as usize] {
                    let wi = w as usize;
                    if var_alive[wi] && scan_mark[wi] != scan_stamp {
                        scan_mark[wi] = scan_stamp;
                        deg += 1;
                    }
                }
            }
            degree[ui] = deg;
            heap.push(std::cmp::Reverse((deg, u)));
        }
    }
    Ordering { order }
}

/// Relabels `p` by sorting vertices on `keys`, so that index tie-breaks
/// fall on different vertices from case to case.
fn relabel(p: &SparsePattern, keys: &[u32]) -> SparsePattern {
    let mut order: Vec<u32> = (0..p.n() as u32).collect();
    order.sort_by_key(|&v| (keys[v as usize % keys.len().max(1)], v));
    p.permute(&order)
}

fn edges_of(p: &SparsePattern) -> Vec<(u32, u32)> {
    (0..p.n())
        .flat_map(|i| p.neighbors(i).iter().map(move |&j| (i as u32, j)))
        .collect()
}

/// One pattern of the given `shape` on `n` vertices, plus `extra` random
/// edges (endpoints folded into range).
fn build(shape: u32, n: usize, k: usize, extra: &[(u32, u32)]) -> SparsePattern {
    let n = n.max(1);
    let k = k.clamp(1, n);
    let mut edges: Vec<(u32, u32)> = match shape {
        // a star whose hub is vertex k - 1
        0 => (0..n as u32)
            .filter(|&v| v != k as u32 - 1)
            .map(|v| (k as u32 - 1, v))
            .collect(),
        // a k-clique, the rest isolated
        1 => (0..k as u32)
            .flat_map(|a| (a + 1..k as u32).map(move |b| (a, b)))
            .collect(),
        // arrow with up to k hubs
        2 if n >= 2 => edges_of(&generate::arrow(n, k.min(n - 1))),
        // band of half-bandwidth k
        3 => edges_of(&generate::band(n, k)),
        // disjoint pieces: a k-clique, a path, a star
        4 => {
            let mut e: Vec<(u32, u32)> = (0..k as u32)
                .flat_map(|a| (a + 1..k as u32).map(move |b| (a, b)))
                .collect();
            let rest = (k..n).map(|v| v as u32).collect::<Vec<_>>();
            let (path, star) = rest.split_at(rest.len() / 2);
            e.extend(path.windows(2).map(|w| (w[0], w[1])));
            if let Some((&hub, tips)) = star.split_first() {
                e.extend(tips.iter().map(|&t| (hub, t)));
            }
            e
        }
        // a 2D grid k wide (the last row may be partial)
        5 => (0..n as u32)
            .flat_map(|v| {
                let right = (v as usize % k + 1 < k).then_some((v, v + 1));
                let down = Some((v, v + k as u32));
                right.into_iter().chain(down)
            })
            .filter(|&(_, b)| (b as usize) < n)
            .collect(),
        // random edges only (often disconnected, with isolated vertices)
        _ => Vec::new(),
    };
    edges.extend(
        extra
            .iter()
            .map(|&(a, b)| (a % n as u32, b % n as u32))
            .filter(|(a, b)| a != b),
    );
    SparsePattern::from_edges(n, &edges)
}

fn arb_pattern(max_n: usize) -> impl Strategy<Value = SparsePattern> {
    (0u32..7, 1..=max_n, 1usize..12, 0usize..3)
        .prop_flat_map(move |(shape, n, k, density)| {
            let extra = proptest::collection::vec((0..n as u32, 0..n as u32), 0..density * n + 1);
            let keys = proptest::collection::vec(0u32..1000, n);
            (Just((shape, n, k)), extra, keys)
        })
        .prop_map(|((shape, n, k), extra, keys)| relabel(&build(shape, n, k, &extra), &keys))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn orders_match_the_reference_on_small_patterns(p in arb_pattern(24)) {
        prop_assert_eq!(ordering::min_degree(&p), min_degree_reference(&p));
    }

    #[test]
    fn orders_match_the_reference_on_larger_patterns(p in arb_pattern(160)) {
        prop_assert_eq!(ordering::min_degree(&p), min_degree_reference(&p));
    }
}

#[test]
fn degenerate_sizes_match_the_reference() {
    let patterns = [
        SparsePattern::from_edges(0, &[]),
        SparsePattern::from_edges(1, &[]),
        SparsePattern::from_edges(2, &[]),
        SparsePattern::from_edges(2, &[(0, 1)]),
        SparsePattern::from_edges(3, &[(0, 2)]),
    ];
    for p in &patterns {
        assert_eq!(ordering::min_degree(p), min_degree_reference(p), "{p:?}");
    }
}

#[test]
fn generator_patterns_match_the_reference() {
    use generate::Stencil::{Box, Star};
    let patterns = [
        generate::grid2d(13, 11, Star),
        generate::grid2d(9, 9, Box),
        generate::grid3d(5, 4, 6, Star),
        generate::random_symmetric(400, 3.0, 5),
        generate::random_symmetric(300, 6.0, 6),
        generate::band(200, 7),
        generate::arrow(300, 5),
    ];
    for p in &patterns {
        assert_eq!(ordering::min_degree(p), min_degree_reference(p));
    }
}
