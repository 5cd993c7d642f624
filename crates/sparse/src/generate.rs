//! Pattern generators: the offline substitute for the University of Florida
//! Sparse Matrix Collection corpus of the paper's §6.2, which cannot be
//! fetched in an offline build.
//!
//! Three families cover the tree-shape spectrum the paper's corpus spans:
//! grid Laplacians (mesh-like matrices → balanced, deep elimination trees
//! under nested dissection), random symmetric patterns (circuit-like →
//! bushy, irregular trees under minimum degree), and banded matrices
//! (→ chain-like trees).

use crate::pattern::SparsePattern;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Stencil shape for grid Laplacians.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stencil {
    /// 2D: 4 orthogonal neighbors; 3D: 6.
    Star,
    /// 2D: 8 neighbors including diagonals; 3D: 26.
    Box,
}

/// 2D `nx × ny` grid Laplacian pattern (5-point or 9-point stencil).
pub fn grid2d(nx: usize, ny: usize, stencil: Stencil) -> SparsePattern {
    let idx = |x: usize, y: usize| (y * nx + x) as u32;
    let mut edges = Vec::with_capacity(nx * ny * 4);
    for y in 0..ny {
        for x in 0..nx {
            if x + 1 < nx {
                edges.push((idx(x, y), idx(x + 1, y)));
            }
            if y + 1 < ny {
                edges.push((idx(x, y), idx(x, y + 1)));
            }
            if stencil == Stencil::Box && x + 1 < nx && y + 1 < ny {
                edges.push((idx(x, y), idx(x + 1, y + 1)));
                edges.push((idx(x + 1, y), idx(x, y + 1)));
            }
        }
    }
    SparsePattern::from_edges(nx * ny, &edges)
}

/// 3D `nx × ny × nz` grid Laplacian pattern (7-point or 27-point stencil).
pub fn grid3d(nx: usize, ny: usize, nz: usize, stencil: Stencil) -> SparsePattern {
    let idx = |x: usize, y: usize, z: usize| ((z * ny + y) * nx + x) as u32;
    // canonical undirected directions: first nonzero component positive
    let star: &[(i64, i64, i64)] = &[(1, 0, 0), (0, 1, 0), (0, 0, 1)];
    let boxd: &[(i64, i64, i64)] = &[
        (1, 0, 0),
        (0, 1, 0),
        (0, 0, 1),
        (1, 1, 0),
        (1, -1, 0),
        (1, 0, 1),
        (1, 0, -1),
        (0, 1, 1),
        (0, 1, -1),
        (1, 1, 1),
        (1, 1, -1),
        (1, -1, 1),
        (1, -1, -1),
    ];
    let dirs = if stencil == Stencil::Star { star } else { boxd };
    let mut edges = Vec::with_capacity(nx * ny * nz * dirs.len());
    for z in 0..nz as i64 {
        for y in 0..ny as i64 {
            for x in 0..nx as i64 {
                for &(dx, dy, dz) in dirs {
                    let (xx, yy, zz) = (x + dx, y + dy, z + dz);
                    if xx >= 0
                        && xx < nx as i64
                        && yy >= 0
                        && yy < ny as i64
                        && zz >= 0
                        && zz < nz as i64
                    {
                        edges.push((
                            idx(x as usize, y as usize, z as usize),
                            idx(xx as usize, yy as usize, zz as usize),
                        ));
                    }
                }
            }
        }
    }
    SparsePattern::from_edges(nx * ny * nz, &edges)
}

/// Random symmetric pattern with roughly `avg_offdiag` off-diagonal entries
/// per row, plus a Hamiltonian path to guarantee connectivity (so the
/// elimination tree is a single tree, as the paper's corpus assumes).
pub fn random_symmetric(n: usize, avg_offdiag: f64, seed: u64) -> SparsePattern {
    assert!(n >= 2, "need at least two rows");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    // spanning path keeps the graph connected
    for i in 1..n {
        edges.push((i as u32 - 1, i as u32));
    }
    // the path contributes ~2 off-diagonals per row; add the rest randomly
    let extra = ((avg_offdiag - 2.0).max(0.0) * n as f64 / 2.0) as usize;
    for _ in 0..extra {
        let a = rng.gen_range(0..n) as u32;
        let b = rng.gen_range(0..n) as u32;
        if a != b {
            edges.push((a.min(b), a.max(b)));
        }
    }
    SparsePattern::from_edges(n, &edges)
}

/// Arrow pattern: the last `hubs` rows/columns are dense (connected to
/// every other row), the rest are empty off the arrow. With the natural
/// ordering the elimination tree is a star of maximal degree — the source
/// of the very-high-degree assembly trees present in the paper's corpus
/// (max degree up to 175,000 in §6.2).
pub fn arrow(n: usize, hubs: usize) -> SparsePattern {
    assert!(hubs >= 1 && hubs < n, "need 1 <= hubs < n");
    let mut edges = Vec::with_capacity(n * hubs);
    for h in n - hubs..n {
        for i in 0..h {
            edges.push((i as u32, h as u32));
        }
    }
    SparsePattern::from_edges(n, &edges)
}

/// Banded symmetric pattern: row `i` is connected to rows `i±1 .. i±bw`.
pub fn band(n: usize, bw: usize) -> SparsePattern {
    let mut edges = Vec::with_capacity(n * bw);
    for i in 0..n {
        for d in 1..=bw {
            if i + d < n {
                edges.push((i as u32, (i + d) as u32));
            }
        }
    }
    SparsePattern::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid2d_degrees() {
        let p = grid2d(3, 3, Stencil::Star);
        assert_eq!(p.n(), 9);
        assert_eq!(p.degree(4), 4); // center
        assert_eq!(p.degree(0), 2); // corner
        assert_eq!(p.degree(1), 3); // edge
        assert!(p.is_connected());
    }

    #[test]
    fn grid2d_box_center_has_eight() {
        let p = grid2d(3, 3, Stencil::Box);
        assert_eq!(p.degree(4), 8);
        assert_eq!(p.degree(0), 3);
    }

    #[test]
    fn grid3d_degrees() {
        let p = grid3d(3, 3, 3, Stencil::Star);
        assert_eq!(p.n(), 27);
        assert_eq!(p.degree(13), 6); // center of the cube
        assert_eq!(p.degree(0), 3); // corner
        let b = grid3d(3, 3, 3, Stencil::Box);
        assert_eq!(b.degree(13), 26);
    }

    #[test]
    fn random_is_connected_and_dense_enough() {
        let p = random_symmetric(500, 5.0, 42);
        assert!(p.is_connected());
        let per_row = p.nnz_offdiag() as f64 / p.n() as f64;
        assert!(per_row > 3.0 && per_row < 7.0, "per-row {per_row}");
    }

    #[test]
    fn random_is_deterministic_per_seed() {
        assert_eq!(random_symmetric(100, 4.0, 7), random_symmetric(100, 4.0, 7));
        assert_ne!(random_symmetric(100, 4.0, 7), random_symmetric(100, 4.0, 8));
    }

    #[test]
    fn band_structure() {
        let p = band(6, 2);
        assert_eq!(p.neighbors(0), &[1, 2]);
        assert_eq!(p.neighbors(3), &[1, 2, 4, 5]);
        assert!(p.is_connected());
    }

    #[test]
    fn arrow_structure() {
        let p = arrow(6, 1);
        assert_eq!(p.degree(5), 5); // the hub
        assert_eq!(p.neighbors(0), &[5]);
        assert!(p.is_connected());
        let p2 = arrow(6, 2);
        assert_eq!(p2.degree(4), 5);
        assert_eq!(p2.neighbors(1), &[4, 5]);
    }

    #[test]
    fn arrow_yields_star_etree() {
        let p = arrow(20, 1);
        let et = crate::etree::elimination_tree(&p);
        for j in 0..19 {
            assert_eq!(et.parent[j], Some(19));
        }
    }
}
