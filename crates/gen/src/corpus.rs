//! The experiment corpus: assembly trees built through the full sparse
//! pipeline, substituting for the paper's 608 UF-collection trees
//! (76 matrices × 2 orderings × 4 amalgamation levels, paper §6.2) with
//! generated patterns put through the same ordering, elimination-tree
//! and amalgamation steps.

use treesched_model::{TaskTree, TreeStats};
use treesched_sparse::{assembly, generate, ordering, SparsePattern};

/// Corpus size knob: `Small` for unit tests, `Medium` for the default
/// experiment harness, `Large` for the full campaign.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// A handful of tiny matrices (CI-friendly).
    Small,
    /// ~80 trees from mid-size matrices (seconds to build).
    Medium,
    /// ~150 trees up to a few hundred thousand pattern rows.
    Large,
}

/// One corpus instance: an assembly tree plus its provenance.
#[derive(Clone, Debug)]
pub struct CorpusEntry {
    /// `matrix/ordering/amalgamation` identifier, e.g. `grid2d-40x40/nd/x4`.
    pub name: String,
    /// The assembly tree with the paper's multifrontal weights.
    pub tree: TaskTree,
}

impl CorpusEntry {
    /// Summary statistics of the tree.
    pub fn stats(&self) -> TreeStats {
        TreeStats::of(&self.tree)
    }
}

/// A named source matrix plus the orderings to apply to it.
struct Matrix {
    name: String,
    pattern: SparsePattern,
    orderings: Vec<(String, ordering::Ordering)>,
}

fn grid2d_matrix(nx: usize, ny: usize, stencil: generate::Stencil) -> Matrix {
    let pattern = generate::grid2d(nx, ny, stencil);
    let tag = match stencil {
        generate::Stencil::Star => "grid2d",
        generate::Stencil::Box => "grid2d9p",
    };
    Matrix {
        name: format!("{tag}-{nx}x{ny}"),
        orderings: vec![
            ("md".into(), ordering::min_degree(&pattern)),
            ("nd".into(), ordering::nested_dissection_2d(nx, ny)),
        ],
        pattern,
    }
}

fn grid3d_matrix(nx: usize, ny: usize, nz: usize) -> Matrix {
    let pattern = generate::grid3d(nx, ny, nz, generate::Stencil::Star);
    Matrix {
        name: format!("grid3d-{nx}x{ny}x{nz}"),
        orderings: vec![
            ("md".into(), ordering::min_degree(&pattern)),
            ("nd".into(), ordering::nested_dissection_3d(nx, ny, nz)),
        ],
        pattern,
    }
}

fn random_matrix(n: usize, deg: f64, seed: u64) -> Matrix {
    let pattern = generate::random_symmetric(n, deg, seed);
    Matrix {
        name: format!("rand-{n}-d{deg}"),
        orderings: vec![
            ("md".into(), ordering::min_degree(&pattern)),
            ("rcm".into(), ordering::reverse_cuthill_mckee(&pattern)),
        ],
        pattern,
    }
}

fn band_matrix(n: usize, bw: usize) -> Matrix {
    let pattern = generate::band(n, bw);
    Matrix {
        name: format!("band-{n}-bw{bw}"),
        orderings: vec![
            ("md".into(), ordering::min_degree(&pattern)),
            ("rcm".into(), ordering::reverse_cuthill_mckee(&pattern)),
        ],
        pattern,
    }
}

fn arrow_matrix(n: usize, hubs: usize) -> Matrix {
    let pattern = generate::arrow(n, hubs);
    // natural keeps the hubs last (the fill-optimal choice); MD finds the
    // same structure from scratch
    Matrix {
        name: format!("arrow-{n}-h{hubs}"),
        orderings: vec![
            ("md".into(), ordering::min_degree(&pattern)),
            ("nat".into(), ordering::Ordering::natural(n)),
        ],
        pattern,
    }
}

fn matrices(scale: Scale) -> Vec<Matrix> {
    use generate::Stencil::{Box as BoxS, Star};
    match scale {
        Scale::Small => vec![
            grid2d_matrix(8, 8, Star),
            grid3d_matrix(4, 4, 4),
            random_matrix(120, 3.0, 11),
            band_matrix(100, 4),
            arrow_matrix(150, 1),
        ],
        Scale::Medium => vec![
            grid2d_matrix(40, 40, Star),
            grid2d_matrix(60, 30, Star),
            grid2d_matrix(30, 30, BoxS),
            grid3d_matrix(10, 10, 10),
            grid3d_matrix(14, 8, 8),
            random_matrix(3000, 3.0, 1),
            random_matrix(2000, 5.0, 2),
            random_matrix(4000, 2.5, 3),
            band_matrix(3000, 8),
            band_matrix(2000, 20),
            arrow_matrix(2000, 1),
            arrow_matrix(1500, 3),
        ],
        Scale::Large => vec![
            grid2d_matrix(80, 80, Star),
            grid2d_matrix(120, 60, Star),
            grid2d_matrix(100, 100, Star),
            grid2d_matrix(60, 60, BoxS),
            grid2d_matrix(50, 40, BoxS),
            grid3d_matrix(16, 16, 16),
            grid3d_matrix(20, 12, 12),
            grid3d_matrix(24, 10, 8),
            random_matrix(10000, 3.0, 1),
            random_matrix(8000, 4.0, 2),
            random_matrix(6000, 6.0, 3),
            random_matrix(15000, 2.5, 4),
            band_matrix(10000, 8),
            band_matrix(6000, 25),
            band_matrix(4000, 50),
            arrow_matrix(8000, 1),
            arrow_matrix(5000, 4),
            arrow_matrix(3000, 16),
        ],
    }
}

/// The paper's four relaxed-amalgamation levels (§6.2).
pub const AMALGAMATION_LEVELS: [u32; 4] = [1, 2, 4, 16];

/// Builds the full corpus at the requested scale:
/// every matrix × every ordering × every amalgamation level.
pub fn assembly_corpus(scale: Scale) -> Vec<CorpusEntry> {
    let mut out = Vec::new();
    for m in matrices(scale) {
        for (oname, ord) in &m.orderings {
            let permuted = m.pattern.permute(&ord.order);
            let etree = treesched_sparse::elimination_tree(&permuted);
            let cc = treesched_sparse::column_counts(&permuted, &etree);
            for &limit in &AMALGAMATION_LEVELS {
                let tree = assembly::assembly_tree_from_etree(&etree, &cc, limit)
                    .expect("corpus patterns are connected");
                out.push(CorpusEntry {
                    name: format!("{}/{oname}/x{limit}", m.name),
                    tree,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use treesched_model::ValidateExt;

    #[test]
    fn small_corpus_shape() {
        let corpus = assembly_corpus(Scale::Small);
        // 5 matrices × 2 orderings × 4 amalgamation levels
        assert_eq!(corpus.len(), 40);
        for e in &corpus {
            assert!(e.tree.validate().is_ok(), "{}", e.name);
            assert!(e.tree.len() >= 2, "{}", e.name);
        }
    }

    #[test]
    fn names_are_unique() {
        let corpus = assembly_corpus(Scale::Small);
        let mut names: Vec<&str> = corpus.iter().map(|e| e.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), corpus.len());
    }

    #[test]
    fn amalgamation_shrinks_trees() {
        let corpus = assembly_corpus(Scale::Small);
        // entries come in groups of 4 (x1, x2, x4, x16) per matrix/ordering
        for group in corpus.chunks(4) {
            let sizes: Vec<usize> = group.iter().map(|e| e.tree.len()).collect();
            assert!(sizes[0] >= sizes[1] && sizes[1] >= sizes[2] && sizes[2] >= sizes[3]);
        }
    }

    #[test]
    fn corpus_trees_have_multifrontal_weights() {
        let corpus = assembly_corpus(Scale::Small);
        for e in &corpus {
            for i in e.tree.ids() {
                assert!(e.tree.work(i) > 0.0);
                assert!(e.tree.exec(i) >= 1.0); // η ≥ 1 ⇒ n ≥ 1
            }
            let s = e.stats();
            assert!(s.parallelism() >= 1.0);
        }
    }
}
