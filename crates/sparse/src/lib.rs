//! Sparse-matrix substrate producing the paper's assembly-tree workloads.
//!
//! The paper's corpus (§6.2) runs sparse matrices through
//! `ordering → elimination tree → column counts → relaxed amalgamation →
//! weight formulas`. This crate rebuilds that pipeline from scratch:
//!
//! * [`pattern::SparsePattern`] — symmetric nonzero structures;
//! * [`generate`] — grid Laplacians, random symmetric and banded patterns
//!   (the offline substitute for the UF Sparse Matrix Collection);
//! * [`ordering`] — exact minimum degree (what `amd` approximates),
//!   reverse Cuthill–McKee, and geometric nested dissection (the MeTiS
//!   role on grids);
//! * [`etree`] — elimination trees (Liu's algorithm) and factor column
//!   counts, with a reference symbolic factorization as oracle;
//! * [`assembly`] — relaxed node amalgamation and the multifrontal weight
//!   formulas `n_i = η² + 2η(µ−1)`, `w_i = ⅔η³ + η²(µ−1) + η(µ−1)²`,
//!   `f_i = (µ−1)²`.
//!
//! ```
//! use treesched_sparse::{generate, ordering, assembly};
//!
//! let pattern = generate::grid2d(8, 8, generate::Stencil::Star);
//! let order = ordering::min_degree(&pattern);
//! let tree = assembly::assembly_tree_ordered(&pattern, &order, 4).unwrap();
//! assert!(tree.len() <= 64);
//! ```

pub mod assembly;
pub mod etree;
pub mod generate;
pub mod ordering;
pub mod pattern;
pub mod postorder;

pub use assembly::{
    assembly_tree, assembly_tree_ordered, frontal_weights, AmalgRule, FrontalWeights,
};
pub use etree::{column_counts, elimination_tree, EliminationTree};
pub use ordering::Ordering;
pub use pattern::SparsePattern;
pub use postorder::{etree_postorder, is_postordered, permute_etree};
