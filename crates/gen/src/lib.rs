//! Instance generators for the `treesched` workspace.
//!
//! * [`theory`] — the paper's proof constructions (Figures 1–5): the
//!   3-Partition reduction tree with its witness schedule, the
//!   inapproximability tree, the fork, and the two memory-blowup gadgets.
//! * [`random`] — random attachment / depth-biased trees and parametric
//!   shapes (caterpillars, spiders) with configurable weight ranges.
//! * [`corpus`] — the experiment corpus: assembly trees built through the
//!   full sparse pipeline of [`treesched_sparse`], replacing the paper's UF
//!   Sparse Matrix Collection input (§6.2): generated patterns go through
//!   the same ordering, elimination-tree and amalgamation steps.
//!
//! ```
//! use treesched_gen::{assembly_corpus, Scale, fork_tree};
//!
//! let corpus = assembly_corpus(Scale::Small);
//! assert_eq!(corpus.len(), 40); // 5 matrices x 2 orderings x 4 levels
//! let fig3 = fork_tree(4, 8);   // the paper's Figure 3 instance
//! assert_eq!(fig3.leaf_count(), 32);
//! ```

pub mod corpus;
pub mod random;
pub mod theory;

pub use corpus::{assembly_corpus, CorpusEntry, Scale, AMALGAMATION_LEVELS};
pub use random::{caterpillar, random_attachment, random_deep, spider, WeightRange};
pub use theory::{
    fork_tree, inapprox_tree, inner_first_gadget, long_chain_tree, three_partition_tree,
};
