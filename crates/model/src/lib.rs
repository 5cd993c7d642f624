//! Task-tree data model for memory-aware tree scheduling.
//!
//! This crate implements the application model of Marchal, Sinnen and Vivien,
//! *“Scheduling tree-shaped task graphs to minimize memory and makespan”*
//! (INRIA RR-8082 / IPDPS 2013), section 3:
//!
//! * a rooted **in-tree** of `n` tasks where every node `i` carries
//!   - a processing time `w_i` ([`TaskTree::work`]),
//!   - an output-file size `f_i` ([`TaskTree::output`]), consumed by the parent,
//!   - an execution-file (program) size `n_i` ([`TaskTree::exec`]), resident
//!     only while the task runs;
//! * the memory footprint of running task `i` is
//!   `Σ_{j ∈ children(i)} f_j + n_i + f_i` ([`TaskTree::local_need`]).
//!
//! The crate provides arena-backed storage ([`TaskTree`]), builders
//! ([`TreeBuilder`], [`TaskTree::from_parents`]), traversal utilities
//! ([`TaskTree::postorder`] and friends), derived metrics (subtree weights,
//! weighted depths, critical path), structural validation, a plain-text
//! interchange format and DOT export ([`io`]), and summary statistics
//! ([`stats::TreeStats`]).
//!
//! All weights are `f64`; the *pebble-game* special case of the paper
//! (`f_i = 1, n_i = 0, w_i = 1`) is exactly representable.

pub mod build;
pub mod io;
pub mod metrics;
pub mod stats;
pub mod traverse;
pub mod tree;
pub mod validate;

pub use build::TreeBuilder;
pub use stats::TreeStats;
pub use tree::{
    MemoPostorder, MemoSplit, MemoTraversal, NodeId, SubtreeView, TaskTree, POSTORDER_SLOTS,
    TRAVERSAL_SLOTS,
};
pub use validate::{TreeError, ValidateExt};
