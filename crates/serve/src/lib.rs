//! Batched serving of scheduling requests — the long-lived counterpart of
//! the one-shot CLI/harness front-ends.
//!
//! Every consumer of the scheduler registry so far runs one-shot: build a
//! tree, schedule it, exit. This crate turns the same registry into a
//! service for request *streams*:
//!
//! * [`ServeEngine`] — N long-lived worker threads, each owning its own
//!   [`treesched_core::Scratch`], so the list-scheduling, split and
//!   evaluator buffers are reused across requests instead of re-allocated
//!   per call; the reference traversal is memoized in each tree
//!   ([`treesched_core::SeqAlgo::reference`]), so it is computed once per
//!   tree, not once per request;
//! * **sharding** — requests are routed to workers by the structural
//!   [`treesched_core::tree_fingerprint`] of their tree, so repeat traffic
//!   for one tree always lands on the same worker;
//! * **batching** — within one [`ServeEngine::drain`] window, requests for
//!   the same tree are grouped into a single batch and run back to back;
//! * **determinism** — results come back ordered by submission index, and
//!   every scheduler in the registry is deterministic per request, so the
//!   output stream is byte-identical no matter how many workers serve it.
//!
//! The wire protocol lives in [`jsonl`]: one JSON object per line,
//! requests in, responses out, with the response records sharing the field
//! conventions of the CLI's `schedule --json`. Platforms travel either as
//! the flat legacy `processors`/`cap` fields or as a nested `platform`
//! object (processor classes + memory domains); heterogeneous requests
//! stream through the engine exactly like uniform ones — `OwnedRequest`
//! moves the platform whole, so output stays worker-count independent.
//!
//! ```
//! use std::sync::Arc;
//! use treesched_core::{Platform, SchedulerRegistry};
//! use treesched_model::TaskTree;
//! use treesched_serve::{ServeEngine, ServeRequest};
//!
//! let mut engine = ServeEngine::new(SchedulerRegistry::standard(), 2);
//! let tree = Arc::new(TaskTree::fork(8, 1.0, 1.0, 0.0));
//! for p in [2, 4] {
//!     engine.submit(ServeRequest::new(Arc::clone(&tree), "deepest", Platform::new(p)));
//! }
//! let results = engine.drain();
//! assert_eq!(results.len(), 2);
//! assert!(results[0].outcome.is_ok());
//! assert_eq!(engine.stats().batches, 1); // same tree: one batch
//! ```

pub mod engine;
pub mod jsonl;

pub use engine::{ServeEngine, ServeOutcome, ServeRequest, ServeResult, ServeStats, MAX_WORKERS};
pub use jsonl::{
    error_json, malformed_json, platform_from_value, platform_json, result_json, JsonRecord,
    RequestRecord, ScheduleRecord,
};
