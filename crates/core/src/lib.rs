//! Parallel memory/makespan-aware scheduling of task trees — the core
//! contribution of Marchal, Sinnen and Vivien (IPDPS 2013).
//!
//! The problem (paper §3): schedule a tree-shaped task graph on `p`
//! identical processors sharing one memory, minimizing both the **makespan**
//! and the **peak memory**. The decision problem is NP-complete even in the
//! unit-weight pebble-game model (Theorem 1) and the two objectives cannot
//! be simultaneously approximated within constant factors (Theorem 2), so
//! the paper proposes four heuristics spanning the trade-off — all
//! implemented here and registered in [`api::SchedulerRegistry::standard`]:
//!
//! * `ParSubtrees` / `ParSubtreesOptim` ([`heuristics::par_subtrees`] /
//!   [`heuristics::par_subtrees_optim`]) — split the tree into subtrees
//!   ([`split::split_subtrees`], Algorithm 2) processed concurrently with a
//!   sequential memory-optimal algorithm; memory-focused,
//!   `M ≤ (p+1)·M_seq`.
//! * `ParInnerFirst` — event-based list scheduling
//!   ([`listsched::list_schedule`], Algorithm 3) approximating a parallel
//!   postorder; balanced.
//! * `ParDeepestFirst` — list scheduling along the critical path;
//!   makespan-focused.
//!
//! ## The unified scheduling API
//!
//! Every scheduler in this crate — the four paper heuristics, the textbook
//! baselines, and the memory-capped wrappers — is exposed through one
//! pluggable surface in [`api`]:
//!
//! * the [`api::Scheduler`] trait:
//!   `schedule(&Request, &mut Scratch) -> Result<Outcome, SchedError>`;
//! * [`api::Platform`] (processor classes with per-class speeds + memory
//!   domains; the paper's `p`-identical-processors machine is the flat
//!   special case built by [`api::Platform::new`]),
//!   [`api::Request`] (tree + platform + [`SeqAlgo`] choice), and
//!   [`api::Outcome`] (schedule + validated [`EvalResult`] + per-domain
//!   peaks + diagnostics);
//! * [`api::SchedulerRegistry`] — name-based lookup with canonical names
//!   and aliases, used by every front-end (CLI, experiment harness) so no
//!   per-heuristic dispatch exists outside this crate;
//! * [`api::Scratch`] — reusable ready-queue/placement/evaluator buffers
//!   for allocation-free experiment campaigns;
//! * [`api::SchedError`] — typed errors (`p == 0`, missing cap, invalid
//!   schedule) where the low-level entry points would panic.
//!
//! ```
//! use treesched_core::api::{Platform, Request, Scratch, SchedulerRegistry};
//! use treesched_core::makespan_lower_bound;
//! use treesched_model::TaskTree;
//!
//! let registry = SchedulerRegistry::standard();
//! let tree = TaskTree::fork(8, 1.0, 1.0, 0.0); // 8 pebble leaves
//! let mut scratch = Scratch::new();
//! for entry in registry.campaign() {
//!     let req = Request::new(&tree, Platform::new(4));
//!     let out = entry.scheduler().schedule(&req, &mut scratch).unwrap();
//!     assert!(out.eval.makespan >= makespan_lower_bound(&tree, 4));
//!     assert!(out.eval.peak_memory >= 9.0); // all inputs + root file
//! }
//! ```
//!
//! ## Low-level building blocks
//!
//! Each algorithm behind the registry is one function, driven by the
//! platform's [`listsched::Speeds`] and reusable scratch buffers: the
//! subtree heuristics ([`heuristics::par_subtrees`],
//! [`heuristics::par_subtrees_optim`]) and the one event-based list
//! scheduler ([`listsched::list_schedule`], reached with custom priority
//! keys through [`api::Scratch::run_list_schedule`]). Beside them sit
//! parallel-schedule evaluation ([`schedule::Schedule::peak_memory`],
//! [`schedule::try_evaluate`]), the lower bounds used by the paper's
//! Figure 6 ([`bounds`]), an exact bi-objective Pareto solver for the
//! unit-time model ([`pareto`]), and — as the paper's stated future work —
//! a memory-capped list scheduler ([`membound::mem_bounded_schedule`]).

pub mod api;
pub mod bounds;
pub mod heuristics;
pub mod listsched;
pub mod membound;
pub mod pareto;
pub mod schedule;
pub mod split;

pub use api::{
    tree_fingerprint, Diagnostics, MemDomain, Metric, Outcome, OwnedRequest, Platform,
    PlatformFlag, PlatformParseError, ProcClass, Request, SchedError, Scheduler, SchedulerRegistry,
    Scratch, ScratchStats,
};
pub use bounds::{
    makespan_lower_bound, makespan_lower_bound_on, memory_lower_bound_exact, memory_reference,
};
pub use heuristics::{par_subtrees, par_subtrees_optim, SeqAlgo, SubtreeScratch};
pub use listsched::{list_schedule, CommCosts, Speeds};
pub use membound::{
    mem_bounded_schedule, mem_bounded_schedule_domains, Admission, DomainCtx, MemBoundedRun,
};
pub use pareto::{dominated_by_frontier, pareto_frontier, ParetoPoint};
pub use schedule::{try_evaluate, try_evaluate_on, EvalResult, Placement, Schedule, ScheduleError};
pub use split::{split_subtrees, split_subtrees_with_work, Split};
