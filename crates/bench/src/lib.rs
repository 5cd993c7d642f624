//! Experiment harness reproducing the paper's evaluation (§6), built
//! around the Campaign API.
//!
//! The [`campaign`] module is the experiment layer's core: a declarative
//! [`CampaignSpec`] (tree set × scheduler selection × platform grid ×
//! sequential algorithms × metrics) executed over the batched serving
//! engine by [`CampaignRunner`], streaming one JSON record per scenario.
//! [`harness`] aggregates the resulting rows into the paper's Table 1 and
//! the Figure 6–8 scatter crosses.
//!
//! [`presets`] holds the paper's reports, each run as
//! `treesched campaign --preset NAME` (JSONL on stdout, the text report
//! on stderr):
//!
//! * `table1` — the heuristic comparison of Table 1;
//! * `fig6` — ratios to the lower bounds (Figure 6);
//! * `fig7` — ratios to `ParSubtrees` (Figure 7);
//! * `fig8` — ratios to `ParInnerFirst` (Figure 8);
//! * `scaling` — strong-scaling sweep with speedup/utilization metrics;
//! * `ablation` — design-choice ablations beyond the paper: the Figure 3
//!   makespan-ratio sweep, sequential sub-algorithm choice, the
//!   memory-capped scheduler's cap/makespan trade-off, and priority
//!   components;
//! * `corpus` — the dataset description of §6.2;
//! * `seqgap` — the sequential postorder/optimal gap of §6.1.
//!
//! Throughput and latency of the serving stack are measured by the
//! separate `perfbench` workspace (see `BENCHMARK.json`). Criterion
//! micro-benchmarks live in `benches/` and validate the complexity claims
//! of §5 (heuristic and traversal runtimes).
//!
//! Schedulers resolve by name through
//! [`treesched_core::SchedulerRegistry`] (`--schedulers` selects them);
//! the default sweep is the registry's campaign set, so a newly
//! registered campaign scheduler joins every table and figure
//! automatically.

pub mod campaign;
pub mod harness;
pub mod presets;
pub mod stats;

pub use campaign::{
    compare_campaigns, default_workers, spec_from_json, Campaign, CampaignComparison,
    CampaignOutcome, CampaignRecord, CampaignRunner, CampaignSpec, PlatformPoint, SpecError,
};
pub use harness::{
    fig6, fig_normalized, render_crosses, render_table1, run_corpus, scheduler_names, table1, Row,
    Table1Row, PAPER_PROCS,
};
