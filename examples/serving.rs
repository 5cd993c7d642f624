//! Batched serving: push a stream of scheduling requests through the
//! multi-worker engine and watch same-tree batching avoid repeated
//! traversal work.
//!
//! ```sh
//! cargo run --release --example serving
//! ```

use std::sync::Arc;
use treesched::core::{Platform, SchedulerRegistry};
use treesched::serve::{ServeEngine, ServeRequest};
use treesched::TaskTree;

fn main() {
    // Two workloads that keep arriving, interleaved — the traffic shape a
    // long-lived service sees, and the one a per-request front-end wastes
    // the most work on.
    let wide = Arc::new(TaskTree::fork(64, 1.0, 1.0, 0.0));
    let deep = Arc::new(TaskTree::complete(2, 7, 1.0, 2.0, 0.5));

    let mut engine = ServeEngine::new(SchedulerRegistry::standard(), 2);
    for p in [2u32, 4, 8, 16] {
        for scheduler in ["subtrees", "deepest", "inner"] {
            for (tag, tree) in [("wide", &wide), ("deep", &deep)] {
                engine.submit(
                    ServeRequest::new(Arc::clone(tree), scheduler, Platform::new(p))
                        .with_id(format!("{tag}/p{p}/{scheduler}")),
                );
            }
        }
    }

    println!("draining {} queued requests...\n", engine.queued());
    let results = engine.drain();
    println!(
        "{:<20} {:>10} {:>12} {:>12}",
        "request", "makespan", "vs bound", "peak memory"
    );
    for r in &results {
        let out = r.outcome.as_ref().expect("campaign schedulers are total");
        println!(
            "{:<20} {:>10.1} {:>11.2}x {:>12.1}",
            r.id.as_deref().unwrap_or("-"),
            out.outcome.eval.makespan,
            out.outcome.eval.makespan / out.ms_lb,
            out.outcome.eval.peak_memory,
        );
    }

    let stats = engine.stats();
    println!(
        "\n{} requests in {} same-tree batches across {} workers",
        stats.requests,
        stats.batches,
        engine.workers()
    );
    println!(
        "reference traversals: {} computed, {} read from the trees' memos",
        stats.traversal_computes, stats.traversal_reuses
    );

    // Results arrive in submission order no matter how many workers ran —
    // resubmitting on a wider engine reproduces the stream exactly.
    let makespans: Vec<f64> = results
        .iter()
        .map(|r| r.outcome.as_ref().unwrap().outcome.eval.makespan)
        .collect();
    let mut wider = ServeEngine::new(SchedulerRegistry::standard(), 8);
    for p in [2u32, 4, 8, 16] {
        for scheduler in ["subtrees", "deepest", "inner"] {
            for (_, tree) in [("wide", &wide), ("deep", &deep)] {
                wider.submit(ServeRequest::new(
                    Arc::clone(tree),
                    scheduler,
                    Platform::new(p),
                ));
            }
        }
    }
    let again: Vec<f64> = wider
        .drain()
        .iter()
        .map(|r| r.outcome.as_ref().unwrap().outcome.eval.makespan)
        .collect();
    assert_eq!(makespans, again, "serving is worker-count independent");
    println!("\n8-worker engine reproduced the 2-worker stream exactly.");
}
