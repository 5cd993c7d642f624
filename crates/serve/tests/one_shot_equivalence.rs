//! The engine answers exactly what the one-shot path answers: over the
//! small corpus × p ∈ {2, 4, 8} × the registry's campaign set, every
//! `ServeEngine` result at 1, 2 and 4 workers (batched, warm per-worker
//! scratches, shared traversal caches) carries the bit-identical
//! `(makespan, peak_memory, ms_lb)` of `Scheduler::schedule_once` on a
//! fresh `Scratch`.

use std::sync::Arc;
use treesched_core::{makespan_lower_bound, Platform, SchedulerRegistry};
use treesched_gen::{assembly_corpus, Scale};
use treesched_serve::{ServeEngine, ServeRequest};

#[test]
fn engine_results_match_schedule_once_bit_for_bit() {
    let registry = SchedulerRegistry::standard();
    let names: Vec<&str> = registry.campaign().map(|e| e.name()).collect();
    // p-major so consecutive requests switch trees, the case batching and
    // the traversal cache reorder the most
    let trees: Vec<_> = assembly_corpus(Scale::Small)
        .into_iter()
        .map(|e| Arc::new(e.tree))
        .collect();
    let mut requests = Vec::new();
    for p in [2, 4, 8] {
        for name in &names {
            for tree in &trees {
                requests.push(ServeRequest::new(Arc::clone(tree), *name, Platform::new(p)));
            }
        }
    }
    let bits = |makespan: f64, peak: f64, ms_lb: f64| {
        [makespan.to_bits(), peak.to_bits(), ms_lb.to_bits()]
    };
    let expected: Vec<_> = requests
        .iter()
        .map(|req| {
            let out = registry
                .get(&req.scheduler)
                .unwrap()
                .schedule_once(&req.problem.as_request())
                .unwrap();
            let p = req.problem.platform.processors();
            bits(
                out.eval.makespan,
                out.eval.peak_memory,
                makespan_lower_bound(&req.problem.tree, p),
            )
        })
        .collect();
    for workers in [1, 2, 4] {
        let results =
            ServeEngine::new(SchedulerRegistry::standard(), workers).run(requests.clone());
        assert_eq!(results.len(), expected.len());
        for (k, r) in results.iter().enumerate() {
            let out = r.outcome.as_ref().unwrap();
            let got = bits(
                out.outcome.eval.makespan,
                out.outcome.eval.peak_memory,
                out.ms_lb,
            );
            assert_eq!(
                got,
                expected[k],
                "request {k} ({} at p = {}) differs at {workers} workers",
                r.scheduler,
                r.platform.processors()
            );
        }
    }
}
