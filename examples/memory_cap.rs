//! The paper's future-work direction (§7): scheduling under a hard memory
//! cap. Uses the safe sequential-activation admission policy: any cap at
//! least the sequential reference memory is honored with zero violations,
//! trading makespan for memory as the cap tightens.
//!
//! ```sh
//! cargo run --release --example memory_cap
//! ```

use treesched::core::{
    mem_bounded_schedule, memory_reference, Admission, Platform, Request, SchedulerRegistry,
};
use treesched::gen::{assembly_corpus, Scale};
use treesched::seq::best_postorder;

fn main() {
    let corpus = assembly_corpus(Scale::Small);
    // pick the entry with the most inherent parallelism so the cap bites
    let entry = corpus
        .iter()
        .max_by(|a, b| a.stats().parallelism().total_cmp(&b.stats().parallelism()))
        .expect("corpus is nonempty");
    let tree = &entry.tree;
    let order = best_postorder(tree).order;
    let mseq = memory_reference(tree);
    let p = 8u32;

    println!("tree {} — {}", entry.name, entry.stats());
    println!("p = {p}, sequential memory M_seq = {mseq:.3e}\n");

    // unbounded references
    println!("unbounded heuristics:");
    let registry = SchedulerRegistry::standard();
    let req = Request::new(tree, Platform::new(p));
    for name in ["ParSubtrees", "ParDeepestFirst"] {
        let ev = registry
            .get(name)
            .unwrap()
            .schedule_once(&req)
            .unwrap()
            .eval;
        println!(
            "  {:<18} makespan {:>10.3e}  memory {:>10.3e} ({:.2} x M_seq)",
            name,
            ev.makespan,
            ev.peak_memory,
            ev.peak_memory / mseq
        );
    }

    println!("\nmemory-capped list scheduling (sequential activation):");
    println!(
        "  {:>10} {:>12} {:>12} {:>12} {:>11}",
        "cap/M_seq", "peak", "peak/M_seq", "makespan", "violations"
    );
    for factor in [1.0, 1.25, 1.5, 2.0, 3.0, 5.0] {
        let run = mem_bounded_schedule(tree, p, &order, mseq * factor, Admission::SequentialOrder);
        println!(
            "  {:>10.2} {:>12.3e} {:>12.2} {:>12.3e} {:>11}",
            factor,
            run.peak_memory,
            run.peak_memory / mseq,
            run.schedule.makespan(),
            run.violations
        );
    }
    println!("\nEvery cap >= M_seq is honored exactly (violations = 0): the");
    println!("scheduler exposes the memory/makespan dial the paper calls for.");
}
