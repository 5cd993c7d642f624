//! The bi-objective trade-off: sweep the processor count and watch each
//! heuristic trade memory for makespan (the tension of paper Theorem 2 —
//! no algorithm can approximate both objectives at once).
//!
//! ```sh
//! cargo run --release --example memory_tradeoff
//! ```

use treesched::core::{
    makespan_lower_bound, memory_reference, Platform, Request, SchedulerRegistry, Scratch,
};
use treesched::gen::{assembly_corpus, Scale};

fn main() {
    // one representative assembly tree from the corpus
    let corpus = assembly_corpus(Scale::Small);
    // pick the widest tree so the processor sweep is meaningful
    let entry = corpus
        .iter()
        .max_by(|a, b| a.stats().parallelism().total_cmp(&b.stats().parallelism()))
        .expect("corpus is nonempty");
    let tree = &entry.tree;
    println!("tree {} — {}", entry.name, entry.stats());
    let mem_ref = memory_reference(tree);
    println!("sequential memory reference: {mem_ref:.3e}\n");

    println!(
        "{:<6} {:<18} {:>12} {:>10} {:>12} {:>10}",
        "p", "heuristic", "makespan", "ms/LB", "memory", "mem/seq"
    );
    let registry = SchedulerRegistry::standard();
    let mut scratch = Scratch::new();
    for p in [1u32, 2, 4, 8, 16, 32] {
        let lb = makespan_lower_bound(tree, p);
        for entry in registry.campaign() {
            let req = Request::new(tree, Platform::new(p));
            let ev = entry.scheduler().schedule(&req, &mut scratch).unwrap().eval;
            println!(
                "{:<6} {:<18} {:>12.3e} {:>10.3} {:>12.3e} {:>10.3}",
                p,
                entry.name(),
                ev.makespan,
                ev.makespan / lb,
                ev.peak_memory,
                ev.peak_memory / mem_ref
            );
        }
        println!();
    }
    println!("More processors shrink the makespan but inflate the memory —");
    println!("and the heuristics cover different points of that frontier.");
}
