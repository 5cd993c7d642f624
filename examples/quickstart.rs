//! Quickstart: build a small task tree, run all four heuristics, and
//! inspect the memory/makespan trade-off.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use treesched::core::{
    makespan_lower_bound, memory_reference, Platform, Request, SchedulerRegistry, Scratch,
};
use treesched::seq::{best_postorder, liu_exact};
use treesched::TreeBuilder;

fn main() {
    // A toy assembly-tree-like workload: weights are (w, f, n) =
    // (processing time, output file, execution file).
    let mut b = TreeBuilder::new();
    let root = b.node(4.0, 0.0, 6.0);
    let left = b.child(root, 3.0, 5.0, 4.0);
    let right = b.child(root, 3.0, 5.0, 4.0);
    for parent in [left, right] {
        for _ in 0..3 {
            let mid = b.child(parent, 2.0, 3.0, 2.0);
            b.child(mid, 1.0, 2.0, 1.0);
            b.child(mid, 1.0, 2.0, 1.0);
        }
    }
    let tree = b.build().expect("valid tree");

    println!("tree: {}", treesched::TreeStats::of(&tree));
    println!(
        "sequential memory: best postorder = {}, Liu exact = {}",
        best_postorder(&tree).peak,
        liu_exact(&tree).peak
    );
    println!();

    let registry = SchedulerRegistry::standard();
    let mut scratch = Scratch::new();
    for p in [2u32, 4] {
        println!(
            "p = {p}   (makespan lower bound {:.1}, sequential memory reference {:.1})",
            makespan_lower_bound(&tree, p),
            memory_reference(&tree)
        );
        println!(
            "  {:<18} {:>10} {:>12}",
            "heuristic", "makespan", "peak memory"
        );
        // the campaign members are the paper's four heuristics
        for entry in registry.campaign() {
            let req = Request::new(&tree, Platform::new(p));
            let ev = entry.scheduler().schedule(&req, &mut scratch).unwrap().eval;
            println!(
                "  {:<18} {:>10.1} {:>12.1}",
                entry.name(),
                ev.makespan,
                ev.peak_memory
            );
        }
        println!();
    }
    println!("Expect ParSubtrees to win on memory and ParDeepestFirst on makespan.");
}
