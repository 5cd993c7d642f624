//! The Pebble Game model (paper §4): unit files, zero programs, unit times.
//! Demonstrates the paper's theory on its own constructions:
//!
//! * Figure 1 — the 3-Partition reduction achieving its exact bounds;
//! * Figure 2 — the inapproximability tree (memory blows up when the
//!   makespan is pushed down);
//! * Figures 3–5 — the worst-case gadgets for each heuristic.
//!
//! ```sh
//! cargo run --release --example pebble_game
//! ```

use treesched::core::{try_evaluate, EvalResult, Platform, Request, SchedulerRegistry};
use treesched::gen::theory;
use treesched::model::TaskTree;
use treesched::seq::liu_exact;

/// Evaluation of the registry scheduler `name` on `p` processors.
fn run(name: &str, tree: &TaskTree, p: u32) -> EvalResult {
    let req = Request::new(tree, Platform::new(p));
    let registry = SchedulerRegistry::standard();
    registry
        .get(name)
        .unwrap()
        .schedule_once(&req)
        .unwrap()
        .eval
}

fn main() {
    // --- Figure 1: 3-Partition reduction -------------------------------
    let a = [4u64, 5, 4, 4, 4, 5, 5, 4, 4]; // m = 3, B = 13
    let tree = theory::three_partition_tree(&a);
    let groups = [[0usize, 1, 2], [3, 4, 5], [6, 7, 8]];
    let (schedule, bmem, bcmax) = theory::three_partition_schedule(&tree, &a, &groups);
    let ev = try_evaluate(&tree, &schedule).expect("the witness schedule is valid");
    println!("Figure 1 (3-Partition, m=3, B=13): {} nodes", tree.len());
    println!(
        "  witness schedule: makespan {} (bound {bcmax}), memory {} (bound {bmem})",
        ev.makespan, ev.peak_memory
    );

    // --- Figure 2: inapproximability tree ------------------------------
    let (n, delta) = (6usize, 8usize);
    let tree = theory::inapprox_tree(n, delta);
    println!(
        "\nFigure 2 (inapproximability, n={n}, δ={delta}): {} nodes, critical path {}",
        tree.len(),
        tree.critical_path()
    );
    println!(
        "  optimal sequential memory: {} (= n + δ)",
        liu_exact(&tree).peak
    );
    for p in [2u32, 8, 32] {
        let ev = run("ParDeepestFirst", &tree, p);
        println!(
            "  ParDeepestFirst p={p:<2}: makespan {:>5} memory {:>6}",
            ev.makespan, ev.peak_memory
        );
    }
    println!(
        "  (pushing the makespan toward δ+2 = {} forces memory far above n+δ)",
        delta + 2
    );

    // --- Figure 3: the fork --------------------------------------------
    let (p, k) = (8u32, 32usize);
    let tree = theory::fork_tree(p as usize, k);
    let ms = run("ParSubtrees", &tree, p).makespan;
    println!(
        "\nFigure 3 (fork, p={p}, k={k}): ParSubtrees makespan {ms}, optimal {}, ratio {:.2} (→ p)",
        k + 1,
        ms / (k + 1) as f64
    );

    // --- Figure 4: ParInnerFirst gadget --------------------------------
    let (p, k) = (4usize, 12usize);
    let tree = theory::inner_first_gadget(p, k);
    let seq = liu_exact(&tree).peak;
    let ev = run("ParInnerFirst", &tree, p as u32);
    println!(
        "\nFigure 4 (gadget, p={p}, k={k}): sequential memory {seq}, ParInnerFirst memory {}",
        ev.peak_memory
    );

    // --- Figure 5: long chains ------------------------------------------
    let (chains, len) = (24usize, 8usize);
    let tree = theory::long_chain_tree(chains, len);
    let seq = liu_exact(&tree).peak;
    let ev = run("ParDeepestFirst", &tree, chains as u32);
    println!(
        "\nFigure 5 (long chains, c={chains}): sequential memory {seq}, ParDeepestFirst memory {}",
        ev.peak_memory
    );
    println!("  (grows with the number of chains — unbounded ratio)");
}
