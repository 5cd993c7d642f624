//! End-to-end multifrontal pipeline: generate a sparse matrix pattern,
//! compute a fill-reducing ordering and the elimination tree, amalgamate it
//! into an assembly tree with the paper's weight formulas, and schedule the
//! factorization on `p` processors.
//!
//! ```sh
//! cargo run --release --example sparse_factorization
//! ```

use treesched::core::{
    makespan_lower_bound, memory_reference, Platform, Request, SchedulerRegistry, Scratch,
};
use treesched::sparse::{assembly, etree, generate, ordering};
use treesched::TreeStats;

fn main() {
    // a 2D Laplacian, the canonical multifrontal benchmark matrix
    let (nx, ny) = (40, 40);
    let pattern = generate::grid2d(nx, ny, generate::Stencil::Star);
    println!(
        "matrix: {}x{} grid Laplacian, n = {}, nnz/row = {:.1}",
        nx,
        ny,
        pattern.n(),
        pattern.nnz_per_row()
    );

    let registry = SchedulerRegistry::standard();
    let mut scratch = Scratch::new();
    for (name, ord) in [
        ("natural", ordering::Ordering::natural(pattern.n())),
        ("minimum degree", ordering::min_degree(&pattern)),
        ("nested dissection", ordering::nested_dissection_2d(nx, ny)),
    ] {
        let permuted = pattern.permute(&ord.order);
        let et = etree::elimination_tree(&permuted);
        let cc = etree::column_counts(&permuted, &et);
        let fill = etree::factor_nnz(&cc);
        let tree = assembly::assembly_tree_from_etree(&et, &cc, 4).expect("connected pattern");
        let stats = TreeStats::of(&tree);
        println!("\nordering: {name}");
        println!("  factor nonzeros: {fill}");
        println!("  assembly tree (amalgamation x4): {stats}");

        let p = 8;
        println!(
            "  schedule on p = {p} (makespan LB {:.3e}, seq memory {:.3e}):",
            makespan_lower_bound(&tree, p),
            memory_reference(&tree)
        );
        for entry in registry.campaign() {
            let req = Request::new(&tree, Platform::new(p));
            let ev = entry.scheduler().schedule(&req, &mut scratch).unwrap().eval;
            println!(
                "    {:<18} makespan {:>10.3e}   memory {:>10.3e}",
                entry.name(),
                ev.makespan,
                ev.peak_memory
            );
        }
    }
    println!("\nNested dissection exposes tree parallelism (shorter makespans);");
    println!("minimum degree minimizes fill. Both beat the natural ordering.");
}
