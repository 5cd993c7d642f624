//! Visual tour: tree sketch, Gantt charts and memory profiles for two
//! heuristics on the same workload, side by side.
//!
//! ```sh
//! cargo run --release --example visualize
//! ```

use treesched::core::{Platform, Request, SchedulerRegistry};
use treesched::gen::theory::inner_first_gadget;
use treesched::viz::{gantt, memory_profile_plot, tree_sketch, GanttOptions, ProfileOptions};

fn main() {
    // the paper's Figure 4 gadget makes the memory contrast visible
    let (p, k) = (3usize, 4usize);
    let tree = inner_first_gadget(p, k);
    println!(
        "Figure 4 gadget (p = {p}, k = {k}), {} tasks:\n",
        tree.len()
    );
    println!("{}", tree_sketch(&tree, 24));

    let registry = SchedulerRegistry::standard();
    let req = Request::new(&tree, Platform::new(p as u32));
    for name in ["ParSubtrees", "ParInnerFirst"] {
        let out = registry.get(name).unwrap().schedule_once(&req).unwrap();
        let (schedule, ev) = (out.schedule, out.eval);
        println!(
            "=== {} — makespan {}, peak memory {} ===",
            name, ev.makespan, ev.peak_memory
        );
        print!(
            "{}",
            gantt(
                &tree,
                &schedule,
                GanttOptions {
                    width: 60,
                    label_tasks: true
                }
            )
        );
        println!();
        print!(
            "{}",
            memory_profile_plot(
                &tree,
                &schedule,
                ProfileOptions {
                    width: 60,
                    height: 8
                }
            )
        );
        println!();
    }
    println!("ParSubtrees keeps the memory profile low and flat; ParInnerFirst");
    println!("finishes sooner but stacks up leaf files (the Figure 4 effect).");
}
