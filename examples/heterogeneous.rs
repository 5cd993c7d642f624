//! Heterogeneous platforms end to end: mixed-speed processor classes,
//! NUMA-style memory domains, and cross-domain communication costs flowing
//! through the same `Scheduler` API, serving engine, and JSONL records as
//! the paper's uniform machine.
//!
//! ```sh
//! cargo run --release --example heterogeneous
//! ```

use std::sync::Arc;
use treesched::core::api::{Platform, ProcClass, Request, SchedError, Scratch};
use treesched::core::{makespan_lower_bound_on, SchedulerRegistry};
use treesched::serve::{ServeEngine, ServeRequest};
use treesched::TaskTree;

fn main() {
    let tree = TaskTree::complete(3, 5, 1.0, 2.0, 0.5);
    let registry = SchedulerRegistry::standard();
    let mut scratch = Scratch::new();

    // 2 fast + 2 slow processors; each pair owns its own memory domain.
    // `validate` checks every invariant, so malformed platforms are typed
    // errors instead of panics deep inside a scheduler.
    let platform = Platform::heterogeneous(vec![
        ProcClass::new(2, 2.0), // procs 0-1, double speed
        ProcClass::new(2, 1.0), // procs 2-3, baseline
    ])
    .with_domain(400.0, &[0])
    .with_domain(200.0, &[1]);
    platform.validate().expect("a well-formed platform");
    let flat = Platform::new(4);

    // Every registered scheduler serves mixed speeds and split memory now:
    // subtree schedulers place whole subtrees speed-aware, the capped
    // family enforces each domain's capacity (cap_violations stays 0).
    println!(
        "{:<18} {:>12} {:>12} {:>10}  domain peaks",
        "scheduler", "het ms", "uniform ms", "vs bound"
    );
    let lb = makespan_lower_bound_on(&tree, &platform);
    for entry in registry.iter() {
        let het = entry
            .scheduler()
            .schedule(&Request::new(&tree, platform.clone()), &mut scratch)
            .expect("comm-free platforms are universal now");
        let hom = entry
            .scheduler()
            .schedule(
                &Request::new(&tree, flat.clone().with_memory_cap(1e9)),
                &mut scratch,
            )
            .expect("uniform platforms are universal");
        let peaks: Vec<String> = het.domain_peaks.iter().map(|p| format!("{p:.0}")).collect();
        println!(
            "{:<18} {:>12.2} {:>12.2} {:>9.2}x  [{}]",
            entry.name(),
            het.eval.makespan,
            hom.eval.makespan,
            het.eval.makespan / lb,
            peaks.join(", ")
        );
    }

    // Charge half a time unit per unit of output crossing between the two
    // domains: the list schedulers delay cross-domain children by
    // `output x cost`; the subtree/capped families refuse, typed.
    let costly = platform.clone().with_comm(vec![0.0, 0.5, 0.5, 0.0]);
    costly.validate().expect("a symmetric cost matrix");
    println!("\nwith transfer costs (0-1:0.5):");
    let comm_lb = makespan_lower_bound_on(&tree, &costly);
    for entry in registry.iter() {
        match entry
            .scheduler()
            .schedule(&Request::new(&tree, costly.clone()), &mut scratch)
        {
            Ok(out) => println!(
                "{:<18} {:>12.2} {:>9.2}x",
                entry.name(),
                out.eval.makespan,
                out.eval.makespan / comm_lb
            ),
            Err(SchedError::UnsupportedPlatform { reason, .. }) => {
                println!("{:<18} {:>12}  — refused: {reason}", entry.name(), "n/a");
            }
            Err(e) => panic!("{}: {e}", entry.name()),
        }
    }

    // The serving engine moves heterogeneous platforms whole: submit the
    // same stream twice on different worker counts and get identical bytes
    // (the `comm` matrix rides along in each echoed platform object).
    let tree = Arc::new(tree);
    let stream = |platform: &Platform| -> Vec<ServeRequest> {
        ["deepest", "inner", "cp", "fifo"]
            .iter()
            .map(|name| {
                ServeRequest::new(Arc::clone(&tree), *name, platform.clone())
                    .with_id(format!("het/{name}"))
            })
            .collect()
    };
    let serve = |workers: usize| -> Vec<String> {
        let mut engine = ServeEngine::new(SchedulerRegistry::standard(), workers);
        engine
            .run(stream(&costly))
            .iter()
            .map(treesched::serve::result_json)
            .collect()
    };
    let narrow = serve(1);
    let wide = serve(4);
    assert_eq!(narrow, wide, "responses are worker-count independent");
    println!("\nserving responses (identical for 1 and 4 workers):");
    for line in &narrow {
        print!("{line}");
    }
}
