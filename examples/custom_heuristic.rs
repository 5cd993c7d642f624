//! Extending the library: implementing the [`Scheduler`] trait and
//! registering it in the [`SchedulerRegistry`], next to the paper's
//! heuristics.
//!
//! The example builds a "LargestFileFirst" policy — prioritize the ready
//! task whose output file is biggest, hoping to retire big files into their
//! parents early — plugs it into the registry under the name
//! `LargestFileFirst` (alias `lff`), and compares it against the paper's
//! campaign through the exact same API every front-end uses.
//!
//! ```sh
//! cargo run --release --example custom_heuristic
//! ```

use treesched::core::api::{
    Outcome, Platform, Request, SchedError, Scheduler, SchedulerRegistry, Scratch,
};
use treesched::core::listsched::key_from_f64;
use treesched::core::try_evaluate_on;
use treesched::gen::{assembly_corpus, Scale};

/// The custom policy: a list scheduler whose priority is the (negated)
/// output-file size — smaller key = higher priority, ties by node id.
struct LargestFileFirst;

impl Scheduler for LargestFileFirst {
    fn name(&self) -> &'static str {
        "LargestFileFirst"
    }

    fn description(&self) -> &'static str {
        "example: list scheduling, biggest output file first"
    }

    fn schedule(&self, req: &Request<'_>, scratch: &mut Scratch) -> Result<Outcome, SchedError> {
        req.validate()?;
        let tree = req.tree;
        // Scratch::run_list_schedule reuses the campaign's ready-queue
        // buffers and is platform-aware: any Key3-encodable priority works,
        // on homogeneous and mixed-speed machines alike
        let schedule = scratch.run_list_schedule(tree, &req.platform, |i| {
            (key_from_f64(-tree.output(i)), i.0 as u64, 0)
        });
        let eval = try_evaluate_on(tree, &schedule, &req.platform).map_err(|error| {
            SchedError::InvalidSchedule {
                scheduler: self.name().to_string(),
                error,
            }
        })?;
        Ok(Outcome {
            domain_peaks: schedule.domain_peaks(tree, &req.platform),
            schedule,
            eval,
            diagnostics: Default::default(),
        })
    }
}

fn main() {
    // one registration: the custom scheduler joins every name-based
    // front-end (and, with `campaign = true`, every experiment sweep)
    let mut registry = SchedulerRegistry::standard();
    registry
        .register(Box::new(LargestFileFirst), &["lff"], false)
        .expect("fresh name");

    let corpus = assembly_corpus(Scale::Small);
    let p = 4u32;
    let mut scratch = Scratch::new();
    println!(
        "{:<26} {:>16} {:>12} | {:>16} {:>12}",
        "tree", "custom makespan", "memory", "best-paper ms", "memory"
    );
    let mut custom_wins = 0usize;
    let mut total = 0usize;
    for e in corpus.iter().step_by(4) {
        let tree = &e.tree;
        let req = Request::new(tree, Platform::new(p));
        let custom = registry
            .get("lff") // resolved by alias, like any built-in
            .unwrap()
            .schedule(&req, &mut scratch)
            .unwrap()
            .eval;

        // best paper heuristic on memory for reference
        let best_mem = registry
            .campaign()
            .map(|entry| entry.scheduler().schedule(&req, &mut scratch).unwrap().eval)
            .min_by(|a, b| a.peak_memory.total_cmp(&b.peak_memory))
            .expect("four campaign heuristics");
        println!(
            "{:<26} {:>16.3e} {:>12.3e} | {:>16.3e} {:>12.3e}",
            e.name, custom.makespan, custom.peak_memory, best_mem.makespan, best_mem.peak_memory
        );
        total += 1;
        if custom.peak_memory < best_mem.peak_memory {
            custom_wins += 1;
        }
    }
    println!(
        "\ncustom policy beats the best paper heuristic on memory in {custom_wins}/{total} trees"
    );
    println!("(list scheduling keeps its (2 - 1/p) makespan guarantee for ANY priority,");
    println!(" so custom policies only gamble with memory — exactly the paper's framing.)");
}
