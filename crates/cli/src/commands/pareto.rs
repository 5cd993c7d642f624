//! `pareto` — the exact (makespan, memory) frontier of a small unit-work
//! tree.

use super::load_tree;
use crate::args::parse_common;
use crate::CliError;
use std::fmt::Write as _;

const USAGE: &str = "usage: treesched pareto FILE -p N [--json] [--speeds L] [--domains D]";

pub(crate) fn execute(args: &[String]) -> Result<String, CliError> {
    let common = parse_common(args, "-p --speeds --domains", "--json", USAGE)?;
    let p: Option<u32> = common.num("-p", "N")?;
    let [path] = common.positional.as_slice() else {
        return Err(CliError::new(USAGE));
    };
    if p.is_none() && common.value("--speeds").is_none() {
        return Err(CliError::new(USAGE));
    }
    let platform = common.platform(p, None)?;
    // the exact solver enumerates unit-time steps over one shared memory;
    // it accepts any platform spelling of that machine and refuses the rest
    if platform.uniform_speed() != Some(1.0) {
        return Err(CliError::new(
            "the exact frontier requires unit-speed processors (the solver counts unit time steps)",
        ));
    }
    if !platform.has_shared_memory() {
        return Err(CliError::new(
            "the exact frontier requires one shared memory (got multiple domains)",
        ));
    }
    let p = platform.processors();
    let tree = load_tree(path)?;
    if tree.len() > treesched_core::pareto::MAX_PARETO_NODES {
        return Err(CliError::new(format!(
            "tree too large for the exact solver ({} > {} tasks)",
            tree.len(),
            treesched_core::pareto::MAX_PARETO_NODES
        )));
    }
    if tree.ids().any(|i| tree.work(i) != 1.0) {
        return Err(CliError::new(
            "exact frontier requires unit works (pebble trees)",
        ));
    }
    let frontier = treesched_core::pareto_frontier(&tree, p);
    if common.switch("--json") {
        // same record conventions as `schedule --json`, via the shared
        // builder — the frontier as (makespan, peak_memory) pairs
        // flattened into parallel arrays
        let makespans: Vec<f64> = frontier.iter().map(|pt| f64::from(pt.makespan)).collect();
        let memories: Vec<f64> = frontier.iter().map(|pt| pt.memory).collect();
        return Ok(treesched_serve::JsonRecord::new()
            .str("command", "pareto")
            .int("processors", u64::from(p))
            .int("tasks", tree.len() as u64)
            .int("points", frontier.len() as u64)
            .num_array("makespans", &makespans)
            .num_array("peak_memories", &memories)
            .line());
    }
    let mut out = format!("exact Pareto frontier, p = {p}:\n");
    let _ = writeln!(out, "  {:>9} {:>12}", "makespan", "peak memory");
    for pt in &frontier {
        let _ = writeln!(out, "  {:>9} {:>12}", pt.makespan, pt.memory);
    }
    Ok(out)
}
