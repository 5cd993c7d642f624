//! `stats` — shape and weight statistics of v1 tree files.

use super::load_tree;
use crate::args::parse_common;
use crate::CliError;
use std::fmt::Write as _;
use treesched_model::TreeStats;

const USAGE: &str = "usage: treesched stats FILE..";

pub(crate) fn execute(args: &[String]) -> Result<String, CliError> {
    let common = parse_common(args, "", "", USAGE)?;
    if common.positional.is_empty() {
        return Err(CliError::new("stats needs at least one tree file"));
    }
    let mut out = String::new();
    for path in &common.positional {
        let tree = load_tree(path)?;
        let s = TreeStats::of(&tree);
        let _ = writeln!(out, "{path}: {s}");
        let _ = writeln!(
            out,
            "  seq memory: best postorder {:.6e}, max single task {:.6e}",
            treesched_core::memory_reference(&tree),
            s.max_local_need
        );
    }
    Ok(out)
}
