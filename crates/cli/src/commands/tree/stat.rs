//! `tree stat` — per-file statistics over any ingestible format.

use super::load_input;
use crate::args::parse_common;
use crate::CliError;
use std::fmt::Write as _;
use treesched_model::TreeStats;

const USAGE: &str = "usage: treesched tree stat FILE.. [--ordering K] [--amalg N]";

pub(crate) fn execute(args: &[String]) -> Result<String, CliError> {
    let common = parse_common(args, "-o --ordering --amalg", "", USAGE)?;
    if common.positional.is_empty() {
        return Err(CliError::new(USAGE));
    }
    let mut out = String::new();
    for path in &common.positional {
        let (tree, format) = load_input(path, common.ingest)?;
        let stats = TreeStats::of(&tree);
        let _ = writeln!(out, "{path} [{}]: {stats}", format.name());
    }
    Ok(out)
}
