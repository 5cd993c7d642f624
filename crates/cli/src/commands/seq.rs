//! `seq` — a sequential traversal's peak memory and order head.

use super::load_tree;
use crate::args::parse_common;
use crate::CliError;
use treesched_core::SeqAlgo;

const USAGE: &str = "usage: treesched seq FILE [--algo best|naive|liu]";

pub(crate) fn execute(args: &[String]) -> Result<String, CliError> {
    let common = parse_common(args, "--algo", "", USAGE)?;
    let [path] = common.positional.as_slice() else {
        return Err(CliError::new(USAGE));
    };
    let algo = common.value("--algo").unwrap_or("best");
    let tree = load_tree(path)?;
    let result = seq_algo_by_name(algo)?.traversal(&tree);
    let head: Vec<String> = result
        .order
        .iter()
        .take(16)
        .map(|v| v.index().to_string())
        .collect();
    Ok(format!(
        "algorithm: {algo}\npeak memory: {}\norder head: {}{}\n",
        result.peak,
        head.join(" "),
        if result.order.len() > 16 { " ..." } else { "" }
    ))
}

/// Parses a sequential-traversal algorithm name (`--algo` / `--seq`).
pub(crate) fn seq_algo_by_name(name: &str) -> Result<SeqAlgo, CliError> {
    SeqAlgo::by_name(name).ok_or_else(|| CliError::new(format!("unknown algorithm `{name}`")))
}
