//! `sketch` — an indented view of a v1 tree file.

use super::load_tree;
use crate::args::parse_common;
use crate::CliError;

const USAGE: &str = "usage: treesched sketch FILE [--max N]";

pub(crate) fn execute(args: &[String]) -> Result<String, CliError> {
    let common = parse_common(args, "--max", "", USAGE)?;
    let [path] = common.positional.as_slice() else {
        return Err(CliError::new(USAGE));
    };
    let max = common.num("--max", "N")?.unwrap_or(40);
    let tree = load_tree(path)?;
    Ok(treesched_viz::tree_sketch(&tree, max))
}
