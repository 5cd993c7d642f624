//! `dot` — Graphviz export of a v1 tree file.

use super::load_tree;
use crate::args::parse_common;
use crate::CliError;

const USAGE: &str = "usage: treesched dot FILE";

pub(crate) fn execute(args: &[String]) -> Result<String, CliError> {
    let common = parse_common(args, "", "", USAGE)?;
    let [path] = common.positional.as_slice() else {
        return Err(CliError::new(USAGE));
    };
    let tree = load_tree(path)?;
    Ok(treesched_model::io::to_dot(&tree, path))
}
