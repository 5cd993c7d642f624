//! `tree prune` — drop the subtrees rooted at the given node ids.

use super::{emit, load_input, OutFormat};
use crate::args::parse_common;
use crate::commands::parse_num;
use crate::CliError;

const USAGE: &str = "usage: treesched tree prune FILE ID.. [-o OUT] [--to v1|newick|dot] \
                     [--ordering K] [--amalg N]";

pub(crate) fn execute(args: &[String]) -> Result<String, CliError> {
    let common = parse_common(args, "-o --ordering --amalg --to", "", USAGE)?;
    let to = OutFormat::parse(common.value("--to"))?;
    let Some((path, ids)) = common.positional.split_first() else {
        return Err(CliError::new(USAGE));
    };
    if ids.is_empty() {
        return Err(CliError::new(USAGE));
    }
    let roots: Vec<usize> = ids
        .iter()
        .map(|s| parse_num(s, "node id"))
        .collect::<Result<_, _>>()?;
    let (tree, _) = load_input(path, common.ingest)?;
    let pruned = treesched_trees::prune(&tree, &roots).map_err(|e| CliError::new(e.to_string()))?;
    emit(common.value("-o"), to.render(&pruned, path))
}
