//! `tree subtree` — extract the subtree rooted at one node id.

use super::{emit, load_input, OutFormat};
use crate::args::parse_common;
use crate::commands::parse_num;
use crate::CliError;

const USAGE: &str = "usage: treesched tree subtree FILE ID [-o OUT] [--to v1|newick|dot] \
                     [--ordering K] [--amalg N]";

pub(crate) fn execute(args: &[String]) -> Result<String, CliError> {
    let common = parse_common(args, "-o --ordering --amalg --to", "", USAGE)?;
    let to = OutFormat::parse(common.value("--to"))?;
    let [path, id] = common.positional.as_slice() else {
        return Err(CliError::new(USAGE));
    };
    let root: usize = parse_num(id, "node id")?;
    let (tree, _) = load_input(path, common.ingest)?;
    let sub = treesched_trees::subtree(&tree, root).map_err(|e| CliError::new(e.to_string()))?;
    emit(common.value("-o"), to.render(&sub, path))
}
