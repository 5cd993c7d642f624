//! `tree convert` — re-emit an ingested tree in another format.

use super::{emit, load_input, OutFormat};
use crate::args::parse_common;
use crate::CliError;

const USAGE: &str = "usage: treesched tree convert FILE [-o OUT] [--to v1|newick|dot] \
                     [--ordering K] [--amalg N]";

pub(crate) fn execute(args: &[String]) -> Result<String, CliError> {
    let common = parse_common(args, "-o --ordering --amalg --to", "", USAGE)?;
    let to = OutFormat::parse(common.value("--to"))?;
    let [path] = common.positional.as_slice() else {
        return Err(CliError::new(USAGE));
    };
    let (tree, _) = load_input(path, common.ingest)?;
    emit(common.value("-o"), to.render(&tree, path))
}
