//! `tree to-dot` — styled Graphviz export of any ingestible tree.

use super::{emit, load_input};
use crate::args::parse_common;
use crate::CliError;
use treesched_viz::{styled_dot, DotOptions};

const USAGE: &str = "usage: treesched tree to-dot FILE [-o OUT] [--bare] \
                     [--ordering K] [--amalg N]";

pub(crate) fn execute(args: &[String]) -> Result<String, CliError> {
    let common = parse_common(args, "-o --ordering --amalg", "--bare", USAGE)?;
    let [path] = common.positional.as_slice() else {
        return Err(CliError::new(USAGE));
    };
    let (tree, _) = load_input(path, common.ingest)?;
    let dot = styled_dot(
        &tree,
        &DotOptions {
            name: path.clone(),
            weights_in_labels: !common.switch("--bare"),
        },
    );
    emit(common.value("-o"), dot)
}
