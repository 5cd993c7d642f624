//! `tree to-requests` — emit the serve-wire JSONL request stream.
//!
//! Request lines carry a path to a v1 tree file. A v1 input is referenced
//! as-is; any other format must be converted first, so `--tree-out PATH`
//! names where the v1 conversion is written (and what the requests point
//! at).

use super::{emit, load_input};
use crate::args::parse_common;
use crate::commands::{parse_num, write_file};
use crate::CliError;
use treesched_core::SeqAlgo;
use treesched_trees::{to_requests, Format, RequestOptions};

const USAGE: &str = "usage: treesched tree to-requests FILE [-o OUT] --procs LIST \
                     [--tree-out PATH] [--scheduler S] [--seq A] [--seed N] [--cap X] \
                     [--prefix P] [--ordering K] [--amalg N]";

pub(crate) fn execute(args: &[String]) -> Result<String, CliError> {
    let common = parse_common(
        args,
        "-o --ordering --amalg --procs --tree-out --scheduler --seq --seed --cap --prefix",
        "",
        USAGE,
    )?;
    let [path] = common.positional.as_slice() else {
        return Err(CliError::new(USAGE));
    };
    let mut opts = RequestOptions {
        processors: Vec::new(),
        ..RequestOptions::default()
    };
    let procs = common
        .value("--procs")
        .ok_or_else(|| CliError::new(format!("need --procs LIST (e.g. 1,2,4)\n\n{USAGE}")))?;
    for part in procs.split(',') {
        let p: u32 = parse_num(part, "--procs entry")?;
        if p == 0 {
            return Err(CliError::new("--procs entries must be at least 1"));
        }
        opts.processors.push(p);
    }
    opts.scheduler = common.value("--scheduler").map(String::from);
    if let Some(prefix) = common.value("--prefix") {
        opts.prefix = prefix.to_string();
    }
    if let Some(seq) = common.value("--seq") {
        opts.seq = Some(
            SeqAlgo::by_name(seq)
                .ok_or_else(|| CliError::new(format!("unknown --seq algorithm `{seq}`")))?,
        );
    }
    if let Some(seed) = common.value("--seed") {
        opts.seed = Some(parse_num(seed, "--seed")?);
    }
    if let Some(cap) = common.value("--cap") {
        opts.cap = Some(parse_num(cap, "--cap")?);
    }

    let (tree, format) = load_input(path, common.ingest)?;
    let tree_path = match (format, common.value("--tree-out")) {
        (_, Some(out)) => {
            // explicit conversion target: requests point at the v1 copy
            write_file(out, treesched_model::io::to_text(&tree))?;
            out.to_string()
        }
        (Format::V1, None) => path.clone(),
        (other, None) => {
            return Err(CliError::new(format!(
                "{path} is {} — serve reads v1 tree files, so to-requests needs \
                 --tree-out PATH to write the converted tree",
                other.name()
            )));
        }
    };
    emit(common.value("-o"), to_requests(&tree_path, &opts))
}
