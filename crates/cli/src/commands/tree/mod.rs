//! The `tree` subcommand family: the workload toolbox's CLI surface.
//!
//! One module per subcommand, as for the top-level commands: each exposes
//! a pure `execute(&[String]) -> Result<String, CliError>` and shares the
//! ingest/output plumbing here. Inputs are format-detected (`.nwk` /
//! `.mtx` / `.tree`, content-sniffed otherwise) through
//! `treesched_trees`; every subcommand takes `-o` and, for MatrixMarket
//! inputs, `--ordering` and `--amalg`.

mod convert;
mod prune;
mod reroot;
mod stat;
mod subtree;
mod to_dot;
mod to_requests;

use crate::commands::{load_input, write_file};
use crate::CliError;
use treesched_model::TaskTree;

pub(crate) const TREE_USAGE: &str = "treesched tree — workload toolbox

usage: treesched tree <subcommand> [args]

subcommands:
  stat FILE..                       per-file shape/weight statistics
  convert FILE [-o OUT] [--to F]    re-emit as F = v1|newick|dot
  prune FILE ID.. [-o OUT] [--to F] drop the subtrees rooted at ID..
  subtree FILE ID [-o OUT] [--to F] extract the subtree rooted at ID
  reroot FILE ID [-o OUT] [--to F]  re-hang the tree with ID as root
                                    (path edges reverse, weights travel
                                    with their edges)
  to-dot FILE [-o OUT] [--bare]     styled Graphviz (work shades nodes,
                                    output scales edge widths; --bare
                                    drops the weight numbers)
  to-requests FILE [-o OUT] --procs LIST [--tree-out PATH]
              [--scheduler S] [--seq A] [--seed N] [--cap X] [--prefix P]
                                    serve-wire JSONL: one request per
                                    processor count in LIST (e.g. 1,2,4)

input formats (by extension, content-sniffed otherwise):
  .tree / .v1        native `treesched tree v1`
  .nwk / .newick     attributed Newick — work/output/exec as
                     [&work=W,output=F,exec=N] node attributes, branch
                     lengths read as output sizes
  .mtx / .mm         MatrixMarket coordinate pattern|real|integer,
                     routed through the sparse elimination/assembly-tree
                     pipeline; options:
                       --ordering natural|amd|rcm   (default amd)
                       --amalg N                    (default 1 = plain
                                                     elimination tree)

`tree to-requests` on a non-v1 input needs --tree-out PATH to write the
converted v1 tree the request lines point at.";

/// Output format of the emitting subcommands (`--to`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum OutFormat {
    V1,
    Newick,
    Dot,
}

impl OutFormat {
    /// The format a `--to` value names; v1 when the flag is absent.
    pub(crate) fn parse(to: Option<&str>) -> Result<OutFormat, CliError> {
        match to {
            None | Some("v1" | "tree") => Ok(OutFormat::V1),
            Some("newick" | "nwk") => Ok(OutFormat::Newick),
            Some("dot") => Ok(OutFormat::Dot),
            Some(other) => Err(CliError::new(format!(
                "unknown output format `{other}` (expected v1, newick or dot)"
            ))),
        }
    }

    pub(crate) fn render(self, tree: &TaskTree, name: &str) -> String {
        match self {
            OutFormat::V1 => treesched_model::io::to_text(tree),
            OutFormat::Newick => treesched_trees::to_newick(tree),
            OutFormat::Dot => treesched_viz::styled_dot(
                tree,
                &treesched_viz::DotOptions {
                    name: name.into(),
                    weights_in_labels: true,
                },
            ),
        }
    }
}

/// Returns `text` for stdout, or writes it to `out_file` and returns a
/// one-line confirmation (the `gen -o` convention).
pub(crate) fn emit(out_file: Option<&str>, text: String) -> Result<String, CliError> {
    match out_file {
        None => Ok(text),
        Some(path) => {
            write_file(path, &text)?;
            Ok(format!("wrote {path}\n"))
        }
    }
}

/// Dispatches `treesched tree <subcommand>`.
pub(crate) fn execute(args: &[String]) -> Result<String, CliError> {
    let Some((sub, rest)) = args.split_first() else {
        return Err(CliError::new(TREE_USAGE));
    };
    match sub.as_str() {
        "stat" => stat::execute(rest),
        "convert" => convert::execute(rest),
        "prune" => prune::execute(rest),
        "reroot" => reroot::execute(rest),
        "subtree" => subtree::execute(rest),
        "to-dot" => to_dot::execute(rest),
        "to-requests" => to_requests::execute(rest),
        "--help" | "-h" | "help" => Ok(TREE_USAGE.to_string()),
        other => Err(CliError::new(format!(
            "unknown tree subcommand `{other}`\n\n{TREE_USAGE}"
        ))),
    }
}
