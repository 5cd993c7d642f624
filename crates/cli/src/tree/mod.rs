//! The `tree` subcommand family: the workload toolbox's CLI surface.
//!
//! One module per subcommand (the `pgr nwk` layout): each exposes a pure
//! `execute(&[String]) -> Result<String, CliError>` and shares the
//! ingest/output plumbing here. Inputs are format-detected (`.nwk` /
//! `.mtx` / `.tree`, content-sniffed otherwise) through
//! `treesched_trees`; MatrixMarket inputs take `--ordering` and
//! `--amalg`.

mod convert;
mod prune;
mod reroot;
mod stat;
mod subtree;
mod to_dot;
mod to_requests;

use crate::commands::{write_file, CliError};
use treesched_model::TaskTree;
use treesched_trees::{Format, IngestOptions, OrderingKind};

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

/// Ingest options plus everything the shared flag loop collected.
pub(crate) struct CommonArgs {
    /// Positional arguments, flag-free.
    pub positional: Vec<String>,
    /// `-o FILE` — where the subcommand's output text goes.
    pub out_file: Option<String>,
    /// MatrixMarket ingest options (`--ordering`, `--amalg`).
    pub ingest: IngestOptions,
    /// Subcommand-declared value flags, in order of appearance.
    values: Vec<(&'static str, String)>,
    /// Subcommand-declared boolean flags that were present.
    switches: Vec<&'static str>,
}

impl CommonArgs {
    /// The last value given for a declared value flag.
    pub(crate) fn value(&self, flag: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|(_, v)| v.as_str())
    }

    /// Whether a declared switch was present.
    pub(crate) fn switch(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }
}

/// Parses one subcommand's argument list: positionals, the shared flags
/// (`-o`, `--ordering`, `--amalg`), the subcommand's declared
/// `value_flags` (each taking one value) and `switch_flags` (boolean).
/// Anything else starting with `-` is an unknown-flag error citing
/// `usage`.
pub(crate) fn parse_common(
    args: &[String],
    value_flags: &[&'static str],
    switch_flags: &[&'static str],
    usage: &str,
) -> Result<CommonArgs, CliError> {
    let mut common = CommonArgs {
        positional: Vec::new(),
        out_file: None,
        ingest: IngestOptions::default(),
        values: Vec::new(),
        switches: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| CliError::new(format!("{flag} needs a value")))
        };
        match a.as_str() {
            "-o" => common.out_file = Some(value("-o")?),
            "--ordering" => {
                let v = value("--ordering")?;
                common.ingest.ordering = OrderingKind::parse(&v).ok_or_else(|| {
                    CliError::new(format!(
                        "unknown ordering `{v}` (expected natural, amd or rcm)"
                    ))
                })?;
            }
            "--amalg" => {
                let v = value("--amalg")?;
                common.ingest.amalg = crate::commands::parse_num(&v, "--amalg")?;
                if common.ingest.amalg == 0 {
                    return Err(CliError::new("--amalg must be at least 1"));
                }
            }
            s if value_flags.contains(&s) => {
                let flag = value_flags[value_flags.iter().position(|f| *f == s).expect("found")];
                let v = value(flag)?;
                common.values.push((flag, v));
            }
            s if switch_flags.contains(&s) => {
                let flag = switch_flags[switch_flags.iter().position(|f| *f == s).expect("found")];
                common.switches.push(flag);
            }
            s if s.starts_with('-') && s != "-" => {
                return Err(CliError::new(format!("unknown flag `{s}`\n\n{usage}")));
            }
            _ => common.positional.push(a.clone()),
        }
    }
    Ok(common)
}

/// Loads one input file through the toolbox (format detection + ingest
/// options). I/O and parse failures keep the toolbox's path-attached
/// wording and exit as usage errors, like `load_tree`.
pub(crate) fn load_input(
    path: &str,
    ingest: IngestOptions,
) -> Result<(TaskTree, Format), CliError> {
    treesched_trees::load(path, ingest).map_err(|e| CliError::new(e.to_string()))
}

/// Output format of the emitting subcommands (`--to`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum OutFormat {
    V1,
    Newick,
    Dot,
}

impl OutFormat {
    pub(crate) fn parse(s: &str) -> Result<OutFormat, CliError> {
        match s {
            "v1" | "tree" => Ok(OutFormat::V1),
            "newick" | "nwk" => Ok(OutFormat::Newick),
            "dot" => Ok(OutFormat::Dot),
            other => Err(CliError::new(format!(
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
