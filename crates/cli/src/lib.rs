//! Command implementations for the `treesched` CLI (synopsis: [`USAGE`]).
//!
//! Every subcommand is a pure function from parsed arguments to an output
//! string, so the whole surface is unit-testable without spawning
//! processes. The binary (`src/main.rs`) only does I/O. Schedulers are
//! resolved by name through [`treesched_core::SchedulerRegistry`]; typed
//! scheduling failures exit with code 1, usage errors with code 2.
//!
//! Each subcommand is one module under `commands/` exposing
//! `execute(&[String])`, and [`dispatch`] is one match over them. Every
//! subcommand reads its arguments through one reader, which takes the
//! flags the subcommand declares and checks the shared ones
//! (`--ordering`/`--amalg`, `--workers` and the
//! `--speeds`/`--domains`/`--comm` platform group) in one place.

mod args;
mod commands;

pub use commands::serve::{serve_jsonl, serve_jsonl_with_metrics};
use treesched_core::SchedError;

/// Top-level usage text.
pub const USAGE: &str = "treesched — memory/makespan-aware tree scheduling (IPDPS 2013)

usage: treesched <command> [args]

commands:
  gen <kind> <params..> [-o FILE]   generate a tree (see `treesched gen`)
  stats FILE..                      shape and weight statistics
  sketch FILE [--max N]             indented tree view
  seq FILE [--algo best|naive|liu]  sequential traversal peak + order head
  schedule FILE -p N [--scheduler S] [--seq A] [--cap X] [--seed N]
           [--speeds L] [--domains D] [--comm C]
           [--ordering K] [--amalg N]
           [--json] [--gantt] [--profile] [--placements]
                                    parallel schedule + evaluation; FILE
                                    may be v1, Newick, or MatrixMarket
                                    (--ordering natural|amd|rcm, --amalg)
  schedulers                        list registered schedulers + aliases
  serve [FILE] [--workers N] [--speeds L] [--domains D] [--comm C]
                                    batched serving: JSONL requests from
                                    FILE (default stdin), one JSON record
                                    per result, in input order
  serve --stdio | --listen PATH [--accept N] [--inflight N] [--overload]
                                    daemon mode: responses stream out in
                                    completion order, framed with their
                                    submission index (`\"n\"`), over stdio
                                    or a Unix socket shared by clients;
                                    SIGTERM drains gracefully (no new
                                    work, in-flight lines answered)
  serve ... --metrics-out FILE      write a final metrics snapshot (the
                                    `{\"op\":\"metrics\"}` record) to FILE
                                    when the serve ends
  connect PATH [--raw]              client for `serve --listen`: stdin to
                                    the daemon, batch-identical output
                                    (or the raw framed stream) on stdout
  metrics PATH                      fetch a live metrics snapshot from a
                                    `serve --listen` daemon at PATH
  pareto FILE -p N [--json] [--speeds L] [--domains D]
                                    exact (makespan, memory) frontier
  campaign [--spec FILE | flags]    declarative experiment campaign over the
                                    serving engine, JSONL records on stdout
                                    (see `treesched campaign --help`)
  tree <subcommand> [args]          workload toolbox: ingest Newick /
                                    MatrixMarket / v1 trees, stat, prune,
                                    subtree, DOT export, serve requests
                                    (see `treesched tree --help`)
  dot FILE                          Graphviz DOT export

Schedulers S: any name or alias from `treesched schedulers`
(`--heuristic` is accepted as a synonym of `--scheduler`).

Heterogeneous platforms: --speeds lists processor classes as COUNTxSPEED
entries (`--speeds 2x2.0,2x1.0` = 2 fast + 2 slow; a bare SPEED means one
processor), replacing -p. --domains lists memory domains as CAP@CLASSES
entries with `+`-joined class indices (`--domains 64@0,32@1`; a bare CAP
covers every class). --comm lists symmetric cross-domain transfer costs
as SRC-DST:COST entries (`--comm 0-1:2`; unlisted pairs cost 0), charged
per unit of a task's output when parent and child run in different
domains — only the list schedulers serve comm-bearing platforms. On
serve, the flags set the default platform for requests that carry
neither `processors` nor a `platform` object.
Tree files use the `treesched tree v1` text format (id parent w f n).";

/// A CLI failure: message plus the exit code the binary should use.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message (already includes usage hints).
    pub message: String,
    /// Suggested process exit code.
    pub code: i32,
}

impl CliError {
    pub(crate) fn new(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            code: 2,
        }
    }

    /// Maps a typed scheduling error to its exit code: unknown names are
    /// usage errors (2), everything else is a scheduling failure (1).
    pub(crate) fn sched(e: SchedError) -> CliError {
        let code = match e {
            SchedError::UnknownScheduler { .. } => 2,
            _ => 1,
        };
        CliError {
            message: e.to_string(),
            code,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Executes `args` (without the program name) and returns the text to
/// print on stdout. File writes (`gen -o`) happen inside.
pub fn dispatch(args: &[String]) -> Result<String, CliError> {
    use commands::*;
    let Some((cmd, rest)) = args.split_first() else {
        return Err(CliError::new(USAGE));
    };
    match cmd.as_str() {
        "gen" => gen::execute(rest),
        "stats" => stats::execute(rest),
        "sketch" => sketch::execute(rest),
        "seq" => seq::execute(rest),
        "schedule" => schedule::execute(rest),
        "schedulers" => schedulers::execute(rest),
        "serve" => serve::execute(rest),
        "connect" => connect::execute(rest),
        "metrics" => metrics::execute(rest),
        "pareto" => pareto::execute(rest),
        "campaign" => campaign::execute(rest),
        "tree" => tree::execute(rest),
        "dot" => dot::execute(rest),
        "--help" | "-h" | "help" => Ok(USAGE.to_string()),
        other => Err(CliError::new(format!(
            "unknown command `{other}`\n\n{USAGE}"
        ))),
    }
}
