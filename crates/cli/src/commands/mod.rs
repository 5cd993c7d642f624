//! One module per subcommand (the `pgr nwk` layout): each exposes a pure
//! `execute(&[String]) -> Result<String, CliError>` over the arguments
//! after its name, reads them through [`crate::args::parse_common`], and
//! shares the file plumbing here. Schedulers are resolved exclusively
//! through [`treesched_core::SchedulerRegistry`] — the CLI holds no
//! per-heuristic dispatch of its own.

pub(crate) mod campaign;
pub(crate) mod connect;
pub(crate) mod dot;
pub(crate) mod gen;
pub(crate) mod metrics;
pub(crate) mod pareto;
pub(crate) mod schedule;
pub(crate) mod schedulers;
pub(crate) mod seq;
pub(crate) mod serve;
pub(crate) mod sketch;
pub(crate) mod stats;
pub(crate) mod tree;

#[cfg(test)]
mod tests;

use crate::CliError;
use treesched_model::{io as tree_io, TaskTree};
use treesched_trees::{Format, IngestOptions};

/// Writes `contents` to `path` through a temporary file in the same
/// directory that is then renamed into place, so a concurrent reader — a
/// live daemon loading a tree — sees the old file or the whole new one,
/// never a partial write. Leaves no temporary file behind on failure.
pub(crate) fn write_file(path: &str, contents: impl AsRef<[u8]>) -> Result<(), CliError> {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let target = std::path::Path::new(path);
    let name = target.file_name().unwrap_or(target.as_os_str());
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = target.with_file_name(format!(
        ".{}.{}-{seq}.tmp",
        name.to_string_lossy(),
        std::process::id()
    ));
    let written = std::fs::write(&tmp, contents).and_then(|()| std::fs::rename(&tmp, target));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written.map_err(|e| CliError::new(format!("cannot write {path}: {e}")))
}

pub(crate) fn load_tree(path: &str) -> Result<TaskTree, CliError> {
    let text = read_file(path)?;
    tree_io::from_text(&text).map_err(|e| CliError::new(format!("cannot parse {path}: {e}")))
}

pub(crate) fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, CliError> {
    s.parse()
        .map_err(|_| CliError::new(format!("cannot parse {what} from `{s}`")))
}

/// Loads one input file through the toolbox (format detection + ingest
/// options). I/O and parse failures keep the toolbox's path-attached
/// wording and exit as usage errors, like [`load_tree`].
pub(crate) fn load_input(
    path: &str,
    ingest: IngestOptions,
) -> Result<(TaskTree, Format), CliError> {
    treesched_trees::load(path, ingest).map_err(|e| CliError::new(e.to_string()))
}

/// Reads a whole file; a failure names the path.
pub(crate) fn read_file(path: &str) -> Result<String, CliError> {
    std::fs::read_to_string(path).map_err(|e| CliError::new(format!("cannot read {path}: {e}")))
}
