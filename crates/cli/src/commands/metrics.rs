//! `metrics` — client for the daemon's `{"op":"metrics"}` control
//! request: fetches one live snapshot from a `serve --listen` daemon and
//! prints the bare record (frame stripped), newline-terminated.

use crate::args::parse_common;
use crate::CliError;

const USAGE: &str = "usage: treesched metrics PATH";

pub(crate) fn execute(args: &[String]) -> Result<String, CliError> {
    let common = parse_common(args, "", "", USAGE)?;
    let [path] = common.positional.as_slice() else {
        return Err(CliError::new(USAGE));
    };
    let input = std::io::Cursor::new("{\"op\":\"metrics\"}\n");
    let mut out = Vec::new();
    treesched_transport::connect_unix(std::path::Path::new(path), input, &mut out, false)
        .map_err(|e| CliError::new(format!("cannot connect to {path}: {e}")))?;
    String::from_utf8(out).map_err(|_| CliError::new("daemon answered with non-UTF8 bytes"))
}
