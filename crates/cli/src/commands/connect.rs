//! `connect` — client for a `serve --listen` daemon: JSONL request lines
//! from stdin to the socket, responses to stdout — reconstructed into the
//! exact batch-mode byte stream by default (stable sort on the frame
//! index), or the raw framed completion-order stream with `--raw`.

use crate::args::parse_common;
use crate::CliError;

const USAGE: &str = "usage: treesched connect PATH [--raw]";

pub(crate) fn execute(args: &[String]) -> Result<String, CliError> {
    let common = parse_common(args, "", "--raw", USAGE)?;
    let path = match common.positional.as_slice() {
        [] => return Err(CliError::new(USAGE)),
        [path] => path,
        [_, extra, ..] => {
            return Err(CliError::new(format!(
                "unexpected argument `{extra}`\n\n{USAGE}"
            )))
        }
    };
    let input = std::io::BufReader::new(std::io::stdin());
    treesched_transport::connect_unix(
        std::path::Path::new(path),
        input,
        std::io::stdout(),
        common.switch("--raw"),
    )
    .map_err(|e| CliError::new(format!("cannot connect to {path}: {e}")))?;
    Ok(String::new())
}
