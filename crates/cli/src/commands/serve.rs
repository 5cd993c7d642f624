//! `serve` — the JSONL serving front-end over the serve daemon's engine
//! loop: one batch in input order, or a daemon over stdio or a Unix
//! socket.

use super::{read_file, write_file};
use crate::args::parse_common;
use crate::CliError;
use treesched_core::{Platform, SchedulerRegistry};
use treesched_transport::{Daemon, DaemonConfig, ListenOptions};

const USAGE: &str = "usage: treesched serve [FILE] [--workers N] [--speeds L] [--domains D] \
                     [--comm C] [--metrics-out FILE]
       treesched serve --stdio | --listen PATH [--accept N] [--inflight N] [--overload] \
                     [--workers N] [--speeds L] [--domains D] [--comm C] [--metrics-out FILE]";

/// Request records reference tree files by path; each distinct path is
/// loaded once and shared across its requests, so same-tree traffic
/// batches inside the engine. Per-request failures (unreadable tree,
/// protocol errors, typed scheduling errors) become `error` records in the
/// output — one line per input request, in input order, always.
/// `--speeds`/`--domains`/`--comm` set the default platform applied to
/// requests that carry neither `processors` nor a `platform` object.
pub(crate) fn execute(args: &[String]) -> Result<String, CliError> {
    let common = parse_common(
        args,
        "--workers --speeds --domains --comm --metrics-out --listen --accept --inflight",
        "--stdio --overload",
        USAGE,
    )?;
    let path = match common.positional.as_slice() {
        [] => None,
        [path] => Some(path.as_str()),
        [_, extra, ..] => return Err(CliError::new(format!("unexpected argument `{extra}`"))),
    };
    let listen = common.value("--listen");
    let stdio = common.switch("--stdio");
    let overload = common.switch("--overload");
    let metrics_out = common.value("--metrics-out");
    let accept: Option<u64> = common.num("--accept", "N")?;
    let inflight: Option<usize> = common.num("--inflight", "N")?;
    if inflight == Some(0) {
        return Err(CliError::new("--inflight needs at least 1"));
    }
    let workers = common.workers.unwrap_or(1);
    let default_platform = match (
        common.value("--speeds"),
        common.value("--domains"),
        common.value("--comm"),
    ) {
        (None, None, None) => None,
        (None, Some(_), _) => {
            return Err(CliError::new("serve --domains needs --speeds"));
        }
        (None, None, Some(_)) => {
            return Err(CliError::new("serve --comm needs --speeds and --domains"));
        }
        (Some(_), _, _) => Some(common.platform(None, None)?),
    };
    if listen.is_some() || stdio {
        if listen.is_some() && stdio {
            return Err(CliError::new("--listen and --stdio are exclusive"));
        }
        if path.is_some() {
            return Err(CliError::new(
                "daemon modes stream their transport; they take no FILE",
            ));
        }
        let daemon = Daemon::new(
            SchedulerRegistry::standard(),
            DaemonConfig {
                workers,
                inflight_cap: inflight.unwrap_or(64),
                default_platform,
            },
        );
        // blocking backpressure by default; --overload sheds excess lines
        // as typed records instead
        let block = !overload;
        // SIGTERM drains gracefully: the transports stop taking new work,
        // answer every in-flight line, and return so the final snapshot
        // (if requested) flushes and the process exits 0
        let stop = treesched_transport::signal::term_flag();
        let flush_metrics = |daemon: &Daemon| -> Result<(), CliError> {
            if let Some(path) = metrics_out {
                write_file(path, daemon.metrics_json())?;
            }
            Ok(())
        };
        if let Some(socket) = listen {
            let options = ListenOptions {
                accept: accept.filter(|&n| n > 0),
                block,
            };
            let served = treesched_transport::listen_unix(
                &daemon,
                std::path::Path::new(socket),
                options,
                stop,
            )
            .map_err(|e| CliError::new(format!("cannot serve on {socket}: {e}")))?;
            flush_metrics(&daemon)?;
            return Ok(format!("served {served} connections\n"));
        }
        // --stdio: framed responses stream straight to stdout in
        // completion order; nothing is left to print afterwards (the
        // un-lockable Stdin handle is what the drain's detached reader
        // thread needs)
        let stdin = std::io::BufReader::new(std::io::stdin());
        treesched_transport::serve_stdio(&daemon, stdin, std::io::stdout(), block, stop)
            .map_err(|e| CliError::new(format!("stdio serve failed: {e}")))?;
        flush_metrics(&daemon)?;
        return Ok(String::new());
    }
    if accept.is_some() || overload || inflight.is_some() {
        return Err(CliError::new(
            "--accept/--inflight/--overload need a daemon mode (--listen or --stdio)",
        ));
    }
    let input = match path {
        Some("-") | None => {
            let mut buf = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin(), &mut buf)
                .map_err(|e| CliError::new(format!("cannot read stdin: {e}")))?;
            buf
        }
        Some(p) => read_file(p)?,
    };
    let (output, snapshot) = serve_jsonl_with_metrics(&input, workers, default_platform.as_ref());
    if let Some(path) = metrics_out {
        write_file(path, snapshot)?;
    }
    Ok(output)
}

/// Runs one JSONL request stream through a fresh engine and renders the
/// response stream. Split from the `serve` subcommand so tests can drive
/// the exact byte-level protocol without touching stdin.
/// `default_platform` applies to requests that spell no platform of their
/// own (neither `processors` nor a `platform` object).
///
/// The stream is served by the daemon's own engine loop, run in place
/// ([`treesched_transport::serve_batch`]), so a daemon client
/// that stable-sorts its framed responses gets this function's output
/// byte-for-byte, and a `{"op":"metrics"}` line is answered in its slot
/// with a snapshot record, as in the daemon.
pub fn serve_jsonl(input: &str, workers: usize, default_platform: Option<&Platform>) -> String {
    serve_jsonl_with_metrics(input, workers, default_platform).0
}

/// As [`serve_jsonl`], additionally returning the final metrics snapshot
/// as one `{"op":"metrics",...}` JSONL record (the `--metrics-out` body):
/// the daemon's snapshot, with its request/response counters, engine
/// counters, response-latency and schedule-time histograms and stage
/// spans. The response stream is byte-for-byte the [`serve_jsonl`]
/// stream — metrics live entirely outside the response identity (a
/// property test pins this).
pub fn serve_jsonl_with_metrics(
    input: &str,
    workers: usize,
    default_platform: Option<&Platform>,
) -> (String, String) {
    treesched_transport::serve_batch(
        SchedulerRegistry::standard(),
        workers,
        default_platform.cloned(),
        input,
    )
}
