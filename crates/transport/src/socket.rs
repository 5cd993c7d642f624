//! The Unix-domain socket transport: many client processes, one warm
//! engine.
//!
//! [`listen_unix`] accepts connections on a socket path and serves each
//! over the shared [`Daemon`] — every connection is one client with its
//! own in-flight budget and its own framed response stream, while the
//! engine's worker scratches and tree cache are shared across all of
//! them. [`connect_unix`] is the matching client: it pumps a request
//! stream in, collects the framed responses, and (unless asked for the
//! raw stream) reconstructs the exact batch output by stable-sorting on
//! the submission index.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::daemon::{ClientHandle, Daemon};
use crate::pump::pump;

/// Options of [`listen_unix`].
#[derive(Clone, Copy, Debug)]
pub struct ListenOptions {
    /// Stop after this many connections (served to completion); `None`
    /// listens forever. Bounded accepts make daemon lifetimes
    /// deterministic in tests and scripted pipelines.
    pub accept: Option<u64>,
    /// Backpressure mode: `true` blocks a connection's read loop while
    /// its in-flight budget is full (the client's writes back up in the
    /// socket buffer); `false` answers excess lines with typed
    /// `Overloaded` records instead.
    pub block: bool,
}

impl Default for ListenOptions {
    fn default() -> ListenOptions {
        ListenOptions {
            accept: None,
            block: true,
        }
    }
}

/// Binds `path` (replacing a stale socket file) and serves connections
/// over `daemon` until the accept budget is spent. Each connection runs
/// on its own thread; the call returns — with the number of connections
/// served — once every accepted connection has completed.
///
/// Drains gracefully when `stop` latches (a SIGTERM flag from
/// [`crate::signal::term_flag`], or any test-owned atomic): the listener
/// stops accepting, every open connection's read side is shut down so its
/// pump sees EOF, and the call returns once every already-submitted line
/// has been answered and flushed.
pub fn listen_unix(
    daemon: &Daemon,
    path: &Path,
    options: ListenOptions,
    stop: &AtomicBool,
) -> std::io::Result<u64> {
    let _ = std::fs::remove_file(path); // stale socket from a dead daemon
    let listener = UnixListener::bind(path)?;
    // nonblocking accepts so the loop can observe `stop` between polls
    listener.set_nonblocking(true)?;
    // read halves of live connections, for the stop-time EOF broadcast
    let open: Mutex<Vec<UnixStream>> = Mutex::new(Vec::new());
    let mut served = 0u64;
    std::thread::scope(|scope| {
        loop {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            match listener.accept() {
                Ok((stream, _addr)) => {
                    stream.set_nonblocking(false)?;
                    if let Ok(clone) = stream.try_clone() {
                        open.lock().expect("socket list poisoned").push(clone);
                    }
                    let client = daemon.client();
                    let block = options.block;
                    scope.spawn(move || handle_conn(stream, client, block));
                    served += 1;
                    if options.accept.is_some_and(|budget| served >= budget) {
                        break;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(e),
            }
        }
        if stop.load(Ordering::SeqCst) {
            // force every pump's reader to EOF: in-flight lines drain,
            // no new lines enter (shutdown spans all clones of a socket)
            for conn in open.lock().expect("socket list poisoned").iter() {
                let _ = conn.shutdown(std::net::Shutdown::Read);
            }
        }
        Ok::<(), std::io::Error>(())
        // the scope joins every connection thread: each pump returns only
        // after its submitted lines are answered and written back
    })?;
    let _ = std::fs::remove_file(path);
    Ok(served)
}

/// Serves one accepted connection: socket lines in, framed responses out,
/// then a write-side shutdown so the client sees EOF after its last
/// response. A stop reaches the connection as that read-side EOF, so its
/// pump watches no flag of its own.
fn handle_conn(stream: UnixStream, client: ClientHandle, block: bool) {
    static NEVER: AtomicBool = AtomicBool::new(false);
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let reader = BufReader::new(stream);
    if let Ok((_delivered, write_half)) = pump(client, reader, write_half, block, &NEVER) {
        let _ = write_half.shutdown(std::net::Shutdown::Write);
    }
}

/// Connects to a serve daemon at `path`, streams `input`'s request lines
/// to it, and writes the responses to `output`: the reconstructed batch
/// stream (sorted by submission index, frames stripped) by default, or
/// the framed records in arrival order with `raw`.
///
/// The input pump runs on its own thread so responses are consumed while
/// requests are still being written — required for liveness once either
/// side exerts backpressure.
pub fn connect_unix(
    path: &Path,
    input: impl BufRead + Send + 'static,
    mut output: impl Write,
    raw: bool,
) -> std::io::Result<()> {
    let stream = UnixStream::connect(path)?;
    let mut write_half = stream.try_clone()?;
    let feeder = std::thread::spawn(move || -> std::io::Result<()> {
        let mut input = input;
        let mut line = String::new();
        loop {
            line.clear();
            if input.read_line(&mut line)? == 0 {
                break;
            }
            if !line.ends_with('\n') {
                line.push('\n');
            }
            write_half.write_all(line.as_bytes())?;
            write_half.flush()?;
        }
        write_half.shutdown(std::net::Shutdown::Write)
    });
    let mut collected: Vec<String> = Vec::new();
    for line in BufReader::new(stream).lines() {
        let line = line?;
        if raw {
            writeln!(output, "{line}")?;
        } else {
            collected.push(line);
        }
    }
    let _ = feeder.join();
    if !raw {
        let text = crate::frame::reorder(collected.iter().map(|s| s.as_str()))
            .map_err(std::io::Error::other)?;
        output.write_all(text.as_bytes())?;
    }
    output.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::DaemonConfig;
    use crate::testutil::{batch_reference, stream};
    use std::io::Cursor;
    use std::time::Duration;
    use treesched_core::SchedulerRegistry;

    /// The stop flag of the tests that run to their accept budget: never set.
    static NEVER: AtomicBool = AtomicBool::new(false);

    fn socket_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("treesched-{tag}-{}.sock", std::process::id()))
    }

    /// Connects with a short retry loop — the listener thread may still be
    /// binding when the client starts.
    fn connect_when_up(path: &Path, input: String, raw: bool) -> std::io::Result<Vec<u8>> {
        let mut last = None;
        for _ in 0..200 {
            let mut out = Vec::new();
            match connect_unix(path, Cursor::new(input.clone()), &mut out, raw) {
                Ok(()) => return Ok(out),
                Err(e) => last = Some(e),
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Err(last.expect("at least one attempt"))
    }

    #[test]
    fn two_concurrent_socket_clients_share_the_daemon_without_loss() {
        let path = socket_path("pair");
        let daemon = Daemon::new(SchedulerRegistry::standard(), DaemonConfig::default());
        std::thread::scope(|scope| {
            let listener = scope.spawn(|| {
                listen_unix(
                    &daemon,
                    &path,
                    ListenOptions {
                        accept: Some(2),
                        ..ListenOptions::default()
                    },
                    &NEVER,
                )
            });
            let clients: Vec<_> = ["sa", "sb"]
                .map(|tag| {
                    let path = path.clone();
                    scope.spawn(move || {
                        let input = stream(tag);
                        let out = connect_when_up(&path, input.clone(), false).expect("serves");
                        (input, out)
                    })
                })
                .into_iter()
                .collect();
            for client in clients {
                let (input, out) = client.join().unwrap();
                assert_eq!(
                    String::from_utf8(out).unwrap(),
                    batch_reference(&input),
                    "sorted socket stream is the batch stream"
                );
            }
            assert_eq!(listener.join().unwrap().expect("listener exits"), 2);
        });
        // both connections flowed through the one shared engine
        let stats = daemon.stats();
        assert_eq!(stats.requests, 2 * 12);
    }

    #[test]
    fn stop_drains_the_open_connection_and_returns() {
        use std::io::{BufRead as _, Write as _};
        let path = socket_path("stop");
        let daemon = Daemon::new(SchedulerRegistry::standard(), DaemonConfig::default());
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            let listener =
                scope.spawn(|| listen_unix(&daemon, &path, ListenOptions::default(), &stop));
            let mut conn = None;
            for _ in 0..200 {
                match UnixStream::connect(&path) {
                    Ok(s) => {
                        conn = Some(s);
                        break;
                    }
                    Err(_) => std::thread::sleep(Duration::from_millis(10)),
                }
            }
            let conn = conn.expect("listener came up");
            let mut write_half = conn.try_clone().unwrap();
            let input = stream("stop");
            for line in input.lines().take(3) {
                writeln!(write_half, "{line}").unwrap();
            }
            write_half.flush().unwrap();
            // collect the three answers; the write half stays open, so
            // only the stop latch can end this connection
            let mut reader = BufReader::new(conn);
            for _ in 0..3 {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                crate::frame::unframe(line.trim_end()).expect("framed response");
            }
            stop.store(true, Ordering::SeqCst);
            // drain broadcast: the daemon shuts the connection down and
            // the client sees EOF instead of hanging
            let mut tail = String::new();
            reader.read_line(&mut tail).unwrap();
            assert_eq!(tail, "", "write side closed after the drain");
            assert_eq!(listener.join().unwrap().expect("listener exits"), 1);
        });
        assert_eq!(daemon.stats().requests, 3, "all submitted lines served");
    }

    #[test]
    fn raw_mode_exposes_the_frames_and_reorders_to_the_same_bytes() {
        let path = socket_path("raw");
        let daemon = Daemon::new(SchedulerRegistry::standard(), DaemonConfig::default());
        std::thread::scope(|scope| {
            let listener = scope.spawn(|| {
                listen_unix(
                    &daemon,
                    &path,
                    ListenOptions {
                        accept: Some(1),
                        ..ListenOptions::default()
                    },
                    &NEVER,
                )
            });
            let input = stream("raw");
            let out = connect_when_up(&path, input.clone(), true).expect("serves");
            let framed = String::from_utf8(out).unwrap();
            let mut seen: Vec<u64> = Vec::new();
            for line in framed.lines() {
                let (n, _) = crate::frame::unframe(line).expect("every line framed");
                seen.push(n);
            }
            seen.sort_unstable();
            let expected: Vec<u64> = (0..input.lines().count() as u64).collect();
            assert_eq!(seen, expected, "every submission answered exactly once");
            assert_eq!(
                crate::frame::reorder(framed.lines()).unwrap(),
                batch_reference(&input)
            );
            listener.join().unwrap().expect("listener exits");
        });
    }
}
