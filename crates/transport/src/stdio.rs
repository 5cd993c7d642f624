//! The stdio transport: the daemon's JSONL protocol framed over a pipe.
//!
//! `treesched serve --stdio` runs this loop over stdin/stdout: request
//! lines in, framed response records out in completion order. A parent
//! process holding both pipe ends gets a warm-cache scheduling service
//! for the cost of spawning one child.

use std::io::{BufRead, Write};
use std::sync::atomic::AtomicBool;

use crate::daemon::Daemon;
use crate::pump::pump;

/// Serves one request stream over a byte pipe: reads JSONL lines from
/// `input` until EOF and writes each framed response to `output` as it
/// completes. With `block`, a full in-flight budget blocks the read loop
/// (backpressure through the pipe); without it, excess lines are answered
/// immediately with typed `Overloaded` records.
///
/// Drains gracefully when `stop` latches (a SIGTERM flag from
/// [`crate::signal::term_flag`], or any test-owned atomic): no further
/// lines are consumed past the next line boundary, every line already
/// submitted is answered and flushed, and the call returns. A reader
/// blocked on an idle pipe is left behind (it cannot be interrupted from
/// safe code), which is why the input must be `Send + 'static`.
///
/// Returns the number of responses delivered and the output handle.
pub fn serve_stdio<W: Write>(
    daemon: &Daemon,
    input: impl BufRead + Send + 'static,
    output: W,
    block: bool,
    stop: &'static AtomicBool,
) -> std::io::Result<(u64, W)> {
    pump(daemon.client(), input, output, block, stop)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::DaemonConfig;
    use crate::testutil::{batch_reference, stream};
    use treesched_core::SchedulerRegistry;

    /// The stop flag of the tests that run to EOF: never set.
    static NEVER: AtomicBool = AtomicBool::new(false);

    #[test]
    fn stdio_stream_reordered_matches_the_batch_output() {
        let input = stream("stdio");
        let daemon = Daemon::new(SchedulerRegistry::standard(), DaemonConfig::default());
        let pipe = std::io::Cursor::new(input.clone().into_bytes());
        let (delivered, out) =
            serve_stdio(&daemon, pipe, Vec::new(), true, &NEVER).expect("pipe serves");
        assert_eq!(delivered, input.lines().count() as u64);
        let framed = String::from_utf8(out).unwrap();
        let got = crate::frame::reorder(framed.lines()).expect("every line framed");
        assert_eq!(got, batch_reference(&input));
    }

    #[test]
    fn stoppable_stdio_drains_submitted_lines_without_eof() {
        use std::io::Read;
        use std::sync::atomic::Ordering;
        use std::sync::{mpsc, Arc, Mutex};
        use std::time::Duration;

        /// A pipe stand-in: yields `head`, then blocks (no EOF) until
        /// the test drops the gate sender — like an idle stdin.
        struct Held {
            head: std::io::Cursor<Vec<u8>>,
            gate: mpsc::Receiver<()>,
        }
        impl Read for Held {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                let n = self.head.read(buf)?;
                if n > 0 {
                    return Ok(n);
                }
                let _ = self.gate.recv();
                Ok(0)
            }
        }

        #[derive(Clone)]
        struct Shared(Arc<Mutex<Vec<u8>>>);
        impl Write for Shared {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let input = stream("halt");
        let want = input.lines().count();
        let (keep_open, gate) = mpsc::channel::<()>();
        let held = Held {
            head: std::io::Cursor::new(input.clone().into_bytes()),
            gate,
        };
        let stop: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let sink = Shared(Arc::new(Mutex::new(Vec::new())));
        let view = sink.clone();
        let served = std::thread::spawn(move || {
            let daemon = Daemon::new(SchedulerRegistry::standard(), DaemonConfig::default());
            serve_stdio(&daemon, std::io::BufReader::new(held), sink, true, stop)
                .map(|(delivered, _)| delivered)
        });
        // wait until every line is answered, then latch stop: the input
        // never reaches EOF, so only the drain path can end the serve
        for _ in 0..500 {
            let newlines = view
                .0
                .lock()
                .unwrap()
                .iter()
                .filter(|&&b| b == b'\n')
                .count();
            if newlines >= want {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        stop.store(true, Ordering::SeqCst);
        let delivered = served.join().unwrap().expect("serve returns");
        assert_eq!(delivered, want as u64, "every submitted line answered");
        let framed = String::from_utf8(view.0.lock().unwrap().clone()).unwrap();
        assert_eq!(
            crate::frame::reorder(framed.lines()).unwrap(),
            batch_reference(&input)
        );
        drop(keep_open); // release the parked reader thread
    }

    #[test]
    fn stdio_blank_lines_and_eof_terminate_cleanly() {
        let daemon = Daemon::new(SchedulerRegistry::standard(), DaemonConfig::default());
        let (delivered, out) =
            serve_stdio(&daemon, "\n  \n".as_bytes(), Vec::new(), true, &NEVER).expect("serves");
        assert_eq!(delivered, 0);
        assert!(out.is_empty());
    }
}
