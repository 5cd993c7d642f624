//! The per-connection pump shared by every byte-stream transport: a
//! detached reader thread feeding the [`Submitter`](crate::Submitter),
//! and the calling thread writing framed responses as they complete.

use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Arc;
use std::time::Duration;

use crate::daemon::ClientHandle;

/// Streams one connection: reads JSONL request lines from `input` until
/// EOF, submits each (blocking on the in-flight budget when `block`,
/// shedding typed `Overloaded` records otherwise), and writes every framed
/// response to `output` the moment it completes.
///
/// Returns once EOF has been read **and** every submitted line has been
/// answered (or the peer hung up): the delivered-response count plus the
/// output handle, so callers can close or inspect it.
///
/// Drains gracefully when `stop` latches: the reader stops consuming lines
/// at the next line boundary, every line already submitted is answered,
/// and the call returns. The reader runs detached because a reader
/// blocked in a `read` syscall (an idle stdin pipe, say) cannot be
/// interrupted from safe code — on stop it is simply left behind and the
/// process exits around it. Transports that *can* force the read side to
/// EOF (socket `shutdown(Read)`) get a prompt drain; stdio gets a bounded
/// one.
pub(crate) fn pump<R: BufRead + Send + 'static, W: Write>(
    client: ClientHandle,
    input: R,
    mut output: W,
    block: bool,
    stop: &'static AtomicBool,
) -> std::io::Result<(u64, W)> {
    let (mut submitter, responses) = client.split();
    // total submissions, unknown (u64::MAX) until the reader hits EOF or
    // observes stop; `so_far` trails it for the stop-drain cutoff
    let total = Arc::new(AtomicU64::new(u64::MAX));
    let so_far = Arc::new(AtomicU64::new(0));
    let reader_total = Arc::clone(&total);
    let reader_so_far = Arc::clone(&so_far);
    std::thread::spawn(move || {
        let mut lineno = 0usize;
        for line in input.lines() {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            lineno += 1; // physical line number, blank lines included
            let Ok(line) = line else { break }; // a broken read side is EOF
            submitter.submit_line(lineno, &line, block);
            reader_so_far.store(submitter.submitted(), Ordering::Release);
        }
        reader_total.store(submitter.submitted(), Ordering::Release);
    });
    let mut delivered = 0u64;
    let mut idle_after_stop = 0u32;
    loop {
        match responses.recv_timeout(Duration::from_millis(25)) {
            Ok(line) => {
                if output
                    .write_all(line.as_bytes())
                    .and_then(|()| output.flush())
                    .is_err()
                {
                    break; // peer hung up; responses stop here
                }
                delivered += 1;
                idle_after_stop = 0;
            }
            Err(RecvTimeoutError::Timeout) => {
                if stop.load(Ordering::SeqCst) {
                    idle_after_stop += 1;
                }
            }
            Err(RecvTimeoutError::Disconnected) => break,
        }
        if total.load(Ordering::Acquire) == delivered {
            break; // reader finished and every line is answered
        }
        // stop-drain cutoff: everything submitted so far is answered and
        // two idle rounds passed (grace for a submission racing the latch)
        if stop.load(Ordering::SeqCst)
            && idle_after_stop >= 2
            && delivered >= so_far.load(Ordering::Acquire)
        {
            break;
        }
    }
    Ok((delivered, output))
}
