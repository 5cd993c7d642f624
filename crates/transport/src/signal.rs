//! A minimal SIGTERM latch for graceful daemon drains — no signal
//! crate, just the POSIX `signal(2)` registration writing one atomic
//! flag.
//!
//! The handler does the only async-signal-safe thing a drain needs: it
//! sets a process-wide [`AtomicBool`]. Transports poll the flag between
//! blocking steps ([`crate::listen_unix`], [`crate::serve_stdio`]) and
//! wind down on their own schedule: stop accepting, answer everything in
//! flight, exit cleanly.
//!
//! Tests (and embedders that manage signals themselves) drive the same
//! drain paths by passing their own flag — nothing here is required for
//! the transports to work.

use std::sync::atomic::{AtomicBool, Ordering};

const SIGTERM: i32 = 15;

extern "C" {
    fn signal(signum: i32, handler: usize) -> usize;
}

static TERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_term(_signum: i32) {
    TERM.store(true, Ordering::SeqCst);
}

/// Installs the SIGTERM handler and returns the process-wide flag it
/// latches. Safe to call more than once; the flag never resets.
pub fn term_flag() -> &'static AtomicBool {
    // SAFETY: registering an async-signal-safe handler (one atomic
    // store, no allocation, no locks) via POSIX signal(2).
    unsafe {
        signal(SIGTERM, on_term as extern "C" fn(i32) as usize);
    }
    &TERM
}
