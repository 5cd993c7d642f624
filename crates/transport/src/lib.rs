//! Streaming serve daemon: long-lived transports over the serving engine.
//!
//! The [`treesched_serve`] engine batches and shards a request *window*;
//! this crate wraps it into a *daemon* that serves request **streams**
//! over real transports, so many client processes share one warm-cache
//! engine:
//!
//! * [`Daemon`] — one engine-loop thread over a single
//!   [`treesched_serve::ServeEngine`]; clients attach with
//!   [`Daemon::client`] and get an ordered per-client response channel.
//!   Responses stream out in **completion order**, each framed (see
//!   [`mod@frame`]) with its client-local submission index `n`, so a client
//!   that stable-sorts by `n` reconstructs the batch `serve` output
//!   byte-for-byte.
//! * **Backpressure** — every client has a bounded in-flight budget
//!   ([`DaemonConfig::inflight_cap`]). A full budget either blocks the
//!   submitting transport ([`Submitter::submit_blocking`]) or answers
//!   lines immediately with typed
//!   [`treesched_core::SchedError::Overloaded`] records
//!   ([`Submitter::submit_or_overload`]); either way every submitted line
//!   gets exactly one response — overload sheds work, never responses.
//! * **Transports** — the JSONL protocol framed over a stdio pipe
//!   ([`serve_stdio`], the `serve --stdio` loop) and a Unix-domain socket
//!   ([`listen_unix`] / [`connect_unix`], the `serve --listen` /
//!   `connect` pair).
//! * **Graceful drain** — both transports ([`listen_unix`],
//!   [`serve_stdio`]) watch an atomic stop flag (wired to SIGTERM by
//!   [`signal::term_flag`] in the CLI): on stop they take no new work,
//!   answer everything already submitted, and return so the process can
//!   flush a final metrics snapshot and exit 0. Both run on one
//!   per-connection pump.
//! * **Observability** — every daemon carries a
//!   [`treesched_obs::MetricsRegistry`]; clients fetch a live snapshot
//!   in-band with a `{"op":"metrics"}` request line, embedders with
//!   [`Daemon::metrics_json`] (see the [`daemon`] module docs).
//! * [`serve_batch`] — the one-shot batch `serve` command: the daemon's
//!   engine loop run in place on the calling thread over one whole
//!   input. Batch and daemon share one parser ([`RequestParser`]: parse,
//!   tree cache, platform and scheduler defaulting), one control-line
//!   path, one drain sink and one metrics registry, which is what makes
//!   streamed-equals-batch a structural guarantee instead of a
//!   convention.
//!
//! ```
//! use treesched_core::SchedulerRegistry;
//! use treesched_transport::{Daemon, DaemonConfig};
//!
//! let daemon = Daemon::new(SchedulerRegistry::standard(), DaemonConfig::default());
//! // no requests yet: stats round-trip through the engine loop
//! assert_eq!(daemon.stats().requests, 0);
//! ```

pub mod daemon;
pub mod frame;
pub mod proto;
#[cfg(unix)]
pub mod signal;
#[cfg(unix)]
pub mod socket;
pub mod stdio;

mod pump;
#[cfg(test)]
pub(crate) mod testutil;

pub use daemon::{serve_batch, ClientHandle, Daemon, DaemonConfig, Submitter};
pub use frame::{frame, reorder, unframe};
pub use proto::{default_scheduler, RequestParser};
#[cfg(unix)]
pub use socket::{connect_unix, listen_unix, ListenOptions};
pub use stdio::serve_stdio;
