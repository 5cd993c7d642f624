//! The serve daemon: one long-lived engine loop, many clients, bounded
//! per-client submission queues.
//!
//! A [`Daemon`] owns a single [`ServeEngine`] (and therefore one set of
//! warm worker scratches and one tree cache) on a dedicated engine-loop
//! thread. Clients attach with [`Daemon::client`] and get two halves:
//!
//! * a [`Submitter`] that pushes raw JSONL request lines in, and
//! * an ordered response [`Receiver`] that yields framed response records
//!   (see [`mod@crate::frame`]) in **completion order**.
//!
//! The engine loop alternates between collecting a window of queued
//! operations and draining the engine with
//! [`ServeEngine::drain_with`] — each result is routed to its client the
//! moment it completes, so a slow request never delays responses for
//! other requests or other clients.
//!
//! Batch `serve` is the same loop run in place ([`serve_batch`]): the
//! whole input is queued as one client before the loop starts, so it
//! drains as one window, and the reordered responses are the batch
//! output. Batch and daemon answers are byte-identical by construction.
//!
//! # Backpressure
//!
//! Every client has a bounded in-flight budget
//! ([`DaemonConfig::inflight_cap`]): the number of submitted lines whose
//! responses have not yet been handed to the transport. When the budget
//! is exhausted, [`Submitter::submit_blocking`] blocks the submitting
//! thread (the socket transport's choice — the client's writes back up in
//! the socket buffer), while [`Submitter::submit_or_overload`] instead
//! answers the line immediately with a typed
//! [`SchedError::Overloaded`] record. Either way, **every submitted line
//! gets exactly one response** — the daemon never drops a line and never
//! panics on overload.
//!
//! # Observability
//!
//! Every engine loop carries a [`MetricsRegistry`]: request/response/shed/
//! malformed counters, an aggregate in-flight gauge, the engine counters,
//! log2 histograms of framed-response latency and of per-request schedule
//! time, and parse/drain stage spans. A client line of exactly
//! `{"op":"metrics"}` is answered — in its response slot, like any other
//! line — with one snapshot record
//! (`{"op":"metrics","requests_total":...,...}`); any other `"op"` line
//! is a typed malformed-request record. [`Daemon::metrics_json`] fetches
//! the same snapshot out-of-band, and [`serve_batch`] returns it after
//! the drain. Metrics stay outside byte-identity.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use treesched_core::{Platform, SchedError, SchedulerRegistry};
use treesched_obs::{Counter, Gauge, Histogram, MetricsRegistry, Span};
use treesched_serve::jsonl::{parse_object, Value};
use treesched_serve::{
    error_json, malformed_json, result_json, JsonRecord, ServeEngine, ServeStats,
};

use crate::frame::frame;
use crate::proto::RequestParser;

/// Configuration of a [`Daemon`].
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// Engine worker threads (clamped to at least one).
    pub workers: usize,
    /// Per-client in-flight budget (clamped to at least one): the maximum
    /// number of submitted lines awaiting responses before backpressure
    /// kicks in.
    pub inflight_cap: usize,
    /// Default platform for requests that spell none of their own —
    /// the daemon-side equivalent of `serve --speeds/--domains`.
    pub default_platform: Option<Platform>,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            workers: 2,
            inflight_cap: 64,
            default_platform: None,
        }
    }
}

/// Per-client in-flight counter: a condvar-guarded semaphore.
struct Inflight {
    cap: usize,
    n: Mutex<usize>,
    cv: Condvar,
}

impl Inflight {
    fn new(cap: usize) -> Inflight {
        Inflight {
            cap: cap.max(1),
            n: Mutex::new(0),
            cv: Condvar::new(),
        }
    }

    fn acquire(&self) {
        let mut n = self.n.lock().expect("inflight lock");
        while *n >= self.cap {
            n = self.cv.wait(n).expect("inflight lock");
        }
        *n += 1;
    }

    fn try_acquire(&self) -> bool {
        let mut n = self.n.lock().expect("inflight lock");
        if *n >= self.cap {
            return false;
        }
        *n += 1;
        true
    }

    fn release(&self) {
        let mut n = self.n.lock().expect("inflight lock");
        *n = n.saturating_sub(1);
        self.cv.notify_one();
    }
}

/// The daemon's metric handles, resolved once against its registry.
/// Registration order here is field order in every snapshot record.
struct Meters {
    registry: Arc<MetricsRegistry>,
    requests: Arc<Counter>,
    responses: Arc<Counter>,
    overloaded: Arc<Counter>,
    malformed: Arc<Counter>,
    inflight: Arc<Gauge>,
    latency: Arc<Histogram>,
    schedule_us: Arc<Histogram>,
    parse_span: Arc<Span>,
    drain_span: Arc<Span>,
}

impl Meters {
    /// Registers every metric, the engine mirrors of a `workers`-worker
    /// engine included, so snapshots list them in a fixed order.
    fn new(workers: usize) -> Meters {
        let registry = Arc::new(MetricsRegistry::new());
        let requests = registry.counter("requests_total");
        let responses = registry.counter("responses_total");
        let overloaded = registry.counter("overloaded_total");
        let malformed = registry.counter("malformed_total");
        let inflight = registry.gauge("inflight");
        for (name, _) in ServeStats::idle(workers).named_counters() {
            registry.counter(&name);
        }
        Meters {
            requests,
            responses,
            overloaded,
            malformed,
            inflight,
            latency: registry.histogram("response_latency_us"),
            schedule_us: registry.histogram("schedule_time_us"),
            parse_span: registry.span("span_parse"),
            drain_span: registry.span("span_drain"),
            registry,
        }
    }

    /// Copies the engine's counters into their snapshot mirrors.
    fn mirror_engine(&self, stats: &ServeStats) {
        for (name, value) in stats.named_counters() {
            self.registry.counter(&name).store(value);
        }
    }

    /// Renders one snapshot record. `count_self` books the record itself
    /// as a response *before* rendering, so an otherwise idle daemon
    /// shows `requests_total == responses_total` — the conservation
    /// invariant CI greps for.
    fn snapshot_record(&self, stats: ServeStats, count_self: bool) -> String {
        if count_self {
            self.responses.inc();
        }
        self.mirror_engine(&stats);
        self.registry
            .snapshot()
            .append(JsonRecord::new().str("op", "metrics"))
            .line()
    }
}

/// Classifies `line` as a control request: `None` for data lines,
/// `Some(Ok(()))` for a well-formed `{"op":"metrics"}`, `Some(Err(_))`
/// for any other line carrying an `"op"` key.
fn classify_control(line: &str) -> Option<Result<(), String>> {
    let pairs = parse_object(line).ok()?;
    pairs
        .iter()
        .any(|(k, _)| k == "op")
        .then(|| match pairs.as_slice() {
            [(_, Value::Str(op))] if op == "metrics" => Ok(()),
            [(_, Value::Str(op))] => Err(format!("unknown control op `{op}` (expected `metrics`)")),
            [(_, _)] => Err("control `op` must be a string".to_string()),
            _ => Err("a control request holds exactly one key, `op`".to_string()),
        })
}

enum Op {
    Register {
        client: u64,
        tx: Sender<String>,
        inflight: Arc<Inflight>,
    },
    Submit {
        client: u64,
        seq: u64,
        lineno: usize,
        line: String,
        at: Instant,
    },
    Stats {
        reply: Sender<ServeStats>,
    },
    Metrics {
        reply: Sender<String>,
    },
    Shutdown,
}

/// The submitting half of a client connection.
pub struct Submitter {
    client: u64,
    seq: u64,
    cap: usize,
    ops: Sender<Op>,
    inflight: Arc<Inflight>,
    loopback: Sender<String>,
    meters: Arc<Meters>,
}

impl Submitter {
    /// Submits one non-empty request line, blocking while the client's
    /// in-flight budget is exhausted. `lineno` is the 1-based line number
    /// in the client's input stream (it surfaces in typed malformed-line
    /// records). Returns the line's client-local submission index — the
    /// `n` its framed response will carry.
    pub fn submit_blocking(&mut self, lineno: usize, line: &str) -> u64 {
        self.inflight.acquire();
        self.meters.inflight.inc();
        self.dispatch(lineno, line)
    }

    /// As [`Submitter::submit_blocking`], but when the in-flight budget is
    /// exhausted the line is answered immediately with a typed
    /// [`SchedError::Overloaded`] record instead of blocking. The line
    /// still consumes a submission index and still gets exactly one
    /// response — overload sheds *work*, never responses.
    pub fn submit_or_overload(&mut self, lineno: usize, line: &str) -> u64 {
        if self.inflight.try_acquire() {
            self.meters.inflight.inc();
            return self.dispatch(lineno, line);
        }
        let seq = self.next();
        self.meters.overloaded.inc();
        self.meters.responses.inc();
        self.meters.latency.record(0);
        let record = error_json(
            None,
            &SchedError::Overloaded { limit: self.cap }.to_string(),
        );
        let _ = self.loopback.send(frame(seq, &record));
        seq
    }

    fn dispatch(&mut self, lineno: usize, line: &str) -> u64 {
        let seq = self.next();
        let op = Op::Submit {
            client: self.client,
            seq,
            lineno,
            line: line.to_string(),
            at: Instant::now(),
        };
        if self.ops.send(op).is_err() {
            // the daemon is gone: the engine loop will never release this
            // slot or answer this line — do both here so the client still
            // sees one response per line and never deadlocks
            self.inflight.release();
            self.meters.inflight.dec();
            self.meters.responses.inc();
            let record = error_json(None, "serve daemon is shut down");
            let _ = self.loopback.send(frame(seq, &record));
        }
        seq
    }

    fn next(&mut self) -> u64 {
        // every line ever submitted counts, whatever answers it
        self.meters.requests.inc();
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    /// Lines submitted so far (including overloaded ones) — exactly the
    /// number of framed responses the client will receive.
    pub fn submitted(&self) -> u64 {
        self.seq
    }

    /// Submits one input line with its 1-based line number, blocking or
    /// shedding as [`Submitter::submit_blocking`] or
    /// [`Submitter::submit_or_overload`]; a blank line takes no slot.
    pub(crate) fn submit_line(&mut self, lineno: usize, line: &str, block: bool) {
        if line.trim().is_empty() {
            return;
        }
        if block {
            self.submit_blocking(lineno, line);
        } else {
            self.submit_or_overload(lineno, line);
        }
    }
}

/// One attached client: the submitting half plus the ordered response
/// channel of framed records.
pub struct ClientHandle {
    /// Pushes request lines in.
    pub submitter: Submitter,
    /// Yields framed response records in completion order.
    pub responses: Receiver<String>,
}

impl ClientHandle {
    /// Splits the handle for use from two threads (a transport's reader
    /// and writer sides).
    pub fn split(self) -> (Submitter, Receiver<String>) {
        (self.submitter, self.responses)
    }

    /// Convenience for tests and in-process callers: submits every
    /// non-empty line of `input`, waits for every response, and returns
    /// the reconstructed batch output (stable-sorted by submission index,
    /// frames stripped).
    pub fn run_batch(mut self, input: &str, block: bool) -> String {
        for (k, line) in input.lines().enumerate() {
            self.submitter.submit_line(k + 1, line, block);
        }
        collect(&self.responses, self.submitter.submitted())
    }
}

/// Receives `n` framed responses (fewer if the daemon is gone mid-stream)
/// and restores input order.
fn collect(responses: &Receiver<String>, n: u64) -> String {
    let lines: Vec<String> = responses.iter().take(n as usize).collect();
    crate::frame::reorder(lines.iter().map(|s| s.as_str()))
        .expect("the daemon frames every response")
}

/// A running serve daemon: handle to the engine-loop thread.
///
/// Dropping the daemon shuts the engine loop down after it finishes the
/// operations already queued; drop (or detach) all clients first — a
/// submitter blocked on a full in-flight budget can only be released by
/// the engine loop.
pub struct Daemon {
    ops: Sender<Op>,
    next_client: AtomicU64,
    cap: usize,
    meters: Arc<Meters>,
    handle: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns the engine loop over its own registry.
    pub fn new(registry: SchedulerRegistry, config: DaemonConfig) -> Daemon {
        Daemon::with_registry(Arc::new(registry), config)
    }

    /// As [`Daemon::new`], over a shared registry.
    pub fn with_registry(registry: Arc<SchedulerRegistry>, config: DaemonConfig) -> Daemon {
        let cap = config.inflight_cap.max(1);
        let meters = Arc::new(Meters::new(config.workers));
        let loop_meters = Arc::clone(&meters);
        let (ops, ops_rx) = channel();
        let handle = std::thread::spawn(move || {
            engine_loop(&ops_rx, &registry, config, &loop_meters);
        });
        Daemon {
            ops,
            next_client: AtomicU64::new(0),
            cap,
            meters,
            handle: Some(handle),
        }
    }

    /// Attaches a new client with a fresh in-flight budget.
    pub fn client(&self) -> ClientHandle {
        let client = self.next_client.fetch_add(1, Ordering::Relaxed);
        attach(&self.ops, client, self.cap, &self.meters)
    }

    /// Aggregate engine counters, fetched through the engine loop.
    pub fn stats(&self) -> ServeStats {
        let (reply, rx) = channel();
        if self.ops.send(Op::Stats { reply }).is_err() {
            return ServeStats::default();
        }
        rx.recv().unwrap_or_default()
    }

    /// The current metrics snapshot as one JSONL record — the same
    /// record a client gets for a `{"op":"metrics"}` line, fetched
    /// out-of-band (it takes no response slot and books no response).
    /// Empty when the engine loop is already gone.
    pub fn metrics_json(&self) -> String {
        let (reply, rx) = channel();
        if self.ops.send(Op::Metrics { reply }).is_err() {
            return String::new();
        }
        rx.recv().unwrap_or_default()
    }

    /// The daemon's metric registry, for scraping or embedding
    /// (Prometheus-style text via
    /// [`MetricsSnapshot::to_prometheus`](treesched_obs::MetricsSnapshot::to_prometheus)).
    /// Engine-counter mirrors refresh only when a snapshot record is
    /// rendered; prefer [`Daemon::metrics_json`] for consistent reads.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.meters.registry)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.ops.send(Op::Shutdown);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Registers client `client` with an in-flight budget of `cap` on the
/// engine loop behind `ops`.
fn attach(ops: &Sender<Op>, client: u64, cap: usize, meters: &Arc<Meters>) -> ClientHandle {
    let (tx, responses) = channel();
    let inflight = Arc::new(Inflight::new(cap));
    let _ = ops.send(Op::Register {
        client,
        tx: tx.clone(),
        inflight: Arc::clone(&inflight),
    });
    ClientHandle {
        submitter: Submitter {
            client,
            seq: 0,
            cap,
            ops: ops.clone(),
            inflight,
            loopback: tx,
            meters: Arc::clone(meters),
        },
        responses,
    }
}

/// Serves one whole JSONL input on the calling thread and returns the
/// response stream in input order plus the final metrics snapshot record.
///
/// This is the daemon's engine loop, run in place: the input is one
/// client whose in-flight budget is its line count, so submission never
/// blocks; every line is queued before the loop starts, so the loop
/// drains the whole input as one window and stops when the queue runs
/// dry. Responses are framed, rendered and dropped as each result
/// completes, then [`reorder`](crate::frame::reorder)ed. Data lines,
/// control lines and the snapshot are exactly a daemon client's.
pub fn serve_batch(
    registry: SchedulerRegistry,
    workers: usize,
    default_platform: Option<Platform>,
    input: &str,
) -> (String, String) {
    let config = DaemonConfig {
        workers,
        inflight_cap: input.lines().count(),
        default_platform,
    };
    let meters = Arc::new(Meters::new(workers));
    let (ops, ops_rx) = channel();
    let ClientHandle {
        mut submitter,
        responses,
    } = attach(&ops, 0, config.inflight_cap, &meters);
    for (k, line) in input.lines().enumerate() {
        submitter.submit_line(k + 1, line, true);
    }
    let n = submitter.submitted();
    drop((ops, submitter));
    let stats = engine_loop(&ops_rx, &Arc::new(registry), config, &meters);
    (collect(&responses, n), meters.snapshot_record(stats, false))
}

struct ClientState {
    tx: Sender<String>,
    inflight: Arc<Inflight>,
}

/// Serves operations until shutdown or until every sender is gone, and
/// returns the engine's final counters.
fn engine_loop(
    ops: &Receiver<Op>,
    registry: &Arc<SchedulerRegistry>,
    config: DaemonConfig,
    meters: &Meters,
) -> ServeStats {
    let mut engine = ServeEngine::with_registry(Arc::clone(registry), config.workers);
    let mut parser = RequestParser::new(config.default_platform);
    let mut clients: HashMap<u64, ClientState> = HashMap::new();
    // engine submission index -> (client, client-local index, submit time)
    let mut route: HashMap<u64, (u64, u64, Instant)> = HashMap::new();
    let mut shutdown = false;
    while !shutdown {
        // one window: block for the first operation, then absorb whatever
        // else is already queued, then drain — so a burst becomes one
        // engine window (same-tree batching applies across clients) while
        // a lone request is served immediately
        let first = match ops.recv() {
            Ok(op) => op,
            Err(_) => break, // every handle dropped
        };
        shutdown = handle_op(
            first,
            &mut engine,
            &mut parser,
            &mut clients,
            &mut route,
            meters,
        );
        while !shutdown {
            match ops.try_recv() {
                Ok(op) => {
                    shutdown = handle_op(
                        op,
                        &mut engine,
                        &mut parser,
                        &mut clients,
                        &mut route,
                        meters,
                    )
                }
                Err(_) => break,
            }
        }
        if engine.queued() > 0 {
            let _drain = meters.drain_span.enter();
            let mut dead: Vec<u64> = Vec::new();
            let routes = &mut route;
            let attached = &clients;
            engine.drain_with(|result| {
                let Some((client, seq, at)) = routes.remove(&result.index) else {
                    return;
                };
                meters.responses.inc();
                meters.latency.record(at.elapsed().as_micros() as u64);
                meters.schedule_us.record(result.time_us);
                meters.inflight.dec();
                let Some(state) = attached.get(&client) else {
                    return; // client detached; nothing waits on the slot
                };
                let gone = state.tx.send(frame(seq, &result_json(&result))).is_err();
                state.inflight.release();
                if gone {
                    dead.push(client);
                }
            });
            for client in dead {
                clients.remove(&client);
            }
        }
    }
    engine.stats()
}

/// Applies one operation; returns `true` on shutdown.
fn handle_op(
    op: Op,
    engine: &mut ServeEngine,
    parser: &mut RequestParser,
    clients: &mut HashMap<u64, ClientState>,
    route: &mut HashMap<u64, (u64, u64, Instant)>,
    meters: &Meters,
) -> bool {
    match op {
        Op::Register {
            client,
            tx,
            inflight,
        } => {
            clients.insert(client, ClientState { tx, inflight });
        }
        Op::Submit {
            client,
            seq,
            lineno,
            line,
            at,
        } => {
            let Some(state) = clients.get(&client) else {
                return false; // detached while ops were queued
            };
            // control requests (an `"op"` key) answer from the daemon
            // itself, before the request parser — which rightly rejects
            // `op` as an unknown request key — ever sees the line
            let answer = match classify_control(&line) {
                Some(Ok(())) => {
                    // book this line as answered *before* rendering, so
                    // an otherwise idle snapshot shows itself conserved
                    meters.inflight.dec();
                    Some(meters.snapshot_record(engine.stats(), true))
                }
                Some(Err(reason)) => {
                    meters.inflight.dec();
                    meters.malformed.inc();
                    meters.responses.inc();
                    Some(malformed_json(lineno, &reason))
                }
                None => {
                    let parsed = meters.parse_span.time(|| parser.build(lineno, &line));
                    match parsed {
                        Ok(request) => {
                            let index = engine.submit(request);
                            route.insert(index, (client, seq, at));
                            None
                        }
                        Err(record) => {
                            meters.inflight.dec();
                            meters.malformed.inc();
                            meters.responses.inc();
                            Some(record)
                        }
                    }
                }
            };
            if let Some(record) = answer {
                // control and protocol/file-error lines answer without
                // touching the engine; the slot frees immediately
                meters.latency.record(at.elapsed().as_micros() as u64);
                let gone = state.tx.send(frame(seq, &record)).is_err();
                state.inflight.release();
                if gone {
                    clients.remove(&client);
                }
            }
        }
        Op::Stats { reply } => {
            let _ = reply.send(engine.stats());
        }
        Op::Metrics { reply } => {
            let _ = reply.send(meters.snapshot_record(engine.stats(), false));
        }
        Op::Shutdown => return true,
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{batch_reference, fixtures, stream};

    #[test]
    fn streamed_responses_resorted_match_the_batch_output() {
        let input = stream("a");
        let daemon = Daemon::new(SchedulerRegistry::standard(), DaemonConfig::default());
        let got = daemon.client().run_batch(&input, true);
        assert_eq!(got, batch_reference(&input));
    }

    #[test]
    fn in_place_batch_answers_a_metrics_line_in_its_slot() {
        // every other slot is the engine-direct reference's for the input
        // without that line
        let data = stream("a");
        let cut = data.match_indices('\n').nth(5).unwrap().0 + 1;
        let input = format!("{}{{\"op\":\"metrics\"}}\n{}", &data[..cut], &data[cut..]);
        for workers in [1, 2, 3] {
            let (got, snapshot) = serve_batch(SchedulerRegistry::standard(), workers, None, &input);
            let mut lines: Vec<&str> = got.split_inclusive('\n').collect();
            assert!(lines.remove(6).starts_with("{\"op\":\"metrics\","), "{got}");
            assert_eq!(lines.concat(), batch_reference(&data));
            let conserved = "\"requests_total\":13,\"responses_total\":13";
            assert!(snapshot.contains(conserved), "{snapshot}");
            assert!(
                snapshot.contains("\"engine_requests_total\":12"),
                "{snapshot}"
            );
        }
    }

    #[test]
    fn protocol_errors_stream_back_with_their_line_numbers() {
        let (fork, _) = fixtures();
        let input = format!(
            "{{\"id\":\"ok\",\"tree\":\"{fork}\",\"processors\":2}}\n\
             not json\n\
             \n\
             {{\"id\":\"late\",\"tree\":\"{fork}\",\"processors\":3}}\n"
        );
        let daemon = Daemon::new(SchedulerRegistry::standard(), DaemonConfig::default());
        let got = daemon.client().run_batch(&input, true);
        assert_eq!(got, batch_reference(&input));
        let lines: Vec<&str> = got.lines().collect();
        assert_eq!(lines.len(), 3, "blank line takes no slot");
        assert!(
            lines[1].starts_with("{\"id\":null,\"error\":\"bad request on line 2:"),
            "physical line number survives the daemon: {}",
            lines[1]
        );
        assert!(lines[1].ends_with("\"line\":2}"));
    }

    #[test]
    fn concurrent_clients_share_one_warm_engine_without_loss() {
        let daemon = Daemon::new(SchedulerRegistry::standard(), DaemonConfig::default());
        // same trees from both clients: the second stream must reuse the
        // first's warm traversal caches (one engine, shared by clients)
        let handles: Vec<_> = ["a", "b"]
            .map(|tag| {
                let client = daemon.client();
                let input = stream(tag);
                std::thread::spawn(move || (tag, client.run_batch(&input, true), input))
            })
            .into_iter()
            .collect();
        for handle in handles {
            let (tag, got, input) = handle.join().unwrap();
            let expected = batch_reference(&input);
            assert_eq!(got.lines().count(), input.lines().count());
            assert_eq!(got, expected, "client {tag} stream intact");
        }
        let stats = daemon.stats();
        assert_eq!(stats.requests, 2 * 12, "every request served exactly once");
    }

    #[test]
    fn a_second_client_hits_the_first_clients_warm_caches() {
        // one tree only, clients strictly in sequence: the traversal
        // count is deterministic — however the engine windows the
        // submissions, every batch after the first reuses the single
        // cached traversal, so client b runs entirely warm
        let (fork, _) = fixtures();
        let daemon = Daemon::new(SchedulerRegistry::standard(), DaemonConfig::default());
        for tag in ["a", "b"] {
            let input: String = (0..4)
                .map(|k| {
                    format!(
                        "{{\"id\":\"{tag}{k}\",\"tree\":\"{fork}\",\"processors\":{}}}\n",
                        2 + k
                    )
                })
                .collect();
            let got = daemon.client().run_batch(&input, true);
            assert_eq!(got.lines().count(), 4);
            assert!(!got.contains("\"error\""), "{got}");
        }
        let stats = daemon.stats();
        assert_eq!(stats.requests, 8);
        assert_eq!(
            stats.traversal_computes, 1,
            "one tree, one cold traversal across both clients: {stats:?}"
        );
        assert_eq!(stats.traversal_reuses, 7, "{stats:?}");
    }

    /// A scheduler that sleeps before delegating — for holding the
    /// in-flight budget open long enough to observe backpressure.
    struct Slow {
        millis: u64,
    }
    impl treesched_core::Scheduler for Slow {
        fn name(&self) -> &'static str {
            "Slow"
        }
        fn schedule(
            &self,
            req: &treesched_core::Request<'_>,
            s: &mut treesched_core::Scratch,
        ) -> Result<treesched_core::Outcome, SchedError> {
            std::thread::sleep(std::time::Duration::from_millis(self.millis));
            SchedulerRegistry::standard()
                .get("deepest")
                .expect("built-in")
                .schedule(req, s)
        }
    }

    fn slow_registry(millis: u64) -> SchedulerRegistry {
        let mut registry = SchedulerRegistry::standard();
        registry
            .register(Box::new(Slow { millis }), &[], false)
            .unwrap();
        registry
    }

    fn slow_line(tree: &str, k: usize) -> String {
        format!("{{\"id\":\"s{k}\",\"tree\":\"{tree}\",\"processors\":2,\"scheduler\":\"Slow\"}}")
    }

    #[test]
    fn overload_sheds_work_but_never_responses() {
        let (fork, _) = fixtures();
        let daemon = Daemon::new(
            slow_registry(150),
            DaemonConfig {
                inflight_cap: 1,
                ..DaemonConfig::default()
            },
        );
        let (mut submitter, responses) = daemon.client().split();
        for k in 0..4 {
            submitter.submit_or_overload(k + 1, &slow_line(&fork, k));
        }
        let mut seqs = Vec::new();
        let mut overloaded = 0;
        for _ in 0..submitter.submitted() {
            let line = responses.recv().expect("every line answered");
            let (n, record) = crate::frame::unframe(&line).unwrap();
            seqs.push(n);
            if record.contains("client queue overloaded: 1 requests already in flight") {
                overloaded += 1;
            }
        }
        seqs.sort_unstable();
        assert_eq!(seqs, vec![0, 1, 2, 3], "every line exactly one response");
        assert!(
            (1..=3).contains(&overloaded),
            "a full budget sheds load as typed records (got {overloaded})"
        );
    }

    #[test]
    fn blocking_submission_under_a_tiny_budget_loses_nothing() {
        let (fork, _) = fixtures();
        let daemon = Daemon::new(
            slow_registry(10),
            DaemonConfig {
                inflight_cap: 1,
                ..DaemonConfig::default()
            },
        );
        let input: String = (0..5).map(|k| slow_line(&fork, k) + "\n").collect();
        let got = daemon.client().run_batch(&input, true);
        assert_eq!(got.lines().count(), 5);
        assert!(
            !got.contains("overloaded"),
            "blocking submission never sheds: {got}"
        );
        for (k, line) in got.lines().enumerate() {
            assert!(line.starts_with(&format!("{{\"id\":\"s{k}\"")), "{line}");
            assert!(!line.contains("\"error\""), "{line}");
        }
    }

    #[test]
    fn a_dead_worker_surfaces_as_typed_records_not_lost_responses() {
        let (fork, chain) = fixtures();
        let mut registry = SchedulerRegistry::standard();
        struct Panicky;
        impl treesched_core::Scheduler for Panicky {
            fn name(&self) -> &'static str {
                "Panicky"
            }
            fn schedule(
                &self,
                _req: &treesched_core::Request<'_>,
                _s: &mut treesched_core::Scratch,
            ) -> Result<treesched_core::Outcome, SchedError> {
                panic!("scheduler bug")
            }
        }
        registry.register(Box::new(Panicky), &[], false).unwrap();
        let daemon = Daemon::new(
            registry,
            DaemonConfig {
                workers: 3,
                ..DaemonConfig::default()
            },
        );
        let mut input = String::new();
        for k in 0..4 {
            input.push_str(&format!(
                "{{\"id\":\"ok{k}\",\"tree\":\"{chain}\",\"processors\":2}}\n"
            ));
        }
        input.push_str(&format!(
            "{{\"id\":\"doomed\",\"tree\":\"{fork}\",\"processors\":2,\
             \"scheduler\":\"Panicky\"}}\n"
        ));
        let got = daemon.client().run_batch(&input, true);
        let lines: Vec<&str> = got.lines().collect();
        assert_eq!(lines.len(), 5, "every line answered exactly once");
        assert!(
            lines[4].contains("\"id\":\"doomed\"") && lines[4].contains("worker"),
            "the doomed line comes back as a typed worker-lost record: {}",
            lines[4]
        );
        for line in &lines[..4] {
            assert!(!line.contains("\"error\""), "{line}");
        }
    }

    #[test]
    fn metrics_line_answers_with_a_conserving_snapshot() {
        let input = stream("a");
        let daemon = Daemon::new(SchedulerRegistry::standard(), DaemonConfig::default());
        // serve a full data batch first; run_batch returns only after
        // every response was delivered, so the daemon is idle again
        let got = daemon.client().run_batch(&input, true);
        assert_eq!(got, batch_reference(&input), "data lines undisturbed");
        let data_lines = input.lines().filter(|l| !l.trim().is_empty()).count() as u64;

        // a second client asks for the snapshot in-band
        let snapshot = daemon.client().run_batch("{\"op\":\"metrics\"}\n", true);
        assert!(snapshot.starts_with("{\"op\":\"metrics\","), "{snapshot}");
        let n = data_lines + 1; // the metrics line itself is counted
        assert!(
            snapshot.contains(&format!("\"requests_total\":{n},\"responses_total\":{n}")),
            "idle daemon conserves requests == responses: {snapshot}"
        );
        assert!(snapshot.contains("\"worker_lost_total\":0"), "{snapshot}");
        assert!(snapshot.contains("\"inflight\":0"), "{snapshot}");
        assert!(
            snapshot.contains(&format!("\"engine_requests_total\":{data_lines}")),
            "{snapshot}"
        );
        assert!(
            snapshot.contains(&format!("\"schedule_time_us\":{{\"count\":{data_lines}")),
            "every drained result is timed: {snapshot}"
        );
        // the latency histogram saw every engine-served response, each
        // sample in exactly one bucket (count == Σ buckets)
        let hist = snapshot
            .split("\"response_latency_us\":{\"count\":")
            .nth(1)
            .expect("histogram present");
        let count: u64 = hist.split(',').next().unwrap().parse().unwrap();
        let buckets: u64 = hist
            .split("\"buckets\":[")
            .nth(1)
            .and_then(|s| s.split(']').next())
            .expect("buckets array")
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|s| s.parse::<u64>().unwrap())
            .sum();
        assert_eq!(
            count, buckets,
            "every sample in exactly one bucket: {snapshot}"
        );

        // out-of-band fetch sees the same totals and books no response
        let again = daemon.metrics_json();
        assert!(
            again.contains(&format!("\"requests_total\":{n},\"responses_total\":{n}")),
            "{again}"
        );
    }

    #[test]
    fn malformed_control_requests_answer_with_typed_records() {
        let daemon = Daemon::new(SchedulerRegistry::standard(), DaemonConfig::default());
        let got = daemon.client().run_batch(
            "{\"op\":\"status\"}\n\
             {\"op\":\"metrics\",\"x\":1}\n\
             {\"op\":3}\n",
            true,
        );
        let lines: Vec<&str> = got.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(
            lines[0].starts_with("{\"id\":null,\"error\":\"bad request on line 1: ")
                && lines[0].contains("unknown control op `status` (expected `metrics`)")
                && lines[0].ends_with("\"line\":1}"),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].contains("a control request holds exactly one key, `op`"),
            "{}",
            lines[1]
        );
        assert!(
            lines[2].contains("control `op` must be a string"),
            "{}",
            lines[2]
        );
        let snapshot = daemon.metrics_json();
        assert!(snapshot.contains("\"malformed_total\":3"), "{snapshot}");
        assert!(
            snapshot.contains("\"requests_total\":3,\"responses_total\":3"),
            "{snapshot}"
        );
    }

    #[test]
    fn shed_lines_count_as_overloaded_and_conserve() {
        let (fork, _) = fixtures();
        let daemon = Daemon::new(
            slow_registry(150),
            DaemonConfig {
                inflight_cap: 1,
                ..DaemonConfig::default()
            },
        );
        let (mut submitter, responses) = daemon.client().split();
        for k in 0..4 {
            submitter.submit_or_overload(k + 1, &slow_line(&fork, k));
        }
        for _ in 0..submitter.submitted() {
            responses.recv().expect("every line answered");
        }
        let snapshot = daemon.metrics_json();
        assert!(
            snapshot.contains("\"requests_total\":4,\"responses_total\":4"),
            "{snapshot}"
        );
        let shed: u64 = snapshot
            .split("\"overloaded_total\":")
            .nth(1)
            .and_then(|s| s.split(',').next())
            .and_then(|s| s.parse().ok())
            .expect("overloaded_total present");
        assert!((1..=3).contains(&shed), "sheds counted: {snapshot}");
    }

    #[test]
    fn daemon_shutdown_answers_straggler_submissions_as_data() {
        let (fork, _) = fixtures();
        let client = {
            let daemon = Daemon::new(SchedulerRegistry::standard(), DaemonConfig::default());
            daemon.client()
            // daemon drops here: engine loop shuts down
        };
        let (mut submitter, responses) = client.split();
        submitter.submit_blocking(1, &slow_line(&fork, 0));
        let line = responses.recv().expect("answered locally");
        let (n, record) = crate::frame::unframe(&line).unwrap();
        assert_eq!(n, 0);
        assert!(record.contains("serve daemon is shut down"), "{record}");
    }
}
