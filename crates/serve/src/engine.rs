//! The serving engine: sharded worker threads with per-worker scratch
//! buffers and same-tree request batching.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use treesched_core::{
    makespan_lower_bound_on, memory_reference, tree_fingerprint, Outcome, OwnedRequest, Platform,
    SchedError, SchedulerRegistry, Scratch, SeqAlgo,
};
use treesched_model::TaskTree;

/// One scheduling request in a serving stream: an owned problem plus the
/// registry name of the scheduler to apply and an optional client tag.
#[derive(Clone, Debug)]
pub struct ServeRequest {
    /// The owned problem (tree behind an [`Arc`], platform, seq, seed).
    pub problem: OwnedRequest,
    /// Registry name or alias of the scheduler to run.
    pub scheduler: String,
    /// Client-chosen tag echoed verbatim into the result.
    pub id: Option<String>,
    /// Timing repetitions: the scheduler runs this many times (at least
    /// once) and [`ServeResult::time_us`] reports the **median** wall-clock
    /// duration. The default `1` adds no repeat work, so cache-counter
    /// expectations are unchanged unless a client opts into timing.
    pub time_reps: u32,
}

impl ServeRequest {
    /// A request with the default sequential sub-algorithm, seed, and no
    /// client tag.
    pub fn new(
        tree: Arc<TaskTree>,
        scheduler: impl Into<String>,
        platform: Platform,
    ) -> ServeRequest {
        ServeRequest {
            problem: OwnedRequest::new(tree, platform),
            scheduler: scheduler.into(),
            id: None,
            time_reps: 1,
        }
    }

    /// Returns the request with a timing repetition count (clamped to at
    /// least one run).
    pub fn with_time_reps(mut self, reps: u32) -> ServeRequest {
        self.time_reps = reps.max(1);
        self
    }

    /// Returns the request with a different sequential sub-algorithm.
    pub fn with_seq(mut self, seq: SeqAlgo) -> ServeRequest {
        self.problem = self.problem.with_seq(seq);
        self
    }

    /// Returns the request with a different randomization seed.
    pub fn with_seed(mut self, seed: u64) -> ServeRequest {
        self.problem = self.problem.with_seed(seed);
        self
    }

    /// Returns the request with a client tag.
    pub fn with_id(mut self, id: impl Into<String>) -> ServeRequest {
        self.id = Some(id.into());
        self
    }
}

/// A successful serve: the full scheduling [`Outcome`] plus the bounds the
/// stable JSON record reports alongside it.
#[derive(Clone, Debug)]
pub struct ServeOutcome {
    /// Schedule, validated evaluation, and diagnostics.
    pub outcome: Outcome,
    /// Makespan lower bound of the request's scenario (speed-aware on
    /// heterogeneous platforms; `max(W/p, CP)` on uniform ones).
    pub ms_lb: f64,
    /// Sequential memory reference (optimal postorder peak) of the tree.
    pub mem_ref: f64,
}

/// The result of one request, tagged with enough context to render the
/// response record without re-reading the request.
#[derive(Clone, Debug)]
pub struct ServeResult {
    /// Submission index (engine-global, monotonically increasing).
    /// [`ServeEngine::drain`] returns results sorted by it.
    pub index: u64,
    /// Client tag of the request, if any.
    pub id: Option<String>,
    /// Canonical scheduler name once resolved; the requested name verbatim
    /// when resolution failed.
    pub scheduler: String,
    /// The request's platform (processor classes + memory domains).
    pub platform: Platform,
    /// Number of tasks of the request's tree.
    pub tasks: usize,
    /// Median wall-clock duration of the scheduler call in microseconds,
    /// over [`ServeRequest::time_reps`] runs (`0` for failed requests).
    pub time_us: u64,
    /// The outcome, or the typed error the scheduler returned.
    pub outcome: Result<ServeOutcome, SchedError>,
}

/// Aggregate engine counters since construction.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests served (successes and typed failures).
    pub requests: u64,
    /// Same-tree batches dispatched to workers.
    pub batches: u64,
    /// Reference traversals the workers computed: requests that found
    /// their tree's memo empty and filled it.
    pub traversal_computes: u64,
    /// Reference traversals read from their tree's memo — each one is a
    /// full `O(n log n)` traversal (and its allocations) avoided.
    pub traversal_reuses: u64,
    /// Subtrees scheduled through a borrowed view — each one is a subtree
    /// `TaskTree` clone (and its allocations) avoided.
    pub subtree_views: u64,
    /// Requests synthesized as [`SchedError::WorkerLost`] records because
    /// their serving worker died first.
    pub worker_lost: u64,
    /// Batches delivered to a worker other than their fingerprint-preferred
    /// one because the preferred worker was dead.
    pub reroutes: u64,
    /// Requests each worker served, by worker index (one entry per worker;
    /// requests lost with a dead worker count in `worker_lost` instead).
    pub worker_requests: Vec<u64>,
    /// Microseconds each worker spent serving requests, by worker index:
    /// its time inside batches, not waiting for one.
    pub worker_busy_us: Vec<u64>,
}

impl ServeStats {
    /// Zeroed counters for an engine of `workers` workers.
    pub fn idle(workers: usize) -> ServeStats {
        ServeStats {
            worker_requests: vec![0; workers.max(1)],
            worker_busy_us: vec![0; workers.max(1)],
            ..ServeStats::default()
        }
    }

    /// The counters accumulated since the earlier reading `before` of the
    /// same engine.
    pub fn since(&self, before: &ServeStats) -> ServeStats {
        ServeStats {
            requests: self.requests - before.requests,
            batches: self.batches - before.batches,
            traversal_computes: self.traversal_computes - before.traversal_computes,
            traversal_reuses: self.traversal_reuses - before.traversal_reuses,
            subtree_views: self.subtree_views - before.subtree_views,
            worker_lost: self.worker_lost - before.worker_lost,
            reroutes: self.reroutes - before.reroutes,
            worker_requests: per_worker_since(&self.worker_requests, &before.worker_requests),
            worker_busy_us: per_worker_since(&self.worker_busy_us, &before.worker_busy_us),
        }
    }

    /// Every counter under its metrics-snapshot name, in field order:
    /// `engine_requests_total`, `engine_batches_total`,
    /// `traversal_computes_total`, `traversal_reuses_total`,
    /// `subtree_views_total`, `worker_lost_total`, `reroutes_total`, then
    /// `worker_{w}_requests_total` for each worker `w`, then
    /// `worker_{w}_busy_us_total` for each worker `w`. The serve daemon
    /// and batch `serve` both mirror these, so scrapes of either surface
    /// read identically.
    pub fn named_counters(&self) -> Vec<(String, u64)> {
        let totals = [
            ("engine_requests_total", self.requests),
            ("engine_batches_total", self.batches),
            ("traversal_computes_total", self.traversal_computes),
            ("traversal_reuses_total", self.traversal_reuses),
            ("subtree_views_total", self.subtree_views),
            ("worker_lost_total", self.worker_lost),
            ("reroutes_total", self.reroutes),
        ];
        let per_worker = |counts: &[u64], what: &str| {
            (counts.iter().enumerate())
                .map(|(w, &n)| (format!("worker_{w}_{what}_total"), n))
                .collect::<Vec<_>>()
        };
        totals
            .into_iter()
            .map(|(name, n)| (name.to_string(), n))
            .chain(per_worker(&self.worker_requests, "requests"))
            .chain(per_worker(&self.worker_busy_us, "busy_us"))
            .collect()
    }
}

/// Element-wise `now - then` of two per-worker counter readings.
fn per_worker_since(now: &[u64], then: &[u64]) -> Vec<u64> {
    now.iter().zip(then).map(|(now, then)| now - then).collect()
}

/// The worker that serves a tree of fingerprint `fp` among `workers`.
///
/// [`tree_fingerprint`] is odd by construction, so its low bits would
/// never pick an even worker; routing reads the high 32 bits instead.
fn route(fp: u64, workers: usize) -> usize {
    ((fp >> 32) % workers.max(1) as u64) as usize
}

#[derive(Default)]
struct Counters {
    requests: AtomicU64,
    batches: AtomicU64,
    traversal_computes: AtomicU64,
    traversal_reuses: AtomicU64,
    subtree_views: AtomicU64,
    worker_lost: AtomicU64,
    reroutes: AtomicU64,
    worker_requests: Vec<AtomicU64>,
    worker_busy_ns: Vec<AtomicU64>,
}

type Batch = Vec<(u64, ServeRequest)>;

/// The most workers a front-end may ask an engine for: `serve --workers`,
/// `campaign --workers` and the campaign spec key `workers` reject larger
/// counts as usage errors, before any thread is spawned. The engine spawns
/// one OS thread per worker, and a thread the OS refuses is a panic.
pub const MAX_WORKERS: usize = 256;

/// A long-lived serving engine over a [`SchedulerRegistry`].
///
/// [`ServeEngine::submit`] enqueues requests; [`ServeEngine::drain`] shards
/// the queued window across the worker threads (grouped by tree, routed by
/// tree fingerprint) and blocks until every result is back, returning them
/// in submission order. The engine survives any number of submit/drain
/// cycles. A tree's reference traversal is memoized in the tree itself, so
/// every request on the same tree allocation reuses it, whichever worker
/// serves it and in whichever drain.
pub struct ServeEngine {
    txs: Vec<Sender<Batch>>,
    results_rx: Receiver<ServeResult>,
    pending: Vec<ServeRequest>,
    next_index: u64,
    counters: Arc<Counters>,
    handles: Vec<JoinHandle<()>>,
}

impl ServeEngine {
    /// Spawns `workers` worker threads (at least one) over `registry`.
    pub fn new(registry: SchedulerRegistry, workers: usize) -> ServeEngine {
        ServeEngine::with_registry(Arc::new(registry), workers)
    }

    /// As [`ServeEngine::new`], over a shared registry — front-ends that
    /// resolve scheduler names themselves (the campaign runner) keep their
    /// own handle to the same registry the workers serve from.
    pub fn with_registry(registry: Arc<SchedulerRegistry>, workers: usize) -> ServeEngine {
        let workers = workers.max(1);
        let counters = Arc::new(Counters {
            worker_requests: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            worker_busy_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            ..Counters::default()
        });
        let (results_tx, results_rx) = channel();
        let mut txs = Vec::with_capacity(workers);
        let mut handles = Vec::with_capacity(workers);
        for w in 0..workers {
            let (tx, rx) = channel::<Batch>();
            let registry = Arc::clone(&registry);
            let results = results_tx.clone();
            let counters = Arc::clone(&counters);
            txs.push(tx);
            handles.push(std::thread::spawn(move || {
                worker_loop(w, &rx, &registry, &results, &counters)
            }));
        }
        ServeEngine {
            txs,
            results_rx,
            pending: Vec::new(),
            next_index: 0,
            counters,
            handles,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.txs.len()
    }

    /// Enqueues a request and returns its submission index. Nothing runs
    /// until [`ServeEngine::drain`].
    pub fn submit(&mut self, request: ServeRequest) -> u64 {
        let index = self.next_index;
        self.next_index += 1;
        self.pending.push(request);
        index
    }

    /// Number of requests queued for the next drain.
    pub fn queued(&self) -> usize {
        self.pending.len()
    }

    /// Dispatches every queued request and blocks until all results are
    /// back. Results are sorted by submission index, so for deterministic
    /// schedulers the returned stream does not depend on the worker count.
    ///
    /// Queued requests are grouped by the structural fingerprint of their
    /// tree — one batch per distinct tree, in first-appearance order — and
    /// each batch goes to the worker picked by the fingerprint's high bits,
    /// so same-tree traffic runs back to back on one worker.
    ///
    /// A dead worker (a user scheduler panicked — the built-in schedulers
    /// return typed errors instead) never hangs or fails the drain: batches
    /// routed to it are rerouted to the next live worker, and any batch
    /// that was in flight on it comes back as
    /// [`SchedError::WorkerLost`] records, one per lost request.
    pub fn drain(&mut self) -> Vec<ServeResult> {
        let mut results = Vec::with_capacity(self.pending.len());
        self.drain_with(|r| results.push(r));
        results.sort_by_key(|r| r.index);
        results
    }

    /// Streaming drain: dispatches every queued request and invokes `sink`
    /// once per result **as each completes**, in completion order — not
    /// submission order. [`ServeEngine::drain`] is exactly this plus a
    /// stable sort by [`ServeResult::index`], so a consumer that re-sorts
    /// the streamed results reproduces the batch output bit-for-bit.
    ///
    /// Every submitted request reaches the sink exactly once: a real
    /// result, or a typed [`SchedError::WorkerLost`] record when the
    /// serving worker died first (never both, even when a worker dies
    /// with its last result still queued on the channel).
    pub fn drain_with(&mut self, mut sink: impl FnMut(ServeResult)) {
        let first_index = self.next_index - self.pending.len() as u64;
        let mut batches: Vec<(u64, Batch)> = Vec::new();
        let mut slot_of: HashMap<u64, usize> = HashMap::new();
        for (offset, request) in self.pending.drain(..).enumerate() {
            let fp = tree_fingerprint(&request.problem.tree);
            let job = (first_index + offset as u64, request);
            match slot_of.get(&fp) {
                Some(&slot) => batches[slot].1.push(job),
                None => {
                    slot_of.insert(fp, batches.len());
                    batches.push((fp, vec![job]));
                }
            }
        }
        self.counters
            .batches
            .fetch_add(batches.len() as u64, Ordering::Relaxed);

        // every in-flight request, by index: the worker it went to plus the
        // context needed to synthesize a typed record if that worker dies
        let mut in_flight: HashMap<u64, (usize, LostContext)> = HashMap::new();
        let workers = self.txs.len();
        for (fp, batch) in batches {
            let preferred = route(fp, workers);
            // context is captured before sending: once sent, the requests
            // belong to the worker
            let contexts: Vec<(u64, LostContext)> = batch
                .iter()
                .map(|(index, request)| (*index, LostContext::of(request)))
                .collect();
            let mut batch = batch;
            let mut sent_to = None;
            // reroute to the next live worker when the preferred one died
            for k in 0..workers {
                let w = (preferred + k) % workers;
                if self.handles[w].is_finished() {
                    continue;
                }
                match self.txs[w].send(batch) {
                    Ok(()) => {
                        if w != preferred {
                            self.counters.reroutes.fetch_add(1, Ordering::Relaxed);
                        }
                        sent_to = Some(w);
                        break;
                    }
                    Err(back) => batch = back.0,
                }
            }
            match sent_to {
                Some(w) => {
                    for (index, ctx) in contexts {
                        in_flight.insert(index, (w, ctx));
                    }
                }
                None => {
                    // no live worker at all: the whole batch is lost
                    self.counters
                        .requests
                        .fetch_add(contexts.len() as u64, Ordering::Relaxed);
                    self.counters
                        .worker_lost
                        .fetch_add(contexts.len() as u64, Ordering::Relaxed);
                    for (index, ctx) in contexts {
                        sink(ctx.into_result(index, preferred));
                    }
                }
            }
        }
        while !in_flight.is_empty() {
            // recv() alone would block forever if one of several workers
            // died with results outstanding (the survivors keep the
            // channel open); poll worker liveness and convert a dead
            // worker's in-flight requests into typed records
            match self
                .results_rx
                .recv_timeout(std::time::Duration::from_millis(50))
            {
                Ok(r) => {
                    // only results still tracked pass through: a result
                    // already synthesized as WorkerLost (its worker died
                    // with the real result racing down the channel) must
                    // not reach the sink a second time
                    if in_flight.remove(&r.index).is_some() {
                        sink(r);
                    }
                }
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                    let lost: Vec<u64> = in_flight
                        .iter()
                        .filter(|(_, (w, _))| self.handles[*w].is_finished())
                        .map(|(&index, _)| index)
                        .collect();
                    self.counters
                        .requests
                        .fetch_add(lost.len() as u64, Ordering::Relaxed);
                    self.counters
                        .worker_lost
                        .fetch_add(lost.len() as u64, Ordering::Relaxed);
                    for index in lost {
                        let (worker, ctx) = in_flight.remove(&index).expect("just listed");
                        sink(ctx.into_result(index, worker));
                    }
                    // a disconnect means every worker is gone; the filter
                    // above drains in_flight as their handles finish
                }
            }
        }
    }

    /// Submits every request and drains, in one call.
    pub fn run(&mut self, requests: Vec<ServeRequest>) -> Vec<ServeResult> {
        for r in requests {
            self.submit(r);
        }
        self.drain()
    }

    /// Aggregate counters since construction (all workers, all drains).
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            requests: self.counters.requests.load(Ordering::Relaxed),
            batches: self.counters.batches.load(Ordering::Relaxed),
            traversal_computes: self.counters.traversal_computes.load(Ordering::Relaxed),
            traversal_reuses: self.counters.traversal_reuses.load(Ordering::Relaxed),
            subtree_views: self.counters.subtree_views.load(Ordering::Relaxed),
            worker_lost: self.counters.worker_lost.load(Ordering::Relaxed),
            reroutes: self.counters.reroutes.load(Ordering::Relaxed),
            worker_requests: self
                .counters
                .worker_requests
                .iter()
                .map(|n| n.load(Ordering::Relaxed))
                .collect(),
            worker_busy_us: self
                .counters
                .worker_busy_ns
                .iter()
                .map(|ns| ns.load(Ordering::Relaxed) / 1000)
                .collect(),
        }
    }
}

/// What [`ServeEngine::drain`] needs to synthesize a typed record for a
/// request whose worker died: the result envelope minus the outcome.
struct LostContext {
    id: Option<String>,
    scheduler: String,
    platform: Platform,
    tasks: usize,
}

impl LostContext {
    fn of(request: &ServeRequest) -> LostContext {
        LostContext {
            id: request.id.clone(),
            scheduler: request.scheduler.clone(),
            platform: request.problem.platform.clone(),
            tasks: request.problem.tree.len(),
        }
    }

    fn into_result(self, index: u64, worker: usize) -> ServeResult {
        ServeResult {
            index,
            id: self.id,
            scheduler: self.scheduler,
            platform: self.platform,
            tasks: self.tasks,
            time_us: 0,
            outcome: Err(SchedError::WorkerLost { worker }),
        }
    }
}

impl Drop for ServeEngine {
    fn drop(&mut self) {
        self.txs.clear(); // closing the channels stops the workers
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(
    worker: usize,
    rx: &Receiver<Batch>,
    registry: &SchedulerRegistry,
    results: &Sender<ServeResult>,
    counters: &Counters,
) {
    let mut scratch = Scratch::new();
    let mut seen = scratch.stats();
    while let Ok(batch) = rx.recv() {
        // one result message per request, pushed the moment it completes,
        // so a streaming drain observes results mid-batch; the counters
        // are flushed *before* each send, keeping `stats()` exact the
        // instant the final result of a drain is received
        for (index, request) in batch {
            let start = std::time::Instant::now();
            let result = serve_one(registry, &request, &mut scratch, index);
            let now = scratch.stats();
            counters.requests.fetch_add(1, Ordering::Relaxed);
            counters.worker_requests[worker].fetch_add(1, Ordering::Relaxed);
            counters.traversal_computes.fetch_add(
                now.traversal_computes - seen.traversal_computes,
                Ordering::Relaxed,
            );
            counters.traversal_reuses.fetch_add(
                now.traversal_reuses - seen.traversal_reuses,
                Ordering::Relaxed,
            );
            counters
                .subtree_views
                .fetch_add(now.subtree_views - seen.subtree_views, Ordering::Relaxed);
            seen = now;
            counters.worker_busy_ns[worker]
                .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
            if results.send(result).is_err() {
                return; // engine dropped mid-drain
            }
        }
    }
}

fn serve_one(
    registry: &SchedulerRegistry,
    request: &ServeRequest,
    scratch: &mut Scratch,
    index: u64,
) -> ServeResult {
    let req = request.problem.as_request();
    let tree = req.tree;
    let mut time_us = 0u64;
    let (scheduler, outcome) = match registry.get(&request.scheduler) {
        Ok(s) => {
            let start = std::time::Instant::now();
            let mut outcome = s.schedule(&req, scratch);
            let mut elapsed = start.elapsed().as_micros() as u64;
            if request.time_reps > 1 {
                // median-of-k: rerun on the now-warm scratch and keep the
                // middle sample, so one descheduling blip cannot fail a
                // timing gate
                let mut samples = Vec::with_capacity(request.time_reps as usize);
                samples.push(elapsed);
                for _ in 1..request.time_reps {
                    let start = std::time::Instant::now();
                    outcome = s.schedule(&req, scratch);
                    samples.push(start.elapsed().as_micros() as u64);
                }
                samples.sort_unstable();
                elapsed = samples[samples.len() / 2];
            }
            if outcome.is_ok() {
                time_us = elapsed;
            }
            (s.name().to_string(), outcome)
        }
        Err(e) => (request.scheduler.clone(), Err(e)),
    };
    let outcome = outcome.map(|outcome| ServeOutcome {
        ms_lb: makespan_lower_bound_on(tree, &req.platform),
        mem_ref: memory_reference(tree),
        outcome,
    });
    ServeResult {
        index,
        id: request.id.clone(),
        scheduler,
        platform: request.problem.platform.clone(),
        tasks: tree.len(),
        time_us,
        outcome,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trees() -> Vec<Arc<TaskTree>> {
        vec![
            Arc::new(TaskTree::fork(8, 1.0, 1.0, 0.0)),
            Arc::new(TaskTree::complete(2, 4, 1.0, 2.0, 0.5)),
            Arc::new(TaskTree::chain(12, 2.0, 1.0, 0.5)),
        ]
    }

    #[test]
    fn the_medium_corpus_keeps_every_worker_busy() {
        use treesched_gen::{assembly_corpus, Scale};
        let trees: Vec<Arc<TaskTree>> = assembly_corpus(Scale::Medium)
            .into_iter()
            .map(|e| Arc::new(e.tree))
            .collect();
        for workers in [2, 4, 8] {
            let mut routed = vec![0u64; workers];
            for t in &trees {
                routed[route(tree_fingerprint(t), workers)] += 1;
            }
            let ideal = trees.len() as f64 / workers as f64;
            let worst = *routed.iter().max().unwrap() as f64 / ideal;
            if workers <= 4 {
                assert!(worst <= 1.25, "{workers} workers: {routed:?}");
            }
            // one request per tree: every worker serves a batch, and the
            // per-worker counters are the routing table
            let mut engine = ServeEngine::new(SchedulerRegistry::standard(), workers);
            for t in &trees {
                engine.submit(ServeRequest::new(
                    Arc::clone(t),
                    "deepest",
                    Platform::new(2),
                ));
            }
            let start = std::time::Instant::now();
            assert_eq!(engine.drain().len(), trees.len());
            let wall_us = start.elapsed().as_micros() as u64;
            let stats = engine.stats();
            let served = stats.worker_requests;
            assert!(
                served.iter().all(|&n| n > 0),
                "{workers} workers: {served:?}"
            );
            assert_eq!(served, routed);
            // busy time is time inside the drain, spread over every worker
            let busy = stats.worker_busy_us;
            if workers == 2 {
                assert!(busy.iter().all(|&us| us > 0), "{busy:?}");
            }
            assert!(
                busy.iter().sum::<u64>() <= workers as u64 * wall_us,
                "{workers} workers: {busy:?} in {wall_us} us"
            );
        }
    }

    #[test]
    fn stats_name_every_counter_and_subtract_per_worker() {
        let mut engine = ServeEngine::new(SchedulerRegistry::standard(), 3);
        let before = engine.stats();
        assert_eq!(before, ServeStats::idle(3));
        engine.run(mixed_stream());
        let delta = engine.stats().since(&before);
        assert_eq!(delta.worker_requests.iter().sum::<u64>(), delta.requests);
        assert_eq!(delta.worker_busy_us.len(), 3);
        let names: Vec<String> = delta.named_counters().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names[0], "engine_requests_total");
        assert_eq!(names[6], "reroutes_total");
        assert_eq!(
            &names[7..],
            [
                "worker_0_requests_total",
                "worker_1_requests_total",
                "worker_2_requests_total",
                "worker_0_busy_us_total",
                "worker_1_busy_us_total",
                "worker_2_busy_us_total"
            ]
        );
    }

    fn mixed_stream() -> Vec<ServeRequest> {
        let trees = trees();
        let mut reqs = Vec::new();
        // interleave trees and schedulers the way real traffic would
        for round in 0..4u64 {
            for (t, tree) in trees.iter().enumerate() {
                for name in ["deepest", "inner", "subtrees", "fifo"] {
                    let p = 2 + ((round as u32 + t as u32) % 3);
                    reqs.push(
                        ServeRequest::new(Arc::clone(tree), name, Platform::new(p))
                            .with_id(format!("r{round}.{t}.{name}")),
                    );
                }
            }
        }
        reqs
    }

    fn fingerprint_of(results: &[ServeResult]) -> Vec<(u64, String, String, f64, f64)> {
        results
            .iter()
            .map(|r| {
                let out = r.outcome.as_ref().expect("stream is error-free");
                (
                    r.index,
                    r.id.clone().unwrap_or_default(),
                    r.scheduler.clone(),
                    out.outcome.eval.makespan,
                    out.outcome.eval.peak_memory,
                )
            })
            .collect()
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let mut engine = ServeEngine::new(SchedulerRegistry::standard(), 3);
        let results = engine.run(mixed_stream());
        assert_eq!(results.len(), 48);
        for (k, r) in results.iter().enumerate() {
            assert_eq!(r.index, k as u64);
        }
    }

    #[test]
    fn output_is_independent_of_worker_count() {
        let reference = {
            let mut engine = ServeEngine::new(SchedulerRegistry::standard(), 1);
            fingerprint_of(&engine.run(mixed_stream()))
        };
        for workers in [2, 4, 7] {
            let mut engine = ServeEngine::new(SchedulerRegistry::standard(), workers);
            let got = fingerprint_of(&engine.run(mixed_stream()));
            assert_eq!(got, reference, "workers = {workers}");
        }
    }

    #[test]
    fn same_tree_requests_form_one_batch_and_reuse_traversals() {
        let mut engine = ServeEngine::new(SchedulerRegistry::standard(), 2);
        let tree = Arc::new(TaskTree::fork(16, 1.0, 1.0, 0.0));
        for p in [1u32, 2, 3, 4, 5, 6] {
            engine.submit(ServeRequest::new(
                Arc::clone(&tree),
                "deepest",
                Platform::new(p),
            ));
        }
        let results = engine.drain();
        assert!(results.iter().all(|r| r.outcome.is_ok()));
        let stats = engine.stats();
        assert_eq!(stats.requests, 6);
        assert_eq!(stats.batches, 1, "one tree, one batch");
        assert_eq!(stats.traversal_computes, 1, "computed once per batch");
        assert_eq!(stats.traversal_reuses, 5);
    }

    #[test]
    fn sharding_keeps_tree_affinity_across_drains() {
        // same tree drained twice: the second drain reads the traversal
        // the first drain memoized in the tree
        let mut engine = ServeEngine::new(SchedulerRegistry::standard(), 4);
        let tree = Arc::new(TaskTree::complete(2, 5, 1.0, 1.0, 0.0));
        for _ in 0..2 {
            for p in [2u32, 4] {
                engine.submit(ServeRequest::new(
                    Arc::clone(&tree),
                    "inner",
                    Platform::new(p),
                ));
            }
            let results = engine.drain();
            assert!(results.iter().all(|r| r.outcome.is_ok()));
        }
        let stats = engine.stats();
        assert_eq!(stats.requests, 4);
        assert_eq!(stats.batches, 2, "one batch per drain");
        assert_eq!(
            stats.traversal_computes, 1,
            "second drain reuses the first drain's cache"
        );
    }

    #[test]
    fn equal_trees_in_different_arcs_share_a_batch() {
        let mut engine = ServeEngine::new(SchedulerRegistry::standard(), 2);
        let a = Arc::new(TaskTree::fork(8, 1.0, 1.0, 0.0));
        let b = Arc::new(TaskTree::fork(8, 1.0, 1.0, 0.0));
        engine.submit(ServeRequest::new(a, "deepest", Platform::new(2)));
        engine.submit(ServeRequest::new(b, "deepest", Platform::new(4)));
        engine.drain();
        assert_eq!(engine.stats().batches, 1, "structural identity batches");
        // the memo belongs to a tree in memory, so each allocation computes
        assert_eq!(engine.stats().traversal_computes, 2);
    }

    #[test]
    fn errors_are_data_not_panics() {
        let mut engine = ServeEngine::new(SchedulerRegistry::standard(), 2);
        let tree = Arc::new(TaskTree::fork(4, 1.0, 1.0, 0.0));
        engine.submit(ServeRequest::new(
            Arc::clone(&tree),
            "nosuch",
            Platform::new(2),
        ));
        engine.submit(ServeRequest::new(
            Arc::clone(&tree),
            "membound", // needs a cap it does not get
            Platform::new(2),
        ));
        engine.submit(ServeRequest::new(tree, "deepest", Platform::new(0)));
        let results = engine.drain();
        assert!(matches!(
            results[0].outcome,
            Err(SchedError::UnknownScheduler { .. })
        ));
        assert_eq!(results[0].scheduler, "nosuch", "requested name echoed");
        assert!(matches!(
            results[1].outcome,
            Err(SchedError::MissingMemoryCap { .. })
        ));
        assert!(matches!(results[2].outcome, Err(SchedError::NoProcessors)));
    }

    #[test]
    fn result_bounds_match_the_one_shot_path() {
        let tree = Arc::new(TaskTree::complete(3, 3, 1.0, 2.0, 0.5));
        let mut engine = ServeEngine::new(SchedulerRegistry::standard(), 1);
        engine.submit(
            ServeRequest::new(Arc::clone(&tree), "subtrees", Platform::new(4)).with_seq(
                SeqAlgo::LiuExact, // off-default: mem_ref still the reference
            ),
        );
        engine.submit(ServeRequest::new(
            Arc::clone(&tree),
            "subtrees",
            Platform::new(4),
        ));
        let results = engine.drain();
        for r in &results {
            let out = r.outcome.as_ref().unwrap();
            assert_eq!(out.ms_lb, treesched_core::makespan_lower_bound(&tree, 4));
            assert_eq!(out.mem_ref, memory_reference(&tree));
            assert!(out.outcome.eval.makespan >= out.ms_lb);
        }
    }

    /// A scheduler that panics when the tree has exactly `trigger` tasks
    /// and otherwise delegates to `deepest` — for killing workers on cue.
    struct Panicky {
        trigger: usize,
    }
    impl treesched_core::Scheduler for Panicky {
        fn name(&self) -> &'static str {
            "Panicky"
        }
        fn schedule(
            &self,
            req: &treesched_core::Request<'_>,
            s: &mut Scratch,
        ) -> Result<Outcome, SchedError> {
            if req.tree.len() == self.trigger {
                panic!("scheduler bug")
            }
            SchedulerRegistry::standard()
                .get("deepest")
                .expect("built-in")
                .schedule(req, s)
        }
    }

    fn panicky_registry(trigger: usize) -> SchedulerRegistry {
        let mut registry = SchedulerRegistry::standard();
        registry
            .register(Box::new(Panicky { trigger }), &[], false)
            .unwrap();
        registry
    }

    #[test]
    fn a_panicking_scheduler_becomes_a_typed_record_not_a_hang() {
        // the built-in schedulers never panic, but the registry is open to
        // user schedulers; a dead worker among live ones must surface as a
        // WorkerLost record for the lost batch, not a deadlock on the
        // results channel and not a drain-wide panic
        let mut engine = ServeEngine::new(panicky_registry(5), 4);
        let bad = Arc::new(TaskTree::fork(4, 1.0, 1.0, 0.0)); // 5 tasks: boom
                                                              // pick a good tree routed to a different worker than the doomed
                                                              // one, so its batch cannot be queued behind the panic
        let good = [
            TaskTree::fork(7, 1.0, 1.0, 0.0),
            TaskTree::fork(8, 1.0, 1.0, 0.0),
            TaskTree::chain(9, 1.0, 1.0, 0.0),
        ]
        .into_iter()
        .map(Arc::new)
        .find(|t| route(tree_fingerprint(t), 4) != route(tree_fingerprint(&bad), 4))
        .expect("some tree routes elsewhere");
        engine.submit(ServeRequest::new(bad, "Panicky", Platform::new(2)).with_id("doomed"));
        engine.submit(ServeRequest::new(
            Arc::clone(&good),
            "deepest",
            Platform::new(2),
        ));
        let results = engine.drain();
        assert_eq!(results.len(), 2);
        assert!(matches!(
            results[0].outcome,
            Err(SchedError::WorkerLost { .. })
        ));
        assert_eq!(results[0].id.as_deref(), Some("doomed"));
        assert_eq!(results[0].scheduler, "Panicky");
        assert_eq!(results[0].tasks, 5);
        assert!(results[1].outcome.is_ok(), "the rest of the stream serves");
        assert_eq!(engine.stats().requests, 2);
    }

    #[test]
    fn batches_reroute_around_a_dead_worker_on_later_drains() {
        // first drain kills one worker; later drains must keep serving
        // every tree — including trees whose fingerprint routes to the dead
        // worker — by rerouting to a live one
        let mut engine = ServeEngine::new(panicky_registry(5), 2);
        let bad = Arc::new(TaskTree::fork(4, 1.0, 1.0, 0.0));
        engine.submit(ServeRequest::new(bad, "Panicky", Platform::new(2)));
        let first = engine.drain();
        assert!(matches!(
            first[0].outcome,
            Err(SchedError::WorkerLost { .. })
        ));
        // both these trees can only route to worker 0 or 1; one of those is
        // dead now, so at least one batch exercises the reroute path
        let trees = [
            Arc::new(TaskTree::fork(7, 1.0, 1.0, 0.0)),
            Arc::new(TaskTree::chain(9, 1.0, 1.0, 0.0)),
        ];
        for round in 0..2 {
            for tree in &trees {
                engine.submit(
                    ServeRequest::new(Arc::clone(tree), "deepest", Platform::new(2))
                        .with_id(format!("r{round}")),
                );
            }
            let results = engine.drain();
            assert_eq!(results.len(), 2);
            for r in &results {
                assert!(r.outcome.is_ok(), "round {round}: {:?}", r.outcome);
            }
        }
    }

    #[test]
    fn all_workers_dead_fails_every_request_as_data() {
        let mut engine = ServeEngine::new(panicky_registry(5), 1);
        let bad = Arc::new(TaskTree::fork(4, 1.0, 1.0, 0.0));
        engine.submit(ServeRequest::new(bad, "Panicky", Platform::new(2)));
        let first = engine.drain();
        assert!(matches!(
            first[0].outcome,
            Err(SchedError::WorkerLost { worker: 0 })
        ));
        // the only worker is gone: requests still come back, as data
        let tree = Arc::new(TaskTree::fork(7, 1.0, 1.0, 0.0));
        engine.submit(ServeRequest::new(tree, "deepest", Platform::new(2)));
        let second = engine.drain();
        assert_eq!(second.len(), 1);
        assert!(matches!(
            second[0].outcome,
            Err(SchedError::WorkerLost { .. })
        ));
    }

    #[test]
    fn streaming_drain_resorted_matches_batch_drain() {
        let reference: Vec<String> = {
            let mut engine = ServeEngine::new(SchedulerRegistry::standard(), 3);
            engine
                .run(mixed_stream())
                .iter()
                .map(crate::jsonl::result_json)
                .collect()
        };
        let mut engine = ServeEngine::new(SchedulerRegistry::standard(), 3);
        for r in mixed_stream() {
            engine.submit(r);
        }
        let mut streamed: Vec<ServeResult> = Vec::new();
        engine.drain_with(|r| streamed.push(r));
        streamed.sort_by_key(|r| r.index);
        let got: Vec<String> = streamed.iter().map(crate::jsonl::result_json).collect();
        assert_eq!(got, reference);
    }

    /// Kill a worker mid-stream: the streaming drain still delivers every
    /// submitted index exactly once — the doomed request as a typed
    /// `WorkerLost` record, everything else as a real result.
    #[test]
    fn streaming_drain_delivers_every_index_exactly_once_past_a_dead_worker() {
        let mut engine = ServeEngine::new(panicky_registry(5), 3);
        let bad = Arc::new(TaskTree::fork(4, 1.0, 1.0, 0.0)); // 5 tasks: boom
        let good = trees();
        let mut submitted = Vec::new();
        for round in 0..3u64 {
            for (t, tree) in good.iter().enumerate() {
                submitted.push(
                    engine.submit(
                        ServeRequest::new(Arc::clone(tree), "deepest", Platform::new(2))
                            .with_id(format!("ok{round}.{t}")),
                    ),
                );
            }
            if round == 1 {
                submitted.push(
                    engine.submit(
                        ServeRequest::new(Arc::clone(&bad), "Panicky", Platform::new(2))
                            .with_id("doomed"),
                    ),
                );
            }
        }
        let mut counts: HashMap<u64, usize> = HashMap::new();
        let mut lost = 0usize;
        engine.drain_with(|r| {
            *counts.entry(r.index).or_default() += 1;
            if matches!(r.outcome, Err(SchedError::WorkerLost { .. })) {
                lost += 1;
                assert_eq!(r.id.as_deref(), Some("doomed"));
            } else {
                assert!(r.outcome.is_ok(), "{:?}", r.outcome);
            }
        });
        assert_eq!(counts.len(), submitted.len(), "every index delivered");
        for index in &submitted {
            assert_eq!(counts.get(index), Some(&1), "index {index} exactly once");
        }
        assert_eq!(lost, 1, "exactly the doomed request is lost");
    }

    #[test]
    fn time_us_is_measured_and_repetitions_keep_results_stable() {
        let mut engine = ServeEngine::new(SchedulerRegistry::standard(), 1);
        let tree = Arc::new(TaskTree::complete(2, 6, 1.0, 2.0, 0.5));
        engine.submit(ServeRequest::new(
            Arc::clone(&tree),
            "deepest",
            Platform::new(4),
        ));
        engine.submit(
            ServeRequest::new(Arc::clone(&tree), "deepest", Platform::new(4)).with_time_reps(5),
        );
        let results = engine.drain();
        let once = results[0].outcome.as_ref().unwrap();
        let timed = results[1].outcome.as_ref().unwrap();
        assert_eq!(
            once.outcome.eval.makespan, timed.outcome.eval.makespan,
            "timing repetitions must not change the schedule"
        );
        // failed requests report no duration
        let mut engine = ServeEngine::new(SchedulerRegistry::standard(), 1);
        let tree = Arc::new(TaskTree::fork(4, 1.0, 1.0, 0.0));
        engine.submit(ServeRequest::new(tree, "nosuch", Platform::new(2)).with_time_reps(3));
        let results = engine.drain();
        assert!(results[0].outcome.is_err());
        assert_eq!(results[0].time_us, 0);
    }

    #[test]
    fn heterogeneous_platforms_stream_through_the_engine() {
        use treesched_core::ProcClass;
        let tree = Arc::new(TaskTree::complete(2, 5, 1.0, 2.0, 0.5));
        let het = Platform::heterogeneous(vec![ProcClass::new(2, 2.0), ProcClass::new(2, 1.0)])
            .with_domain(1e9, &[0])
            .with_domain(1e9, &[1]);
        let stream = |platform: &Platform| -> Vec<ServeRequest> {
            ["deepest", "inner", "fifo", "subtrees"]
                .iter()
                .map(|name| ServeRequest::new(Arc::clone(&tree), *name, platform.clone()))
                .collect()
        };
        let run = |workers: usize| {
            let mut engine = ServeEngine::new(SchedulerRegistry::standard(), workers);
            engine.run(stream(&het))
        };
        let results = run(1);
        for r in &results {
            let out = r.outcome.as_ref().expect("every scheduler serves het");
            assert_eq!(out.ms_lb, makespan_lower_bound_on(&tree, &het));
            assert_eq!(out.outcome.domain_peaks.len(), 2);
            assert_eq!(r.platform, het);
        }
        // comm-bearing platforms stream too: list schedulers serve them,
        // subtree placement refuses as data, not a panic
        let comm = het.clone().with_comm(vec![0.0, 2.0, 2.0, 0.0]);
        let mut engine = ServeEngine::new(SchedulerRegistry::standard(), 1);
        let comm_results = engine.run(stream(&comm));
        for r in &comm_results[..3] {
            let out = r.outcome.as_ref().expect("list schedulers serve comm");
            assert_eq!(out.ms_lb, makespan_lower_bound_on(&tree, &comm));
        }
        assert!(matches!(
            comm_results[3].outcome,
            Err(SchedError::UnsupportedPlatform { .. })
        ));
        // worker-count independence holds for heterogeneous streams too
        let again: Vec<String> = run(4).iter().map(crate::jsonl::result_json).collect();
        let reference: Vec<String> = results.iter().map(crate::jsonl::result_json).collect();
        assert_eq!(again, reference);
    }

    #[test]
    fn zero_workers_clamps_to_one() {
        let mut engine = ServeEngine::new(SchedulerRegistry::standard(), 0);
        assert_eq!(engine.workers(), 1);
        assert!(engine.drain().is_empty(), "empty drain is fine");
        let tree = Arc::new(TaskTree::chain(3, 1.0, 1.0, 0.0));
        engine.submit(ServeRequest::new(tree, "fifo", Platform::new(1)));
        assert_eq!(engine.queued(), 1);
        assert_eq!(engine.drain().len(), 1);
        assert_eq!(engine.queued(), 0);
    }
}
