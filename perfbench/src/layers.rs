//! The traced run's per-layer replays: each workload's inputs passed
//! through each layer's public calls, timed from here. A layer a workload
//! does not exercise reads 0.

use crate::ingest::serve_result;
use crate::inputs::{IngestItem, ItemKind, HEURISTICS, MEMBOUND};
use crate::stats::{percentile, ratio};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use treesched_core::{try_evaluate_on, SchedulerRegistry, Scratch};
use treesched_model::TaskTree;
use treesched_serve::{result_json, RequestRecord, ServeRequest};
use treesched_transport::RequestParser;

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("engine.busy_imbalance", "ratio"),
    ("engine.worker_busy_share", "ratio"),
    ("engine.requests_per_batch", "count"),
    ("engine.traversal_hit_ratio", "ratio"),
    ("engine.subtree_clones", "count"),
    ("engine.worker_lost", "count"),
    ("seq.traversal_us", "us"),
    ("core.schedule_us.subtrees", "us"),
    ("core.schedule_us.optim", "us"),
    ("core.schedule_us.inner", "us"),
    ("core.schedule_us.deepest", "us"),
    ("core.schedule_us.membound", "us"),
    ("core.evaluate_us", "us"),
    ("core.validate_us", "us"),
    ("core.peak_us", "us"),
    ("core.evaluate_share", "ratio"),
    ("jsonl.parse_us", "us"),
    ("jsonl.render_us", "us"),
    ("transport.build_us", "us"),
    ("transport.tree_cache_hit_ratio", "ratio"),
    ("transport.handoff_ms_p50", "ms"),
    ("model.from_text_us", "us"),
    ("trees.read_ms", "ms"),
    ("trees.parse_pattern_ms", "ms"),
    ("trees.newick_ms", "ms"),
    ("sparse.ordering_ms.amd", "ms"),
    ("sparse.ordering_ms.rcm", "ms"),
    ("trees.mm_rest_ms", "ms"),
    ("trees.ingest_share", "ratio"),
    ("trees.mb_per_s", "MB/s"),
    ("stream.latency_p50_ms", "ms"),
    ("stream.latency_p90_ms", "ms"),
    ("stream.latency_p99_ms", "ms"),
    ("gen.lateness_ms_p99", "ms"),
    ("host.spin_ms", "ms"),
    ("host.steal_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    // counts behind the stream and generator percentiles above
    ("stream.latency_samples", "count"),
    ("gen.lateness_samples", "count"),
];

/// Most requests any one replay passes through the core layers.
pub const MAX_REPLAY: usize = 1152;

/// Per-layer values by metric name; every name starts at 0.
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Layers {
        Layers(PER_LAYER.iter().map(|&(name, _)| (name, 0.0)).collect())
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let slot = self.0.get_mut(name).expect("a declared per-layer metric");
        *slot = value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0[name]
    }
}

fn elapsed_us(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

fn mean(xs: &[f64]) -> f64 {
    ratio(xs.iter().sum(), xs.len() as f64)
}

/// `trees.read_ms` and `model.from_text_us` over v1 tree files.
pub fn tree_files(layers: &mut Layers, paths: &[String]) {
    let (mut read, mut parse) = (Vec::new(), Vec::new());
    for path in paths {
        let t = Instant::now();
        let text = std::fs::read_to_string(path).expect("setup wrote the tree files");
        read.push(elapsed_us(t) / 1e3);
        let t = Instant::now();
        treesched_model::io::from_text(&text).expect("setup wrote valid trees");
        parse.push(elapsed_us(t));
    }
    layers.set("trees.read_ms", mean(&read));
    layers.set("model.from_text_us", mean(&parse));
}

/// `jsonl.parse_us`, `transport.build_us` and
/// `transport.tree_cache_hit_ratio` over request lines, built by a parser
/// first warmed with `warm` (the daemon's state) or cold (a batch call's).
/// Returns the requests and each line's build time in microseconds.
pub fn request_lines(
    layers: &mut Layers,
    lines: &[String],
    warm: Option<&str>,
) -> (Vec<ServeRequest>, Vec<f64>) {
    let parse: Vec<f64> = lines
        .iter()
        .map(|line| {
            let t = Instant::now();
            RequestRecord::parse(line).expect("generated lines parse");
            elapsed_us(t)
        })
        .collect();
    let mut parser = RequestParser::new(None);
    for (k, line) in warm.unwrap_or("").lines().enumerate() {
        parser.build(k + 1, line).expect("warm-up lines build");
    }
    let cached = parser.cached_trees();
    let mut build = Vec::with_capacity(lines.len());
    let requests = lines
        .iter()
        .enumerate()
        .map(|(k, line)| {
            let t = Instant::now();
            let request = parser.build(k + 1, line).expect("generated lines build");
            build.push(elapsed_us(t));
            request
        })
        .collect();
    let loads = (parser.cached_trees() - cached) as f64;
    layers.set("jsonl.parse_us", mean(&parse));
    layers.set("transport.build_us", mean(&build));
    layers.set(
        "transport.tree_cache_hit_ratio",
        1.0 - ratio(loads, lines.len() as f64),
    );
    (requests, build)
}

/// The `seq`, `core` and render layers over at most [`MAX_REPLAY`]
/// requests, in order, on one scratch. Each request is scheduled twice:
/// the first call sees the scratch as the previous request left it (as
/// a one-worker engine would); the second, on the now-warm scratch, is
/// the `core.schedule_us` sample. Returns each request's first-call
/// schedule plus render time in microseconds.
pub fn core(layers: &mut Layers, requests: &[ServeRequest]) -> Vec<f64> {
    let registry = SchedulerRegistry::standard();
    let mut scratch = Scratch::new();
    let mut traversal = Vec::new();
    let mut schedule: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let (mut evaluate, mut validate, mut peak, mut render) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut standalone = Vec::new();
    for (k, request) in requests.iter().take(MAX_REPLAY).enumerate() {
        let req = request.problem.as_request();
        let tree = req.tree;
        let t = Instant::now();
        std::hint::black_box(treesched_seq::best_postorder(tree));
        traversal.push(elapsed_us(t));

        let scheduler = registry.get(&request.scheduler).expect("known scheduler");
        let t = Instant::now();
        scheduler
            .schedule(&req, &mut scratch)
            .expect("workload requests schedule");
        let first = elapsed_us(t);
        let t = Instant::now();
        let outcome = scheduler
            .schedule(&req, &mut scratch)
            .expect("workload requests schedule");
        let warm = elapsed_us(t);
        let tag = HEURISTICS
            .iter()
            .chain([&MEMBOUND])
            .find(|(name, _)| *name == scheduler.name())
            .map_or("other", |&(_, tag)| tag);
        schedule.entry(tag).or_default().push(warm);

        let t = Instant::now();
        try_evaluate_on(tree, &outcome.schedule, &req.platform).expect("valid schedule");
        evaluate.push(elapsed_us(t));
        let t = Instant::now();
        outcome
            .schedule
            .validate_on(tree, &req.platform)
            .expect("valid schedule");
        validate.push(elapsed_us(t));
        let t = Instant::now();
        std::hint::black_box(outcome.schedule.peak_memory(tree));
        peak.push(elapsed_us(t));

        let result = serve_result(
            k as u64,
            request.id.clone(),
            scheduler.name(),
            tree,
            req.platform.clone(),
            Ok(outcome),
        );
        let t = Instant::now();
        std::hint::black_box(result_json(&result));
        let rendered = elapsed_us(t);
        render.push(rendered);
        standalone.push(first + rendered);
    }
    layers.set("seq.traversal_us", mean(&traversal));
    for (_, tag) in HEURISTICS.iter().chain([&MEMBOUND]) {
        let samples = schedule.get(tag).map_or(&[][..], Vec::as_slice);
        layers.set(&format!("core.schedule_us.{tag}"), mean(samples));
    }
    let all_schedule: f64 = schedule.values().flatten().sum();
    layers.set("core.evaluate_us", mean(&evaluate));
    layers.set("core.validate_us", mean(&validate));
    layers.set("core.peak_us", mean(&peak));
    layers.set(
        "core.evaluate_share",
        ratio(evaluate.iter().sum(), all_schedule),
    );
    layers.set("jsonl.render_us", mean(&render));
    standalone
}

/// `transport.handoff_ms_p50`: the median, over replayed requests, of the
/// measured latency minus the request's standalone build + schedule +
/// render time.
pub fn handoff(layers: &mut Layers, latency_ms: &[f64], build_us: &[f64], standalone_us: &[f64]) {
    let handoff: Vec<f64> = standalone_us
        .iter()
        .zip(build_us)
        .zip(latency_ms)
        .filter(|(_, l)| !l.is_nan())
        .map(|((s, b), l)| l - (s + b) / 1e3)
        .collect();
    layers.set(
        "transport.handoff_ms_p50",
        percentile(&handoff, 50.0).map_or(0.0, |p| p.value),
    );
}

/// The `trees` and `sparse` layers over every ingest file, once each.
/// Returns each item's tree.
pub fn ingest_files(layers: &mut Layers, items: &[IngestItem]) -> Vec<Arc<TaskTree>> {
    let ms = |t: Instant| elapsed_us(t) / 1e3;
    let (mut read, mut pattern, mut newick, mut amd, mut rcm, mut rest) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    let trees = items
        .iter()
        .map(|item| {
            let t = Instant::now();
            let text = std::fs::read_to_string(&item.path).expect("setup wrote the files");
            read.push(ms(t));
            let tree = match item.kind {
                ItemKind::Newick => {
                    let t = Instant::now();
                    let tree = treesched_trees::from_newick(&text).expect("valid export");
                    newick.push(ms(t));
                    tree
                }
                ItemKind::Amd | ItemKind::Rcm => {
                    let t = Instant::now();
                    let p = treesched_trees::parse_pattern(&text).expect("valid matrix");
                    let parse_ms = ms(t);
                    let t = Instant::now();
                    let order = if item.kind == ItemKind::Amd {
                        treesched_sparse::ordering::min_degree(&p)
                    } else {
                        treesched_sparse::ordering::reverse_cuthill_mckee(&p)
                    };
                    std::hint::black_box(order);
                    let order_ms = ms(t);
                    let t = Instant::now();
                    let tree = treesched_trees::from_matrix_market(&text, item.opts)
                        .expect("connected matrix");
                    rest.push(ms(t) - parse_ms - order_ms);
                    pattern.push(parse_ms);
                    match item.kind {
                        ItemKind::Amd => amd.push(order_ms),
                        _ => rcm.push(order_ms),
                    }
                    tree
                }
            };
            Arc::new(tree)
        })
        .collect();
    layers.set("trees.read_ms", mean(&read));
    layers.set("trees.parse_pattern_ms", mean(&pattern));
    layers.set("trees.newick_ms", mean(&newick));
    layers.set("sparse.ordering_ms.amd", mean(&amd));
    layers.set("sparse.ordering_ms.rcm", mean(&rcm));
    layers.set("trees.mm_rest_ms", mean(&rest));
    trees
}
