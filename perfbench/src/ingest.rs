//! `ingest`: a single-threaded closed loop of file-backed requests, each
//! `treesched_trees::load` of a file, then `schedule_once` at p = 4, then
//! the response record.

use crate::check;
use crate::host;
use crate::inputs::{self, IngestItem, ItemKind, HEURISTICS};
use crate::stats::{median, ratio};
use crate::Measured;
use std::path::Path;
use std::time::Instant;
use treesched_core::{
    makespan_lower_bound_on, memory_reference, tree_fingerprint, Outcome, Platform, Request,
    SchedError, SchedulerRegistry,
};
use treesched_model::TaskTree;
use treesched_serve::{result_json, ServeOutcome, ServeResult};

/// Processors of every `ingest` request.
pub const PROCESSORS: u32 = 4;

pub struct Inputs {
    pub items: Vec<IngestItem>,
    pub rounds: Vec<Vec<(usize, usize)>>,
}

pub fn setup(dir: &Path, seed: u64) -> std::io::Result<Inputs> {
    let items = inputs::write_ingest_items(dir)?;
    let rounds = inputs::ingest_order(items.len(), seed);
    Ok(Inputs { items, rounds })
}

/// Times spent in the two halves of the traced requests.
#[derive(Default)]
pub struct IngestTrace {
    pub load_s: f64,
    pub total_s: f64,
    pub bytes: f64,
}

/// Serves one request: load, schedule on a fresh scratch, render.
pub fn serve(
    registry: &SchedulerRegistry,
    item: &IngestItem,
    heuristic: usize,
    load_s: Option<&mut f64>,
) -> Result<String, String> {
    let t = Instant::now();
    let (tree, _) = treesched_trees::load(&item.path, item.opts).map_err(|e| e.to_string())?;
    if let Some(load_s) = load_s {
        *load_s += t.elapsed().as_secs_f64();
    }
    Ok(render(registry, &tree, heuristic))
}

/// Schedules `tree` with one of the four heuristics at p = 4 on a fresh
/// scratch and renders the serve protocol's response record.
pub fn render(registry: &SchedulerRegistry, tree: &TaskTree, heuristic: usize) -> String {
    let (name, _) = HEURISTICS[heuristic];
    let platform = Platform::new(PROCESSORS);
    let scheduler = registry
        .get(name)
        .expect("the standard registry has the heuristics");
    let outcome = scheduler.schedule_once(&Request::new(tree, platform.clone()));
    result_json(&serve_result(
        0,
        None,
        scheduler.name(),
        tree,
        platform,
        outcome,
    ))
}

/// The serve protocol's result of one scheduler call on `tree`, with the
/// makespan lower bound and memory reference its record reports.
pub fn serve_result(
    index: u64,
    id: Option<String>,
    scheduler: &str,
    tree: &TaskTree,
    platform: Platform,
    outcome: Result<Outcome, SchedError>,
) -> ServeResult {
    let outcome = outcome.map(|outcome| ServeOutcome {
        ms_lb: makespan_lower_bound_on(tree, &platform),
        mem_ref: outcome
            .diagnostics
            .seq_peak
            .unwrap_or_else(|| memory_reference(tree)),
        outcome,
    });
    ServeResult {
        index,
        id,
        scheduler: scheduler.to_string(),
        platform,
        tasks: tree.len(),
        time_us: 0,
        outcome,
    }
}

/// Serves the rounds in turn for `seconds`, and at least once each; each
/// round is one unit of the median rate. Every repeated round must repeat
/// that round's first records; the first pass over all rounds (every item
/// × every heuristic) gives the answers and the output.
pub fn measure(inp: &Inputs, seconds: f64, traced: bool) -> (Measured, IngestTrace) {
    let registry = SchedulerRegistry::standard();
    let mut m = Measured::default();
    let mut trace = IngestTrace::default();
    let mut first: Vec<Vec<String>> = Vec::new();
    let start = Instant::now();
    let mut done = 0;
    while done < inp.rounds.len() || start.elapsed().as_secs_f64() < seconds {
        let round = &inp.rounds[done % inp.rounds.len()];
        let (t, round_cpu) = (Instant::now(), host::cpu_secs());
        let mut load_s = 0.0;
        let records: Vec<String> = round
            .iter()
            .map(|&(i, h)| {
                let load = traced.then_some(&mut load_s);
                trace.bytes += inp.items[i].bytes as f64;
                serve(&registry, &inp.items[i], h, load).unwrap_or_else(|e| e + "\n")
            })
            .collect();
        trace.load_s += load_s;
        trace.total_s += t.elapsed().as_secs_f64();
        m.unit(records.len() as u64, t, round_cpu);
        match first.get(done % inp.rounds.len()) {
            Some(f) if *f == records => {}
            Some(_) => {
                m.failed += records.len() as u64;
                m.problems
                    .push("a repeated ingest round differs from its first pass".into());
            }
            None => first.push(records),
        }
        done += 1;
    }
    m.wall_s = start.elapsed().as_secs_f64();
    m.peak_rss_mb = host::peak_rss_mb();
    m.rps = median(&m.unit_rps);
    for (r, records) in first.iter().enumerate() {
        let (answers, bad) = check::answers(records.iter().map(String::as_str));
        // an invalid record failed every time its round ran
        let runs = (done - r).div_ceil(inp.rounds.len());
        m.failed += (bad.len() * runs) as u64;
        m.problems.extend(bad.into_iter().take(5));
        m.answers.extend(answers);
        m.output.extend(records.iter().map(String::as_str));
    }
    (m, trace)
}

/// The gate: every Newick export must round-trip to its source tree's
/// fingerprint. (Every record was checked against its lower bound while
/// measuring.)
pub fn verify(inp: &Inputs) -> Vec<String> {
    inp.items
        .iter()
        .filter(|item| item.kind == ItemKind::Newick)
        .filter_map(|item| {
            let source = item
                .source_fingerprint
                .expect("Newick items keep their source's fingerprint");
            let back = std::fs::read_to_string(&item.path)
                .map_err(|e| e.to_string())
                .and_then(|text| treesched_trees::from_newick(&text).map_err(|e| e.to_string()));
            match back {
                Ok(back) if tree_fingerprint(&back) == source => None,
                _ => Some(format!("{} does not round-trip", item.path)),
            }
        })
        .collect()
}

/// `trees.ingest_share` and `trees.mb_per_s` of the traced phase.
pub fn shares(trace: &IngestTrace) -> (f64, f64) {
    (
        ratio(trace.load_s, trace.total_s),
        ratio(trace.bytes / 1e6, trace.load_s),
    )
}
