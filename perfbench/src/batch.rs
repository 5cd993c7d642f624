//! `batch`: one-shot JSONL serving through `treesched_cli::serve_jsonl` at
//! two workers, repeated over the same input for a measured sub-phase.

use crate::check;
use crate::host::{self, ThreadSampler};
use crate::inputs;
use crate::stats::{median, ratio};
use crate::{EngineTrace, Measured};
use std::path::Path;
use std::time::{Duration, Instant};
use treesched_cli::{serve_jsonl, serve_jsonl_with_metrics};
use treesched_serve::jsonl::{parse_object, Value};

/// Engine workers of the measured runs.
pub const WORKERS: usize = 2;

pub struct Inputs {
    pub paths: Vec<String>,
    pub lines: Vec<String>,
    pub input: String,
}

pub fn setup(dir: &Path, seed: u64) -> std::io::Result<Inputs> {
    let paths: Vec<String> = inputs::write_v1_corpus(dir)?
        .into_iter()
        .map(|(path, _)| path)
        .collect();
    let lines = inputs::batch_lines(&paths, seed);
    let input = lines.iter().map(|l| format!("{l}\n")).collect();
    Ok(Inputs {
        paths,
        lines,
        input,
    })
}

/// Serves the whole input again and again for `seconds`, and at least
/// once; each call is one unit of the median rate. Every call must repeat
/// the first call's output byte for byte. With `traced`, each call also
/// reports the engine counters and the CPU time of its worker threads.
pub fn measure(inp: &Inputs, seconds: f64, traced: bool) -> (Measured, EngineTrace) {
    let n = inp.lines.len() as u64;
    let mut m = Measured::default();
    let mut first: Option<String> = None;
    let mut first_failed = 0u64;
    let (mut imbalance, mut share) = (Vec::new(), Vec::new());
    let mut trace = EngineTrace::default();
    let start = Instant::now();
    while m.attempted == 0 || start.elapsed().as_secs_f64() < seconds {
        let (call_start, call_cpu) = (Instant::now(), host::cpu_secs());
        let out = if traced {
            let sampler = ThreadSampler::start(Duration::from_millis(2));
            let t = Instant::now();
            let (out, snapshot) = serve_jsonl_with_metrics(&inp.input, WORKERS, None);
            let secs = t.elapsed().as_secs_f64();
            let busy: Vec<f64> = sampler.finish().iter().map(|&ns| ns as f64 / 1e9).collect();
            let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
            let max = busy.iter().cloned().fold(0.0, f64::max);
            imbalance.push(ratio(max, mean));
            share.push(mean / secs);
            let call = engine_trace(&snapshot);
            trace = EngineTrace {
                subtree_clones: trace.subtree_clones + call.subtree_clones,
                worker_lost: trace.worker_lost + call.worker_lost,
                ..call
            };
            out
        } else {
            serve_jsonl(&inp.input, WORKERS, None)
        };
        m.unit(n, call_start, call_cpu);
        match &first {
            None => {
                let (answers, bad) = check::answers(out.lines());
                first_failed = n - answers.len() as u64;
                m.problems.extend(bad.into_iter().take(5));
                m.answers = answers;
                first = Some(out);
                m.failed += first_failed;
            }
            Some(f) if *f == out => m.failed += first_failed,
            Some(_) => {
                m.failed += n;
                m.problems
                    .push("a repeated batch differs from the first one".into());
            }
        }
    }
    m.wall_s = start.elapsed().as_secs_f64();
    m.peak_rss_mb = host::peak_rss_mb();
    m.rps = median(&m.unit_rps);
    m.output = first.unwrap_or_default();
    trace.busy_imbalance = median(&imbalance);
    trace.worker_busy_share = median(&share);
    (m, trace)
}

/// The gate: the measured output must equal a one-worker reference.
pub fn verify(inp: &Inputs, m: &Measured) -> Vec<String> {
    if serve_jsonl(&inp.input, 1, None) == m.output {
        Vec::new()
    } else {
        vec![format!(
            "{WORKERS}-worker output differs from the 1-worker reference"
        )]
    }
}

/// Engine counters from a `serve_jsonl_with_metrics` snapshot record.
fn engine_trace(snapshot: &str) -> EngineTrace {
    let pairs = parse_object(snapshot.trim_end()).unwrap_or_default();
    let get = |key: &str| {
        pairs
            .iter()
            .find_map(|(k, v)| match v {
                Value::Num(raw) if k == key => raw.parse::<f64>().ok(),
                _ => None,
            })
            .unwrap_or(0.0)
    };
    let (computes, reuses) = (
        get("traversal_computes_total"),
        get("traversal_reuses_total"),
    );
    EngineTrace {
        requests_per_batch: ratio(get("engine_requests_total"), get("engine_batches_total")),
        traversal_hit_ratio: ratio(reuses, computes + reuses),
        subtree_clones: get("subtree_clones_total"),
        worker_lost: get("worker_lost_total"),
        ..EngineTrace::default()
    }
}
