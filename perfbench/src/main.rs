//! The treesched benchmark: one command, two workloads (`batch`, whose
//! traced runs add the open-loop `stream` daemon phase, and `ingest`),
//! end-to-end metrics with tracing off and per-layer metrics with tracing
//! on.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload batch|ingest --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (name → value and unit). The line
//! before it is the run record: seed, sample counts, per-sub-phase rates,
//! set-up times, `nproc`, the host-speed sentinel, the share of CPU time
//! the hypervisor stole and, on a traced `batch` run, the daemon phase's
//! rates and latency percentiles with the samples beyond them. A
//! human-readable table goes to standard error. The exit code is 0 when
//! every correctness check passed, 1 when one failed, 2 on a usage error.
//! See `perfbench/README.md` for what each metric means.

mod batch;
mod check;
mod host;
mod ingest;
mod inputs;
mod layers;
mod stats;
mod stream;

use check::Answer;
use layers::{Layers, PER_LAYER};
use stats::{median, percentile, ratio, Pct};
use std::time::Instant;
use treesched_serve::JsonRecord;

/// Measured sub-phases of a run, each followed by a timed set-up. The
/// speed figures are medians over the units of work of all sub-phases and
/// `setup_s` the median over all set-ups, so each samples the host across
/// the whole run. The first set-up's files are the ones measured.
const SUB_PHASES: usize = 8;

const USAGE: &str = "usage: perfbench --workload batch|ingest --seed N --seconds S --trace 0|1";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Batch,
    Ingest,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "batch" => Workload::Batch,
                    "ingest" => Workload::Ingest,
                    _ => return Err(bad()),
                })
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad())?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one measured phase of a workload produced.
#[derive(Default)]
pub struct Measured {
    /// Requests sent.
    pub attempted: u64,
    /// Requests without a valid answer: errors, overloads, missing and
    /// duplicate answers, answers that differ from the reference.
    pub failed: u64,
    /// Correctness problems found while measuring (a sample of them).
    pub problems: Vec<String>,
    /// Wall seconds of the phase.
    pub wall_s: f64,
    /// `VmHWM` at the end of the phase.
    pub peak_rss_mb: f64,
    /// Requests answered per wall second: on the closed loops the median
    /// over the phase's units of work (a `batch` call, an `ingest` round).
    pub rps: f64,
    /// Per unit of work, its requests per wall second and its process CPU
    /// milliseconds per request.
    pub unit_rps: Vec<f64>,
    pub unit_cpu_ms_per_req: Vec<f64>,
    /// One pass of the workload's answers: the quality-ratio base.
    pub answers: Vec<Answer>,
    /// The first pass's response stream, for the reference checks.
    pub output: String,
}

impl Measured {
    /// Records one finished unit of `requests` requests that started at
    /// `start` with the process at `cpu_s` CPU seconds.
    pub fn unit(&mut self, requests: u64, start: Instant, cpu_s: f64) {
        let wall = start.elapsed().as_secs_f64();
        self.attempted += requests;
        self.unit_rps.push(requests as f64 / wall);
        self.unit_cpu_ms_per_req
            .push(ratio((host::cpu_secs() - cpu_s) * 1e3, requests as f64));
    }
}

/// Engine-layer figures of a traced phase.
#[derive(Default)]
pub struct EngineTrace {
    pub busy_imbalance: f64,
    pub worker_busy_share: f64,
    pub requests_per_batch: f64,
    pub traversal_hit_ratio: f64,
    pub subtree_clones: f64,
    pub worker_lost: f64,
}

enum Inputs {
    Batch(batch::Inputs),
    Ingest(ingest::Inputs),
}

fn setup(workload: Workload, dir: &std::path::Path, seed: u64) -> std::io::Result<Inputs> {
    Ok(match workload {
        Workload::Batch => Inputs::Batch(batch::setup(dir, seed)?),
        Workload::Ingest => Inputs::Ingest(ingest::setup(dir, seed)?),
    })
}

/// One measured sub-phase, untraced.
fn measure(inputs: &Inputs, seconds: f64) -> Measured {
    match inputs {
        Inputs::Batch(inp) => batch::measure(inp, seconds, false).0,
        Inputs::Ingest(inp) => ingest::measure(inp, seconds, false).0,
    }
}

/// The correctness gate, run outside the timed phases.
fn verify(inputs: &Inputs, m: &Measured) -> Vec<String> {
    match inputs {
        Inputs::Batch(inp) => batch::verify(inp, m),
        Inputs::Ingest(inp) => ingest::verify(inp),
    }
}

/// Folds untraced sub-phase `k` (from 0) into `m`: request and failure
/// totals, every unit's rate and CPU time, and the first sub-phase's
/// answers and output. Every later sub-phase must give the first one's
/// output; one that does not fails all its requests. Only the first
/// output is kept, so the benchmark's own memory does not grow from one
/// sub-phase to the next.
fn absorb(m: &mut Measured, part: Measured, k: usize) {
    if k == 0 {
        *m = part;
        return;
    }
    m.attempted += part.attempted;
    m.wall_s += part.wall_s;
    m.unit_rps.extend(part.unit_rps);
    m.unit_cpu_ms_per_req.extend(part.unit_cpu_ms_per_req);
    m.problems.extend(part.problems);
    if part.output == m.output {
        m.failed += part.failed;
    } else {
        m.failed += part.attempted;
        m.problems
            .push(format!("sub-phase {} answered unlike the first", k + 1));
    }
}

fn engine_layers(layers: &mut Layers, e: &EngineTrace) {
    layers.set("engine.busy_imbalance", e.busy_imbalance);
    layers.set("engine.worker_busy_share", e.worker_busy_share);
    layers.set("engine.requests_per_batch", e.requests_per_batch);
    layers.set("engine.traversal_hit_ratio", e.traversal_hit_ratio);
    layers.set("engine.subtree_clones", e.subtree_clones);
    layers.set("engine.worker_lost", e.worker_lost);
}

/// The traced phase plus the layer replays. Returns the traced phases
/// (their requests count as attempted too), the per-layer values and, on
/// `batch`, the daemon phase's run record.
fn trace(
    inputs: &Inputs,
    dir: &std::path::Path,
    seed: u64,
    phase_s: f64,
    untraced_rps: f64,
) -> Result<(Measured, Layers, Option<String>), String> {
    let mut layers = Layers::new();
    let (traced, daemon) = match inputs {
        Inputs::Batch(inp) => {
            let (mut m, engine) = batch::measure(inp, phase_s, true);
            engine_layers(&mut layers, &engine);
            layers::tree_files(&mut layers, &inp.paths);
            let (requests, _) = layers::request_lines(&mut layers, &inp.lines, None);
            layers::core(&mut layers, &requests);
            let (daemon, record) = daemon_phase(&mut layers, &dir.join("stream"), seed, phase_s)?;
            m.attempted += daemon.attempted;
            m.failed += daemon.failed;
            m.problems.extend(daemon.problems);
            (m, Some(record))
        }
        Inputs::Ingest(inp) => {
            let (m, t) = ingest::measure(inp, phase_s, true);
            let (share, mb_per_s) = ingest::shares(&t);
            layers.set("trees.ingest_share", share);
            layers.set("trees.mb_per_s", mb_per_s);
            let trees = layers::ingest_files(&mut layers, &inp.items);
            let requests: Vec<_> = inp
                .rounds
                .concat()
                .iter()
                .map(|&(i, h)| {
                    treesched_serve::ServeRequest::new(
                        std::sync::Arc::clone(&trees[i]),
                        inputs::HEURISTICS[h].0,
                        treesched_core::Platform::new(ingest::PROCESSORS),
                    )
                })
                .collect();
            layers::core(&mut layers, &requests);
            (m, None)
        }
    };
    layers.set("trace.overhead_ratio", ratio(untraced_rps, traced.rps));
    Ok((traced, layers, daemon))
}

/// The open-loop daemon phase a traced `batch` run adds: the `stream`
/// request mix through the in-process daemon, for the `transport` layer
/// and the stream latency tails. Its latencies are per-layer figures,
/// not gated ones: under hypervisor steal they spread far more than any
/// end-to-end bound allows. Its answers pass the `stream` gate. Returns
/// the phase and its run record.
fn daemon_phase(
    layers: &mut Layers,
    dir: &std::path::Path,
    seed: u64,
    phase_s: f64,
) -> Result<(Measured, String), String> {
    let inp = std::fs::create_dir_all(dir)
        .and_then(|()| stream::setup(dir, seed, phase_s))
        .map_err(|e| format!("stream setup failed: {e}"))?;
    let (mut m, times) = stream::measure(&inp);
    let gate = stream::verify(&inp, &m);
    if !gate.is_empty() {
        m.failed = m.attempted;
    }
    m.problems.extend(gate);
    // replayed on a table of its own, so the batch figures stay the
    // batch's; only the hand-off and the capped scheduler are kept
    let mut replay = Layers::new();
    let (requests, build) = layers::request_lines(&mut replay, &inp.lines, Some(&inp.warm));
    let standalone = layers::core(&mut replay, &requests);
    layers::handoff(layers, &times.latency_ms, &build, &standalone);
    layers.set(
        "core.schedule_us.membound",
        replay.get("core.schedule_us.membound"),
    );

    let latency: Vec<f64> = times
        .latency_ms
        .iter()
        .copied()
        .filter(|l| !l.is_nan())
        .collect();
    let tails = [50.0, 90.0, 99.0].map(|q| percentile(&latency, q));
    for (p, name) in tails.iter().zip([
        "stream.latency_p50_ms",
        "stream.latency_p90_ms",
        "stream.latency_p99_ms",
    ]) {
        if let Some(p) = p {
            layers.set(name, p.value);
            layers.set("stream.latency_samples", p.samples as f64);
        }
    }
    let lateness = percentile(&times.lateness_ms, 99.0);
    if let Some(p99) = lateness {
        layers.set("gen.lateness_ms_p99", p99.value);
        layers.set("gen.lateness_samples", p99.samples as f64);
    }
    let record = JsonRecord::new()
        .num("measured_s", m.wall_s)
        .num("offered_rps", stream::RATE)
        .num("achieved_rps", m.rps)
        .int("requests", m.attempted)
        .raw("latency_p50_ms", &pct_json(tails[0]))
        .raw("latency_p90_ms", &pct_json(tails[1]))
        .raw("latency_p99_ms", &pct_json(tails[2]))
        .raw("lateness_p99_ms", &pct_json(lateness))
        .render();
    Ok((m, record))
}

fn pct_json(p: Option<Pct>) -> String {
    match p {
        Some(p) => JsonRecord::new()
            .num("value", p.value)
            .int("samples", p.samples as u64)
            .int("beyond", p.beyond as u64)
            .render(),
        None => "null".into(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Runs one workload and prints its record; `Ok(false)` when a
/// correctness check failed.
fn run(args: &Args) -> Result<bool, String> {
    let spin_before = host::spin_ms();
    let steal_before = host::steal_ticks();
    let dir = inputs::Workdir::create().map_err(|e| format!("cannot create the work dir: {e}"))?;
    // a traced run splits its time between the untraced sub-phases, a
    // traced phase and, on `batch`, the open-loop daemon phase
    let phase_s = if args.trace {
        args.seconds / 3.0
    } else {
        args.seconds
    };
    let timed_setup = |sub: &str| -> Result<(Inputs, f64), String> {
        let t = Instant::now();
        let dir = dir.path().join(sub);
        std::fs::create_dir_all(&dir)
            .and_then(|()| setup(args.workload, &dir, args.seed))
            .map(|inputs| (inputs, t.elapsed().as_secs_f64()))
            .map_err(|e| format!("setup failed: {e}"))
    };
    let (inputs, first_setup_s) = timed_setup("run")?;
    let mut setup_s = vec![first_setup_s];
    let mut m = Measured::default();
    let mut rss = Vec::with_capacity(SUB_PHASES);
    for k in 0..SUB_PHASES {
        // the peak of this sub-phase, not of the set-ups before it
        host::reset_peak_rss();
        let part = measure(&inputs, phase_s / SUB_PHASES as f64);
        rss.push(part.peak_rss_mb);
        absorb(&mut m, part, k);
        let sub = format!("setup{k}");
        setup_s.push(timed_setup(&sub)?.1);
        // untimed: only the measured set-up's files are kept
        let _ = std::fs::remove_dir_all(dir.path().join(sub));
    }
    m.rps = median(&m.unit_rps);
    m.peak_rss_mb = median(&rss);
    let mut traced = match args.trace {
        true => Some(trace(&inputs, dir.path(), args.seed, phase_s, m.rps)?),
        false => None,
    };
    let mut problems = m.problems.clone();
    let gate = verify(&inputs, &m);
    // an output that fails the gate has no answer to trust
    let m_failed = if gate.is_empty() {
        m.failed
    } else {
        m.attempted
    };
    problems.extend(gate);
    let (mut attempted, mut failed) = (m.attempted, m_failed);
    if let Some((t, _, _)) = &traced {
        problems.extend(t.problems.iter().cloned());
        attempted += t.attempted;
        failed += t.failed;
    }
    let spin_after = host::spin_ms();
    let steal_after = host::steal_ticks();
    let steal_share = ratio(
        steal_after.0.saturating_sub(steal_before.0) as f64,
        steal_after.1.saturating_sub(steal_before.1) as f64,
    );
    if let Some((_, layers, _)) = &mut traced {
        layers.set("host.spin_ms", (spin_before + spin_after) / 2.0);
        layers.set("host.steal_share", steal_share);
    }
    let correct = problems.is_empty() && failed == 0;
    for p in problems.iter().take(10) {
        eprintln!("correctness: {p}");
    }

    let (makespan_ratio, memory_ratio) = check::quality(&m.answers);
    let units = m.unit_rps.len();
    let e2e: Vec<(&str, f64, &str, usize)> = vec![
        ("setup_s", median(&setup_s), "s", setup_s.len()),
        ("rps", m.rps, "1/s", units),
        (
            "success_rate",
            ratio((m.attempted - m_failed) as f64, m.attempted as f64),
            "ratio",
            m.attempted as usize,
        ),
        (
            "cpu_ms_per_req",
            median(&m.unit_cpu_ms_per_req),
            "ms",
            units,
        ),
        ("peak_rss_mb", m.peak_rss_mb, "MB", SUB_PHASES),
        ("makespan_ratio", makespan_ratio, "ratio", m.answers.len()),
        ("memory_ratio", memory_ratio, "ratio", m.answers.len()),
    ];
    let shown: Vec<(&str, f64, &str, usize)> = match &traced {
        None => e2e.clone(),
        // per-layer values are means over the replayed calls; their counts
        // are in the workload's request totals
        Some((_, layers, _)) => PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, layers.get(name), unit, 0))
            .collect(),
    };

    eprintln!(
        "{:?} seed {} · {:.1} s measured · {} requests · nproc {}",
        args.workload,
        args.seed,
        m.wall_s,
        m.attempted,
        host::nproc()
    );
    for (name, value, unit, samples) in &shown {
        let n = if *samples > 0 {
            format!("(n={samples})")
        } else {
            String::new()
        };
        eprintln!("  {name:<32} {value:>14.6} {unit:<6} {n}");
    }

    let samples = e2e.iter().fold(JsonRecord::new(), |r, (name, _, _, n)| {
        r.int(name, *n as u64)
    });
    let e2e_values = e2e
        .iter()
        .fold(JsonRecord::new(), |r, (name, value, _, _)| {
            r.num(name, *value)
        });
    let daemon = match &traced {
        Some((_, _, Some(record))) => record.as_str(),
        _ => "null",
    };
    let record = JsonRecord::new()
        .str("workload", &format!("{:?}", args.workload).to_lowercase())
        .int("seed", args.seed)
        .num("seconds", args.seconds)
        .int("trace", args.trace as u64)
        .int("nproc", host::nproc() as u64)
        .num("measured_s", m.wall_s)
        .num_array("setup_s", &setup_s)
        // closed loops: the offered rate is whatever the program serves
        .raw("offered_rps", "null")
        .num("achieved_rps", m.rps)
        .int("sub_phases", SUB_PHASES as u64)
        .num_array("unit_rps", &m.unit_rps)
        .num_array("unit_cpu_ms_per_req", &m.unit_cpu_ms_per_req)
        .int("requests", m.attempted)
        .num("spin_before_ms", spin_before)
        .num("spin_after_ms", spin_after)
        .num("steal_share", steal_share)
        .raw("daemon_phase", daemon)
        .raw("end_to_end", &e2e_values.render())
        .raw("samples", &samples.render());
    print!("{}", JsonRecord::new().raw("run", &record.render()).line());

    let metrics = shown
        .iter()
        .fold(JsonRecord::new(), |r, (name, value, unit, _)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            r.raw(
                name,
                &JsonRecord::new()
                    .num("value", value)
                    .str("unit", unit)
                    .render(),
            )
        });
    print!(
        "{}",
        JsonRecord::new()
            .raw("correct", if correct { "true" } else { "false" })
            .int("attempted", attempted)
            .int("failed", failed)
            .raw("metrics", &metrics.render())
            .line()
    );
    drop(dir);
    Ok(correct)
}
