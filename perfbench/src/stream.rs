//! `stream`: the in-process `treesched_transport::Daemon` at one worker,
//! driven open-loop by seeded Poisson arrivals from one client. It runs
//! as the daemon phase of a traced `batch` run.

use crate::check;
use crate::host;
use crate::inputs;
use crate::Measured;
use std::path::Path;
use std::time::{Duration, Instant};
use treesched_core::{memory_reference, SchedulerRegistry};
use treesched_transport::{reorder, unframe, Daemon, DaemonConfig};

/// Offered load in requests per second: a fixed constant, 15% of what
/// one worker serves on this mix on a quiet host and under 25% when the
/// host is slow, so latency stays close to service time instead of
/// amplifying host drift through queueing.
pub const RATE: f64 = 250.0;

/// Engine workers of the daemon.
pub const WORKERS: usize = 1;

/// How long the receiver waits for any one answer before it declares the
/// rest missing.
const ANSWER_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Inputs {
    pub warm: String,
    pub lines: Vec<String>,
    pub due: Vec<f64>,
}

/// Writes the corpus and draws the arrivals of one `seconds`-long phase.
pub fn setup(dir: &Path, seed: u64, seconds: f64) -> std::io::Result<Inputs> {
    let (paths, peaks): (Vec<String>, Vec<f64>) = inputs::write_v1_corpus(dir)?
        .into_iter()
        .map(|(path, tree)| (path, memory_reference(&tree)))
        .unzip();
    let (lines, due) = inputs::stream_plan(&paths, &peaks, seed, RATE, seconds);
    Ok(Inputs {
        warm: inputs::warm_lines(&paths),
        lines,
        due,
    })
}

/// When each answer came and each request went out.
pub struct Times {
    /// Per line, ms from its due time to its framed answer; NaN when it
    /// was never answered.
    pub latency_ms: Vec<f64>,
    /// Per line, ms from its due time to its submission.
    pub lateness_ms: Vec<f64>,
}

/// Replays the arrival plan against a fresh daemon whose tree cache was
/// warmed with one request per tree.
pub fn measure(inp: &Inputs) -> (Measured, Times) {
    let daemon = Daemon::new(
        SchedulerRegistry::standard(),
        DaemonConfig {
            workers: WORKERS,
            inflight_cap: inp.lines.len() + 1,
            default_platform: None,
        },
    );
    daemon.client().run_batch(&inp.warm, true);

    let n = inp.lines.len();
    let (mut submitter, responses) = daemon.client().split();
    let clock = Instant::now();
    let receiver = std::thread::Builder::new()
        .name("perfbench-receiver".into())
        .spawn(move || {
            let mut got = Vec::with_capacity(n);
            for _ in 0..n {
                match responses.recv_timeout(ANSWER_TIMEOUT) {
                    Ok(line) => got.push((clock.elapsed().as_secs_f64(), line)),
                    Err(_) => break,
                }
            }
            got
        })
        .expect("spawn the receiver");
    let mut lateness_ms = Vec::with_capacity(n);
    for (k, line) in inp.lines.iter().enumerate() {
        let due = clock + Duration::from_secs_f64(inp.due[k]);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        lateness_ms.push(Instant::now().duration_since(due).as_secs_f64() * 1e3);
        submitter.submit_or_overload(k + 1, line);
    }
    let got = receiver.join().expect("the receiver does not panic");
    let wall = clock.elapsed().as_secs_f64();
    let mut m = Measured {
        peak_rss_mb: host::peak_rss_mb(),
        ..Measured::default()
    };
    drop(submitter);
    drop(daemon);

    // exactly one framed answer per line
    let mut latency_ms = vec![f64::NAN; n];
    let mut duplicates = 0u64;
    let mut framed = Vec::with_capacity(got.len());
    for (at, line) in &got {
        match unframe(line) {
            Ok((k, _)) if (k as usize) < n && latency_ms[k as usize].is_nan() => {
                latency_ms[k as usize] = (at - inp.due[k as usize]) * 1e3;
                framed.push(line.as_str());
            }
            Ok(_) => duplicates += 1,
            Err(e) => m.problems.push(e),
        }
    }
    let missing = latency_ms.iter().filter(|l| l.is_nan()).count() as u64;
    if duplicates + missing > 0 {
        m.problems.push(format!(
            "{missing} lines unanswered, {duplicates} answered twice"
        ));
    }
    m.output = reorder(framed.iter().copied()).unwrap_or_else(|e| {
        m.problems.push(e);
        String::new()
    });
    let (answers, bad) = check::answers(m.output.lines());
    m.problems.extend(bad.into_iter().take(5));
    m.attempted = n as u64;
    m.failed = n as u64 - answers.len() as u64 + duplicates;
    m.answers = answers;
    m.wall_s = wall;
    m.rps = (n as u64 - missing) as f64 / wall;
    (
        m,
        Times {
            latency_ms,
            lateness_ms,
        },
    )
}

/// The gate: the reordered answers must equal batch serving of the same
/// lines.
pub fn verify(inp: &Inputs, m: &Measured) -> Vec<String> {
    let input: String = inp.lines.iter().map(|l| format!("{l}\n")).collect();
    if treesched_cli::serve_jsonl(&input, 2, None) == m.output {
        Vec::new()
    } else {
        vec!["reordered daemon answers differ from batch serving of the same lines".into()]
    }
}
