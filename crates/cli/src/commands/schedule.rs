//! `schedule` — one parallel schedule of a tree file, evaluated, as text
//! or as the stable `--json` record.

use super::load_input;
use super::seq::seq_algo_by_name;
use crate::args::parse_common;
use crate::CliError;
use std::fmt::Write as _;
use treesched_core::{Platform, Request, SchedulerRegistry, Scratch, SeqAlgo};
use treesched_transport::default_scheduler;

const USAGE: &str = "usage: treesched schedule FILE -p N [--scheduler S] [--seq A] [--cap X] \
                     [--seed N] [--speeds L] [--domains D] [--comm C] [--ordering K] \
                     [--amalg N] [--json] [--gantt] [--profile] [--placements]";

pub(crate) fn execute(args: &[String]) -> Result<String, CliError> {
    let common = parse_common(
        args,
        "-p --scheduler --heuristic --seq --seed --cap --speeds --domains --comm \
         --ordering --amalg",
        "--json --gantt --profile --placements",
        USAGE,
    )?;
    let p: Option<u32> = common.num("-p", "N")?;
    // `--heuristic` is a synonym of `--scheduler`: the last of either wins
    let name = common.last_of(&["--scheduler", "--heuristic"]);
    let seq = match common.value("--seq") {
        Some(s) => seq_algo_by_name(s)?,
        None => SeqAlgo::default(),
    };
    let seed: Option<u64> = common.num("--seed", "seed")?;
    let cap: Option<f64> = common.num("--cap", "cap")?;
    let json = common.switch("--json");
    let show_gantt = common.switch("--gantt");
    let show_profile = common.switch("--profile");
    let show_placements = common.switch("--placements");
    let path = match common.positional.as_slice() {
        [] => return Err(CliError::new("schedule needs a tree file")),
        [path] => path,
        [_, extra, ..] => return Err(CliError::new(format!("unexpected argument `{extra}`"))),
    };
    if p.is_none() && common.value("--speeds").is_none() {
        return Err(CliError::new("schedule needs -p N (or --speeds)"));
    }
    if json && (show_gantt || show_profile || show_placements) {
        return Err(CliError::new(
            "--json cannot be combined with --gantt/--profile/--placements",
        ));
    }
    if let Some(cap) = cap {
        // non-finite caps would corrupt the text/JSON record; "no cap" is
        // spelled by omitting the flag
        if !cap.is_finite() {
            return Err(CliError::new("--cap must be a finite number"));
        }
    }
    // any toolbox format schedules directly: v1, Newick, or MatrixMarket
    // (routed through the elimination/assembly-tree pipeline with the
    // --ordering/--amalg knobs), detected by extension then content
    let (tree, _format) = load_input(path, common.ingest)?;

    let platform = common.platform(p, cap)?;
    // scheduler selection: explicit name wins, otherwise a default that
    // can actually serve the platform (see `default_scheduler`)
    let registry = SchedulerRegistry::standard();
    let name = name.unwrap_or_else(|| default_scheduler(&platform));
    let scheduler = registry.get(name).map_err(CliError::sched)?;
    let mut request = Request::new(&tree, platform.clone()).with_seq(seq);
    if let Some(seed) = seed {
        request = request.with_seed(seed);
    }
    let mut scratch = Scratch::new();
    let outcome = scheduler
        .schedule(&request, &mut scratch)
        .map_err(CliError::sched)?;
    if cap.is_some() && outcome.diagnostics.cap_violations.is_none() {
        // the cap was requested but the resolved scheduler never reads it —
        // refuse rather than report an uncapped schedule as capped
        return Err(CliError::new(format!(
            "scheduler `{}` does not enforce --cap; pick a memory-capped \
             scheduler (see `treesched schedulers`)",
            scheduler.name()
        )));
    }

    let ms_lb = treesched_core::makespan_lower_bound_on(&tree, &platform);
    let mem_ref = treesched_core::memory_reference(&tree);

    if json {
        // the stable machine-readable record, rendered by the shared
        // record builder in `treesched_serve::jsonl` (the serving responses
        // reuse the same field conventions, prefixed with the request id)
        return Ok(treesched_serve::ScheduleRecord {
            scheduler: scheduler.name(),
            platform: &platform,
            tasks: tree.len(),
            makespan: outcome.eval.makespan,
            makespan_lower_bound: ms_lb,
            peak_memory: outcome.eval.peak_memory,
            memory_reference: mem_ref,
            cap_violations: outcome.diagnostics.cap_violations,
            domain_peaks: &outcome.domain_peaks,
        }
        .to_json());
    }

    let mut out = String::new();
    if let Some(violations) = outcome.diagnostics.cap_violations {
        // per-domain capacities are listed with the domain peaks below
        let cap = platform
            .memory_cap()
            .map_or_else(|| "per domain".to_string(), |cap| cap.to_string());
        let _ = writeln!(
            out,
            "memory-capped schedule (cap {cap}): {violations} violation(s)"
        );
    }
    let _ = writeln!(
        out,
        "scheduler: {}\nprocessors: {}\nmakespan: {}  (lower bound {})\npeak memory: {}  (sequential reference {})",
        scheduler.name(),
        platform.processors(),
        outcome.eval.makespan,
        ms_lb,
        outcome.eval.peak_memory,
        mem_ref,
    );
    if !platform.is_flat() {
        let _ = writeln!(out, "platform: {}", platform_text(&platform));
    }
    if !outcome.domain_peaks.is_empty() {
        let peaks: Vec<String> = outcome
            .domain_peaks
            .iter()
            .enumerate()
            .map(|(k, peak)| {
                format!(
                    "domain {k}: {peak} / cap {}",
                    platform.domains()[k].capacity
                )
            })
            .collect();
        let _ = writeln!(out, "domain peaks: {}", peaks.join("; "));
    }
    if show_gantt {
        let _ = write!(
            out,
            "\n{}",
            treesched_viz::gantt(
                &tree,
                &outcome.schedule,
                treesched_viz::GanttOptions::default()
            )
        );
    }
    if show_profile {
        let _ = write!(
            out,
            "\n{}",
            treesched_viz::memory_profile_plot(
                &tree,
                &outcome.schedule,
                treesched_viz::ProfileOptions::default()
            )
        );
    }
    if show_placements {
        let _ = writeln!(out, "\ntask,proc,start,finish");
        for i in tree.ids() {
            let pl = outcome.schedule.placement(i);
            let _ = writeln!(out, "{},{},{},{}", i.index(), pl.proc, pl.start, pl.finish);
        }
    }
    Ok(out)
}

/// One-line human rendering of a non-flat platform for the text output.
fn platform_text(platform: &Platform) -> String {
    let (speeds, domains, comm) = platform.flag_strings();
    let mut s = format!("speeds {}", speeds.replace(',', " + "));
    if let Some(domains) = domains {
        let _ = write!(s, "; domains {}", domains.replace(',', ", "));
    }
    if let Some(comm) = comm {
        let _ = write!(s, "; comm {}", comm.replace(',', ", "));
    }
    s
}
