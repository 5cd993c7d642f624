//! Subcommand parsing and execution.
//!
//! Schedulers are resolved exclusively through
//! [`treesched_core::SchedulerRegistry`] — the CLI holds no per-heuristic
//! dispatch of its own. Scheduling failures ([`treesched_core::SchedError`])
//! exit with code 1; usage errors exit with code 2.

use std::fmt::Write as _;
use treesched_core::{Platform, Request, SchedError, SchedulerRegistry, Scratch, SeqAlgo};
use treesched_model::{io as tree_io, TaskTree, TreeStats};
use treesched_serve::MAX_WORKERS;
use treesched_transport::{default_scheduler, Daemon, DaemonConfig, ListenOptions};

/// Top-level usage text.
pub const USAGE: &str = "treesched — memory/makespan-aware tree scheduling (IPDPS 2013)

usage: treesched <command> [args]

commands:
  gen <kind> <params..> [-o FILE]   generate a tree (see `treesched gen`)
  stats FILE..                      shape and weight statistics
  sketch FILE [--max N]             indented tree view
  seq FILE [--algo best|naive|liu]  sequential traversal peak + order head
  schedule FILE -p N [--scheduler S] [--seq A] [--cap X] [--seed N]
           [--speeds L] [--domains D] [--comm C]
           [--ordering K] [--amalg N]
           [--json] [--gantt] [--profile] [--placements]
                                    parallel schedule + evaluation; FILE
                                    may be v1, Newick, or MatrixMarket
                                    (--ordering natural|amd|rcm, --amalg)
  schedulers                        list registered schedulers + aliases
  serve [FILE] [--workers N] [--speeds L] [--domains D] [--comm C]
                                    batched serving: JSONL requests from
                                    FILE (default stdin), one JSON record
                                    per result, in input order
  serve --stdio | --listen PATH [--accept N] [--inflight N] [--overload]
                                    daemon mode: responses stream out in
                                    completion order, framed with their
                                    submission index (`\"n\"`), over stdio
                                    or a Unix socket shared by clients;
                                    SIGTERM drains gracefully (no new
                                    work, in-flight lines answered)
  serve ... --metrics-out FILE      write a final metrics snapshot (the
                                    `{\"op\":\"metrics\"}` record) to FILE
                                    when the serve ends
  connect PATH [--raw]              client for `serve --listen`: stdin to
                                    the daemon, batch-identical output
                                    (or the raw framed stream) on stdout
  metrics PATH                      fetch a live metrics snapshot from a
                                    `serve --listen` daemon at PATH
  pareto FILE -p N [--json] [--speeds L] [--domains D]
                                    exact (makespan, memory) frontier
  campaign [--spec FILE | flags]    declarative experiment campaign over the
                                    serving engine, JSONL records on stdout
                                    (see `treesched campaign --help`)
  tree <subcommand> [args]          workload toolbox: ingest Newick /
                                    MatrixMarket / v1 trees, stat, prune,
                                    subtree, DOT export, serve requests
                                    (see `treesched tree --help`)
  dot FILE                          Graphviz DOT export

Schedulers S: any name or alias from `treesched schedulers`
(`--heuristic` is accepted as a synonym of `--scheduler`).

Heterogeneous platforms: --speeds lists processor classes as COUNTxSPEED
entries (`--speeds 2x2.0,2x1.0` = 2 fast + 2 slow; a bare SPEED means one
processor), replacing -p. --domains lists memory domains as CAP@CLASSES
entries with `+`-joined class indices (`--domains 64@0,32@1`; a bare CAP
covers every class). --comm lists symmetric cross-domain transfer costs
as SRC-DST:COST entries (`--comm 0-1:2`; unlisted pairs cost 0), charged
per unit of a task's output when parent and child run in different
domains — only the list schedulers serve comm-bearing platforms. On
serve, the flags set the default platform for requests that carry
neither `processors` nor a `platform` object.
Tree files use the `treesched tree v1` text format (id parent w f n).";

const GEN_USAGE: &str = "treesched gen — tree generators

  gen fork P K                 fork with P*K unit leaves (paper Fig. 3)
  gen chain N                  pebble chain of N tasks
  gen complete ARITY DEPTH     complete tree, pebble weights
  gen random N SEED            random attachment tree, mixed weights
  gen deep N SEED              depth-biased random tree, mixed weights
  gen caterpillar SPINE LEGS   caterpillar, pebble weights
  gen spider LEGS LEN          spider, pebble weights
  gen inapprox N DELTA         inapproximability tree (paper Fig. 2)
  gen gadget P K               ParInnerFirst gadget (paper Fig. 4)
  gen longchain C LEN          long-chain tree (paper Fig. 5)
  gen assembly KIND SIZE AMALG assembly tree: KIND = grid2d|grid3d|rand|band

append `-o FILE` to write the tree file (default: stdout).";

/// A CLI failure: message plus the exit code the binary should use.
#[derive(Debug)]
pub struct CliError {
    /// Human-readable message (already includes usage hints).
    pub message: String,
    /// Suggested process exit code.
    pub code: i32,
}

impl CliError {
    pub(crate) fn new(message: impl Into<String>) -> CliError {
        CliError {
            message: message.into(),
            code: 2,
        }
    }

    /// Maps a typed scheduling error to its exit code: unknown names are
    /// usage errors (2), everything else is a scheduling failure (1).
    fn sched(e: SchedError) -> CliError {
        let code = match e {
            SchedError::UnknownScheduler { .. } => 2,
            _ => 1,
        };
        CliError {
            message: e.to_string(),
            code,
        }
    }
}

/// Writes `contents` to `path` through a temporary file in the same
/// directory that is then renamed into place, so a concurrent reader — a
/// live daemon loading a tree — sees the old file or the whole new one,
/// never a partial write. Leaves no temporary file behind on failure.
pub(crate) fn write_file(path: &str, contents: impl AsRef<[u8]>) -> Result<(), CliError> {
    static SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let target = std::path::Path::new(path);
    let name = target.file_name().unwrap_or(target.as_os_str());
    let seq = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let tmp = target.with_file_name(format!(
        ".{}.{}-{seq}.tmp",
        name.to_string_lossy(),
        std::process::id()
    ));
    let written = std::fs::write(&tmp, contents).and_then(|()| std::fs::rename(&tmp, target));
    if written.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    written.map_err(|e| CliError::new(format!("cannot write {path}: {e}")))
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// Executes `args` (without the program name) and returns the text to
/// print on stdout. File writes (`gen -o`) happen inside.
pub fn dispatch(args: &[String]) -> Result<String, CliError> {
    let Some((cmd, rest)) = args.split_first() else {
        return Err(CliError::new(USAGE));
    };
    match cmd.as_str() {
        "gen" => cmd_gen(rest),
        "stats" => cmd_stats(rest),
        "sketch" => cmd_sketch(rest),
        "seq" => cmd_seq(rest),
        "schedule" => cmd_schedule(rest),
        "schedulers" => cmd_schedulers(rest),
        "serve" => cmd_serve(rest),
        "connect" => cmd_connect(rest),
        "metrics" => cmd_metrics(rest),
        "pareto" => cmd_pareto(rest),
        "campaign" => cmd_campaign(rest),
        "tree" => crate::tree::execute(rest),
        "dot" => cmd_dot(rest),
        "--help" | "-h" | "help" => Ok(USAGE.to_string()),
        other => Err(CliError::new(format!(
            "unknown command `{other}`\n\n{USAGE}"
        ))),
    }
}

pub(crate) fn load_tree(path: &str) -> Result<TaskTree, CliError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| CliError::new(format!("cannot read {path}: {e}")))?;
    tree_io::from_text(&text).map_err(|e| CliError::new(format!("cannot parse {path}: {e}")))
}

pub(crate) fn parse_num<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, CliError> {
    s.parse()
        .map_err(|_| CliError::new(format!("cannot parse {what} from `{s}`")))
}

/// The `--speeds`/`--domains`/`--comm`/`--workers` flags, read through one
/// table for `schedule`, `pareto`, `serve` and `campaign`. Each subcommand
/// takes the subset in `accepted` and handles every other argument itself,
/// so it keeps its own unexpected-argument message.
struct PlatformFlags<'a> {
    accepted: &'static [&'static str],
    /// How a `--workers` value that is not a number is named in its error.
    workers_what: &'static str,
    speeds: Option<&'a str>,
    domains: Option<&'a str>,
    comm: Option<&'a str>,
    workers: Option<usize>,
}

impl<'a> PlatformFlags<'a> {
    fn new(accepted: &'static [&'static str], workers_what: &'static str) -> PlatformFlags<'a> {
        PlatformFlags {
            accepted,
            workers_what,
            speeds: None,
            domains: None,
            comm: None,
            workers: None,
        }
    }

    /// Takes `flag` and its value from `it` when the subcommand accepts
    /// it; returns `false`, consuming nothing, for any other argument.
    fn read(
        &mut self,
        flag: &str,
        it: &mut impl Iterator<Item = &'a String>,
    ) -> Result<bool, CliError> {
        let want = match flag {
            "--speeds" => "COUNTxSPEED entries",
            "--domains" => "CAP@CLASSES entries",
            "--comm" => "SRC-DST:COST entries",
            "--workers" => "N",
            _ => return Ok(false),
        };
        if !self.accepted.contains(&flag) {
            return Ok(false);
        }
        let value = it
            .next()
            .ok_or_else(|| CliError::new(format!("{flag} needs {want}")))?;
        match flag {
            "--speeds" => self.speeds = Some(value),
            "--domains" => self.domains = Some(value),
            "--comm" => self.comm = Some(value),
            _ => {
                let workers: usize = parse_num(value, self.workers_what)?;
                if workers == 0 {
                    return Err(CliError::new("--workers needs at least 1"));
                }
                if workers > MAX_WORKERS {
                    return Err(CliError::new(format!(
                        "--workers must be at most {MAX_WORKERS}"
                    )));
                }
                self.workers = Some(workers);
            }
        }
        Ok(true)
    }

    /// Builds the platform of a command from `-p`/`--cap` and these flags
    /// and validates it (typed platform errors map to exit 1). The flag
    /// syntax is parsed by [`Platform::parse_flags`], which campaign specs
    /// use for the same spellings; its typed
    /// [`treesched_core::PlatformParseError`] renders here as the usage
    /// message.
    fn platform(&self, p: Option<u32>, cap: Option<f64>) -> Result<Platform, CliError> {
        if cap.is_some() && self.domains.is_some() {
            return Err(CliError::new(
                "--cap and --domains cannot be combined (--cap is the single shared domain)",
            ));
        }
        let parse = |speeds: &str| {
            Platform::parse_flags(speeds, self.domains, self.comm)
                .map_err(|e| CliError::new(e.to_string()))
        };
        let mut platform = match self.speeds {
            Some(s) => {
                let platform = parse(s)?;
                let total = platform.processors();
                if let Some(p) = p.filter(|&p| p != total) {
                    return Err(CliError::new(format!(
                        "-p {p} contradicts --speeds ({total} processors)"
                    )));
                }
                platform
            }
            None => {
                let p = p.ok_or_else(|| CliError::new("need -p N (or --speeds)"))?;
                if self.domains.is_some() || self.comm.is_some() {
                    // flat processors with explicit domains: same parser, one
                    // implicit unit-speed class (a comm matrix without domains
                    // is its typed out-of-range error)
                    parse(&format!("{p}x1"))?
                } else {
                    Platform::new(p)
                }
            }
        };
        if let Some(cap) = cap {
            platform = platform.with_memory_cap(cap);
        }
        platform.validate().map_err(CliError::sched)?;
        Ok(platform)
    }
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

fn cmd_gen(args: &[String]) -> Result<String, CliError> {
    use treesched_gen as g;
    let mut out_file: Option<String> = None;
    let mut positional: Vec<&String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "-o" {
            out_file = Some(
                it.next()
                    .ok_or_else(|| CliError::new("-o needs a path"))?
                    .clone(),
            );
        } else {
            positional.push(a);
        }
    }
    let Some((&kind, params)) = positional.split_first() else {
        return Err(CliError::new(GEN_USAGE));
    };
    let need = |k: usize| -> Result<(), CliError> {
        if params.len() == k {
            Ok(())
        } else {
            Err(CliError::new(format!(
                "gen {kind} needs {k} parameter(s)\n\n{GEN_USAGE}"
            )))
        }
    };
    let tree = match kind.as_str() {
        "fork" => {
            need(2)?;
            g::fork_tree(parse_num(params[0], "P")?, parse_num(params[1], "K")?)
        }
        "chain" => {
            need(1)?;
            TaskTree::chain(parse_num(params[0], "N")?, 1.0, 1.0, 0.0)
        }
        "complete" => {
            need(2)?;
            TaskTree::complete(
                parse_num(params[0], "ARITY")?,
                parse_num(params[1], "DEPTH")?,
                1.0,
                1.0,
                0.0,
            )
        }
        "random" => {
            need(2)?;
            g::random_attachment(
                parse_num(params[0], "N")?,
                g::WeightRange::MIXED,
                parse_num(params[1], "SEED")?,
            )
        }
        "deep" => {
            need(2)?;
            g::random_deep(
                parse_num(params[0], "N")?,
                3,
                g::WeightRange::MIXED,
                parse_num(params[1], "SEED")?,
            )
        }
        "caterpillar" => {
            need(2)?;
            g::caterpillar(
                parse_num(params[0], "SPINE")?,
                parse_num(params[1], "LEGS")?,
            )
        }
        "spider" => {
            need(2)?;
            g::spider(parse_num(params[0], "LEGS")?, parse_num(params[1], "LEN")?)
        }
        "inapprox" => {
            need(2)?;
            g::inapprox_tree(parse_num(params[0], "N")?, parse_num(params[1], "DELTA")?)
        }
        "gadget" => {
            need(2)?;
            g::inner_first_gadget(parse_num(params[0], "P")?, parse_num(params[1], "K")?)
        }
        "longchain" => {
            need(2)?;
            g::long_chain_tree(parse_num(params[0], "C")?, parse_num(params[1], "LEN")?)
        }
        "assembly" => {
            need(3)?;
            gen_assembly(
                params[0],
                parse_num(params[1], "SIZE")?,
                parse_num(params[2], "AMALG")?,
            )?
        }
        other => {
            return Err(CliError::new(format!(
                "unknown generator `{other}`\n\n{GEN_USAGE}"
            )))
        }
    };
    let text = tree_io::to_text(&tree);
    match out_file {
        Some(path) => {
            write_file(&path, &text)?;
            Ok(format!("wrote {} tasks to {path}\n", tree.len()))
        }
        None => Ok(text),
    }
}

fn gen_assembly(kind: &str, size: usize, amalg: u32) -> Result<TaskTree, CliError> {
    use treesched_sparse::{assembly, generate, ordering};
    let (pattern, ord) = match kind {
        "grid2d" => {
            let p = generate::grid2d(size, size, generate::Stencil::Star);
            let o = ordering::nested_dissection_2d(size, size);
            (p, o)
        }
        "grid3d" => {
            let p = generate::grid3d(size, size, size, generate::Stencil::Star);
            let o = ordering::nested_dissection_3d(size, size, size);
            (p, o)
        }
        "rand" => {
            let p = generate::random_symmetric(size, 3.0, 42);
            let o = ordering::min_degree(&p);
            (p, o)
        }
        "band" => {
            let p = generate::band(size, 8.min(size.saturating_sub(1)).max(1));
            let o = ordering::min_degree(&p);
            (p, o)
        }
        other => return Err(CliError::new(format!("unknown assembly kind `{other}`"))),
    };
    assembly::assembly_tree_ordered(&pattern, &ord, amalg)
        .map_err(|e| CliError::new(format!("cannot build assembly tree: {e}")))
}

fn cmd_stats(args: &[String]) -> Result<String, CliError> {
    if args.is_empty() {
        return Err(CliError::new("stats needs at least one tree file"));
    }
    let mut out = String::new();
    for path in args {
        let tree = load_tree(path)?;
        let s = TreeStats::of(&tree);
        let _ = writeln!(out, "{path}: {s}");
        let _ = writeln!(
            out,
            "  seq memory: best postorder {:.6e}, max single task {:.6e}",
            treesched_core::memory_reference(&tree),
            s.max_local_need
        );
    }
    Ok(out)
}

fn cmd_sketch(args: &[String]) -> Result<String, CliError> {
    let (path, max) = match args {
        [p] => (p, 40usize),
        [p, flag, n] if flag == "--max" => (p, parse_num(n, "N")?),
        _ => return Err(CliError::new("usage: treesched sketch FILE [--max N]")),
    };
    let tree = load_tree(path)?;
    Ok(treesched_viz::tree_sketch(&tree, max))
}

fn cmd_seq(args: &[String]) -> Result<String, CliError> {
    let (path, algo) = match args {
        [p] => (p, "best"),
        [p, flag, a] if flag == "--algo" => (p, a.as_str()),
        _ => {
            return Err(CliError::new(
                "usage: treesched seq FILE [--algo best|naive|liu]",
            ))
        }
    };
    let tree = load_tree(path)?;
    let result = seq_algo_by_name(algo)?.traversal(&tree);
    let head: Vec<String> = result
        .order
        .iter()
        .take(16)
        .map(|v| v.index().to_string())
        .collect();
    Ok(format!(
        "algorithm: {algo}\npeak memory: {}\norder head: {}{}\n",
        result.peak,
        head.join(" "),
        if result.order.len() > 16 { " ..." } else { "" }
    ))
}

/// Parses a sequential-traversal algorithm name (`--algo` / `--seq`).
fn seq_algo_by_name(name: &str) -> Result<SeqAlgo, CliError> {
    SeqAlgo::by_name(name).ok_or_else(|| CliError::new(format!("unknown algorithm `{name}`")))
}

fn cmd_schedule(args: &[String]) -> Result<String, CliError> {
    let mut path: Option<&String> = None;
    let mut p: Option<u32> = None;
    let mut name: Option<&String> = None;
    let mut seq = SeqAlgo::default();
    let mut seed: Option<u64> = None;
    let mut show_gantt = false;
    let mut show_profile = false;
    let mut show_placements = false;
    let mut json = false;
    let mut cap: Option<f64> = None;
    let mut flags = PlatformFlags::new(&["--speeds", "--domains", "--comm"], "N");
    let mut ingest = treesched_trees::IngestOptions::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if flags.read(a, &mut it)? {
            continue;
        }
        match a.as_str() {
            "-p" => {
                p = Some(parse_num(
                    it.next().ok_or_else(|| CliError::new("-p needs N"))?,
                    "N",
                )?)
            }
            "--ordering" => {
                let v = it
                    .next()
                    .ok_or_else(|| CliError::new("--ordering needs natural|amd|rcm"))?;
                ingest.ordering = treesched_trees::OrderingKind::parse(v).ok_or_else(|| {
                    CliError::new(format!(
                        "unknown ordering `{v}` (expected natural, amd or rcm)"
                    ))
                })?;
            }
            "--amalg" => {
                ingest.amalg = parse_num(
                    it.next().ok_or_else(|| CliError::new("--amalg needs N"))?,
                    "--amalg",
                )?;
                if ingest.amalg == 0 {
                    return Err(CliError::new("--amalg must be at least 1"));
                }
            }
            "--scheduler" | "--heuristic" => {
                name = Some(
                    it.next()
                        .ok_or_else(|| CliError::new(format!("{a} needs a name")))?,
                );
            }
            "--seq" => {
                seq = seq_algo_by_name(
                    it.next()
                        .ok_or_else(|| CliError::new("--seq needs best|naive|liu"))?,
                )?;
            }
            "--seed" => {
                seed = Some(parse_num(
                    it.next().ok_or_else(|| CliError::new("--seed needs N"))?,
                    "seed",
                )?);
            }
            "--gantt" => show_gantt = true,
            "--profile" => show_profile = true,
            "--placements" => show_placements = true,
            "--json" => json = true,
            "--cap" => {
                cap = Some(parse_num(
                    it.next()
                        .ok_or_else(|| CliError::new("--cap needs a value"))?,
                    "cap",
                )?);
            }
            other if path.is_none() && !other.starts_with('-') => path = Some(a),
            other => return Err(CliError::new(format!("unexpected argument `{other}`"))),
        }
    }
    let path = path.ok_or_else(|| CliError::new("schedule needs a tree file"))?;
    if p.is_none() && flags.speeds.is_none() {
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
    let (tree, _format) =
        treesched_trees::load(path, ingest).map_err(|e| CliError::new(e.to_string()))?;

    let platform = flags.platform(p, cap)?;
    // scheduler selection: explicit name wins, otherwise a default that
    // can actually serve the platform (see `default_scheduler`)
    let registry = SchedulerRegistry::standard();
    let name = name
        .map(|s| s.as_str())
        .unwrap_or_else(|| default_scheduler(&platform));
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
        return Ok(schedule_json(
            scheduler.name(),
            &platform,
            &tree,
            &outcome,
            ms_lb,
            mem_ref,
        ));
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

/// The stable machine-readable record of `schedule --json`: one JSON
/// object per run, rendered by the shared record builder in
/// [`treesched_serve::jsonl`] (the serving responses reuse the same field
/// conventions, prefixed with the request id).
fn schedule_json(
    name: &str,
    platform: &Platform,
    tree: &TaskTree,
    outcome: &treesched_core::Outcome,
    ms_lb: f64,
    mem_ref: f64,
) -> String {
    treesched_serve::ScheduleRecord {
        scheduler: name,
        platform,
        tasks: tree.len(),
        makespan: outcome.eval.makespan,
        makespan_lower_bound: ms_lb,
        peak_memory: outcome.eval.peak_memory,
        memory_reference: mem_ref,
        cap_violations: outcome.diagnostics.cap_violations,
        domain_peaks: &outcome.domain_peaks,
    }
    .to_json()
}

fn cmd_schedulers(args: &[String]) -> Result<String, CliError> {
    if !args.is_empty() {
        return Err(CliError::new("usage: treesched schedulers"));
    }
    let registry = SchedulerRegistry::standard();
    let mut out = String::from("registered schedulers (* = paper campaign):\n");
    for e in registry.iter() {
        let mark = if e.in_campaign() { "*" } else { " " };
        let _ = writeln!(
            out,
            "{mark} {:<18} {:<28} {}",
            e.name(),
            e.aliases().join(", "),
            e.description()
        );
    }
    out.push_str("\nmemory-capped schedulers need `schedule --cap X`.\n");
    Ok(out)
}

/// The JSONL serving front-end over the serve daemon's engine loop.
///
/// Request records reference tree files by path; each distinct path is
/// loaded once and shared across its requests, so same-tree traffic
/// batches inside the engine. Per-request failures (unreadable tree,
/// protocol errors, typed scheduling errors) become `error` records in the
/// output — one line per input request, in input order, always.
/// `--speeds`/`--domains`/`--comm` set the default platform applied to
/// requests that carry neither `processors` nor a `platform` object.
fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    let mut path: Option<&String> = None;
    let mut flags = PlatformFlags::new(&["--speeds", "--domains", "--comm", "--workers"], "N");
    let mut listen: Option<&String> = None;
    let mut stdio = false;
    let mut accept: Option<u64> = None;
    let mut inflight: Option<usize> = None;
    let mut overload = false;
    let mut metrics_out: Option<&String> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if flags.read(a, &mut it)? {
            continue;
        }
        match a.as_str() {
            "--metrics-out" => {
                metrics_out = Some(
                    it.next()
                        .ok_or_else(|| CliError::new("--metrics-out needs a PATH"))?,
                );
            }
            "--listen" => {
                listen = Some(
                    it.next()
                        .ok_or_else(|| CliError::new("--listen needs a socket PATH"))?,
                );
            }
            "--stdio" => stdio = true,
            "--accept" => {
                accept = Some(parse_num(
                    it.next().ok_or_else(|| CliError::new("--accept needs N"))?,
                    "N",
                )?);
            }
            "--inflight" => {
                let n = parse_num(
                    it.next()
                        .ok_or_else(|| CliError::new("--inflight needs N"))?,
                    "N",
                )?;
                if n == 0 {
                    return Err(CliError::new("--inflight needs at least 1"));
                }
                inflight = Some(n);
            }
            "--overload" => overload = true,
            other if path.is_none() && (other == "-" || !other.starts_with('-')) => path = Some(a),
            other => return Err(CliError::new(format!("unexpected argument `{other}`"))),
        }
    }
    let workers = flags.workers.unwrap_or(1);
    let default_platform = match (flags.speeds, flags.domains, flags.comm) {
        (None, None, None) => None,
        (None, Some(_), _) => {
            return Err(CliError::new("serve --domains needs --speeds"));
        }
        (None, None, Some(_)) => {
            return Err(CliError::new("serve --comm needs --speeds and --domains"));
        }
        (Some(_), _, _) => Some(flags.platform(None, None)?),
    };
    if listen.is_some() || stdio {
        if listen.is_some() && stdio {
            return Err(CliError::new("--listen and --stdio are exclusive"));
        }
        if path.is_some() {
            return Err(CliError::new(
                "daemon modes stream their transport; they take no FILE",
            ));
        }
        let daemon = Daemon::new(
            SchedulerRegistry::standard(),
            DaemonConfig {
                workers,
                inflight_cap: inflight.unwrap_or(64),
                default_platform,
            },
        );
        // blocking backpressure by default; --overload sheds excess lines
        // as typed records instead
        let block = !overload;
        // SIGTERM drains gracefully: the stoppable transports stop taking
        // new work, answer every in-flight line, and return so the final
        // snapshot (if requested) flushes and the process exits 0
        let stop = treesched_transport::signal::term_flag();
        let flush_metrics = |daemon: &Daemon| -> Result<(), CliError> {
            if let Some(path) = metrics_out {
                write_file(path, daemon.metrics_json())?;
            }
            Ok(())
        };
        if let Some(socket) = listen {
            let options = ListenOptions {
                accept: accept.filter(|&n| n > 0),
                block,
            };
            let served = treesched_transport::listen_unix_stoppable(
                &daemon,
                std::path::Path::new(socket),
                options,
                stop,
            )
            .map_err(|e| CliError::new(format!("cannot serve on {socket}: {e}")))?;
            flush_metrics(&daemon)?;
            return Ok(format!("served {served} connections\n"));
        }
        // --stdio: framed responses stream straight to stdout in
        // completion order; nothing is left to print afterwards (the
        // un-lockable Stdin handle is what the drain's detached reader
        // thread needs)
        let stdin = std::io::BufReader::new(std::io::stdin());
        treesched_transport::serve_stdio_stoppable(&daemon, stdin, std::io::stdout(), block, stop)
            .map_err(|e| CliError::new(format!("stdio serve failed: {e}")))?;
        flush_metrics(&daemon)?;
        return Ok(String::new());
    }
    if accept.is_some() || overload || inflight.is_some() {
        return Err(CliError::new(
            "--accept/--inflight/--overload need a daemon mode (--listen or --stdio)",
        ));
    }
    let input = match path.map(|s| s.as_str()) {
        Some("-") | None => {
            let mut buf = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin(), &mut buf)
                .map_err(|e| CliError::new(format!("cannot read stdin: {e}")))?;
            buf
        }
        Some(p) => std::fs::read_to_string(p)
            .map_err(|e| CliError::new(format!("cannot read {p}: {e}")))?,
    };
    let (output, snapshot) = serve_jsonl_with_metrics(&input, workers, default_platform.as_ref());
    if let Some(path) = metrics_out {
        write_file(path, snapshot)?;
    }
    Ok(output)
}

/// Runs one JSONL request stream through a fresh engine and renders the
/// response stream. Split from the `serve` subcommand so tests can drive
/// the exact byte-level protocol without touching stdin.
/// `default_platform` applies to requests that spell no platform of their
/// own (neither `processors` nor a `platform` object).
///
/// The stream is served by the daemon's own engine loop, run in place
/// ([`treesched_transport::serve_batch`]), so a daemon client
/// that stable-sorts its framed responses gets this function's output
/// byte-for-byte, and a `{"op":"metrics"}` line is answered in its slot
/// with a snapshot record, as in the daemon.
pub fn serve_jsonl(input: &str, workers: usize, default_platform: Option<&Platform>) -> String {
    serve_jsonl_with_metrics(input, workers, default_platform).0
}

/// As [`serve_jsonl`], additionally returning the final metrics snapshot
/// as one `{"op":"metrics",...}` JSONL record (the `--metrics-out` body):
/// the daemon's snapshot, with its request/response counters, engine
/// counters, response-latency and schedule-time histograms and stage
/// spans. The response stream is byte-for-byte the [`serve_jsonl`]
/// stream — metrics live entirely outside the response identity (a
/// property test pins this).
pub fn serve_jsonl_with_metrics(
    input: &str,
    workers: usize,
    default_platform: Option<&Platform>,
) -> (String, String) {
    treesched_transport::serve_batch(
        SchedulerRegistry::standard(),
        workers,
        default_platform.cloned(),
        input,
    )
}

/// Client for the daemon's `{"op":"metrics"}` control request: fetches
/// one live snapshot from a `serve --listen` daemon and prints the bare
/// record (frame stripped), newline-terminated.
fn cmd_metrics(args: &[String]) -> Result<String, CliError> {
    const METRICS_USAGE: &str = "usage: treesched metrics PATH";
    let [path] = args else {
        return Err(CliError::new(METRICS_USAGE));
    };
    let input = std::io::Cursor::new("{\"op\":\"metrics\"}\n");
    let mut out = Vec::new();
    treesched_transport::connect_unix(std::path::Path::new(path), input, &mut out, false)
        .map_err(|e| CliError::new(format!("cannot connect to {path}: {e}")))?;
    String::from_utf8(out).map_err(|_| CliError::new("daemon answered with non-UTF8 bytes"))
}

/// Client for a `serve --listen` daemon: JSONL request lines from stdin
/// to the socket, responses to stdout — reconstructed into the exact
/// batch-mode byte stream by default (stable sort on the frame index),
/// or the raw framed completion-order stream with `--raw`.
fn cmd_connect(args: &[String]) -> Result<String, CliError> {
    const CONNECT_USAGE: &str = "usage: treesched connect PATH [--raw]";
    let mut path: Option<&String> = None;
    let mut raw = false;
    for a in args {
        match a.as_str() {
            "--raw" => raw = true,
            other if path.is_none() && !other.starts_with('-') => path = Some(a),
            other => {
                return Err(CliError::new(format!(
                    "unexpected argument `{other}`\n\n{CONNECT_USAGE}"
                )))
            }
        }
    }
    let path = path.ok_or_else(|| CliError::new(CONNECT_USAGE))?;
    let input = std::io::BufReader::new(std::io::stdin());
    treesched_transport::connect_unix(std::path::Path::new(path), input, std::io::stdout(), raw)
        .map_err(|e| CliError::new(format!("cannot connect to {path}: {e}")))?;
    Ok(String::new())
}

fn cmd_pareto(args: &[String]) -> Result<String, CliError> {
    const PARETO_USAGE: &str =
        "usage: treesched pareto FILE -p N [--json] [--speeds L] [--domains D]";
    let mut path: Option<&String> = None;
    let mut p: Option<u32> = None;
    let mut json = false;
    let mut flags = PlatformFlags::new(&["--speeds", "--domains"], "N");
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if flags.read(a, &mut it)? {
            continue;
        }
        match a.as_str() {
            "-p" => {
                p = Some(parse_num(
                    it.next().ok_or_else(|| CliError::new("-p needs N"))?,
                    "N",
                )?)
            }
            "--json" => json = true,
            other if path.is_none() && !other.starts_with('-') => path = Some(a),
            _ => return Err(CliError::new(PARETO_USAGE)),
        }
    }
    let path = path.ok_or_else(|| CliError::new(PARETO_USAGE))?;
    if p.is_none() && flags.speeds.is_none() {
        return Err(CliError::new(PARETO_USAGE));
    }
    let platform = flags.platform(p, None)?;
    // the exact solver enumerates unit-time steps over one shared memory;
    // it accepts any platform spelling of that machine and refuses the rest
    if platform.uniform_speed() != Some(1.0) {
        return Err(CliError::new(
            "the exact frontier requires unit-speed processors (the solver counts unit time steps)",
        ));
    }
    if !platform.has_shared_memory() {
        return Err(CliError::new(
            "the exact frontier requires one shared memory (got multiple domains)",
        ));
    }
    let p = platform.processors();
    let tree = load_tree(path)?;
    if tree.len() > treesched_core::pareto::MAX_PARETO_NODES {
        return Err(CliError::new(format!(
            "tree too large for the exact solver ({} > {} tasks)",
            tree.len(),
            treesched_core::pareto::MAX_PARETO_NODES
        )));
    }
    if tree.ids().any(|i| tree.work(i) != 1.0) {
        return Err(CliError::new(
            "exact frontier requires unit works (pebble trees)",
        ));
    }
    let frontier = treesched_core::pareto_frontier(&tree, p);
    if json {
        // same record conventions as `schedule --json`, via the shared
        // builder — the frontier as (makespan, peak_memory) pairs
        // flattened into parallel arrays
        let makespans: Vec<f64> = frontier.iter().map(|pt| f64::from(pt.makespan)).collect();
        let memories: Vec<f64> = frontier.iter().map(|pt| pt.memory).collect();
        return Ok(treesched_serve::JsonRecord::new()
            .str("command", "pareto")
            .int("processors", u64::from(p))
            .int("tasks", tree.len() as u64)
            .int("points", frontier.len() as u64)
            .num_array("makespans", &makespans)
            .num_array("peak_memories", &memories)
            .line());
    }
    let mut out = format!("exact Pareto frontier, p = {p}:\n");
    let _ = writeln!(out, "  {:>9} {:>12}", "makespan", "peak memory");
    for pt in &frontier {
        let _ = writeln!(out, "  {:>9} {:>12}", pt.makespan, pt.memory);
    }
    Ok(out)
}

const CAMPAIGN_USAGE: &str = "treesched campaign — declarative experiment campaigns

Runs the cross-product of a tree set x schedulers x platform points x
sequential algorithms through the batched serving engine and streams one
JSON record per scenario (typed errors are records too, never aborts).
Output is byte-identical for any --workers count.

  campaign --spec FILE [--workers N]   run a JSON spec file
  campaign --compare OLD.jsonl NEW.jsonl [--tolerance PCT]
                                       compare two campaign dumps as a perf
                                       gate: every field but time_us must be
                                       identical (exit 3 on drift), and the
                                       summed time_us may regress by at most
                                       PCT percent (default 25; exit 1)
  campaign --preset NAME [flags]       one of the paper's reports: table1,
                                       fig6, fig7, fig8, scaling, ablation,
                                       corpus, seqgap. JSONL records plus the
                                       report's summary records on stdout,
                                       the text report on stderr. Defaults
                                       to the medium corpus and --procs
                                       2,4,8,16,32; ablation and seqgap take
                                       only --scale
  campaign [flags]                     build the spec from flags:
    --name N                  campaign name (default: campaign)
    --scale small|medium|large  include the assembly corpus
    --trees F1,F2,...         include explicit v1 tree files
    --trees-file F1,F2,...    include workload files through the tree
                              toolbox (v1, Newick, or MatrixMarket with
                              the default amd ordering; spec files take
                              {\"path\",\"ordering\",\"amalg\",\"name\"} objects
                              under the `trees_file` key for the knobs)
    --procs P1,P2,...         flat platform points
    --speeds C1xS1,...        one extra heterogeneous point
    --domains CAP@CLASSES,... memory domains of that point
    --comm SRC-DST:COST,...   cross-domain transfer costs of that point
    --cap-factor F            per-tree cap = F x sequential peak (all points)
    --schedulers N1,N2,...    registry names/aliases (default: campaign set)
    --seq A1,A2,...           sequential sub-algorithm grid (default: best)
    --seed N                  seed for randomized schedulers
    --metrics M1,M2,...       extra record fields (speedup, utilization,
                              max_domain_peak, time_us)
    --time-reps N             timing repetitions per scenario when time_us
                              is selected (median; default 1)
    --workers N               engine workers (default: auto; output identical)

The spec file form of the same campaign:
  {\"name\":\"mixed\",\"corpus\":\"small\",\"trees\":[\"fork.tree\"],
   \"schedulers\":[\"deepest\",\"cp\"],
   \"platforms\":[{\"processors\":4},
                {\"speeds\":\"2x2.0,2x1.0\",\"domains\":\"1e9@0,1e9@1\",
                 \"comm\":\"0-1:2\"}],
   \"seq\":[\"best\"],\"seed\":7,\"metrics\":[\"speedup\"],\"workers\":4,
   \"time_reps\":5}";

/// The Campaign API front-end: builds a [`treesched_bench::CampaignSpec`]
/// from a JSON spec file or from flags, runs it over the engine-backed
/// [`treesched_bench::CampaignRunner`], and returns the JSONL stream.
/// Scenario failures are typed error *records* in the stream (exit 0),
/// matching the serve protocol; only spec-level problems (unknown
/// scheduler names, unreadable files, bad flags) fail the command.
/// `--preset NAME` hands the flag-built spec to one of the paper's
/// reports in [`treesched_bench::presets`] instead: its text report goes
/// to stderr, and a failed report (unknown scheduler, every scenario
/// failed) exits 1.
fn cmd_campaign(args: &[String]) -> Result<String, CliError> {
    use treesched_bench::{CampaignRunner, CampaignSpec, PlatformPoint};

    let mut spec_file: Option<&String> = None;
    let mut name: Option<&str> = None;
    let mut scale: Option<treesched_gen::Scale> = None;
    let mut trees: Vec<&str> = Vec::new();
    let mut trees_file: Vec<String> = Vec::new();
    let mut procs: Vec<u32> = Vec::new();
    let mut schedulers: Option<Vec<String>> = None;
    let mut cap_factor: Option<f64> = None;
    let mut flags =
        PlatformFlags::new(&["--speeds", "--domains", "--comm", "--workers"], "workers");
    let mut seqs: Option<Vec<SeqAlgo>> = None;
    let mut seed: Option<u64> = None;
    let mut metrics: Vec<treesched_core::Metric> = Vec::new();
    let mut time_reps: Option<u32> = None;
    let mut compare: Option<(String, String)> = None;
    let mut tolerance: Option<f64> = None;
    let mut preset: Option<&'static treesched_bench::presets::Preset> = None;
    // every flag given, for the combination checks below
    let mut given: Vec<&str> = Vec::new();

    let mut it = args.iter();
    while let Some(a) = it.next() {
        given.push(a.as_str());
        if flags.read(a, &mut it)? {
            continue;
        }
        let mut value = |what: &str| -> Result<&String, CliError> {
            it.next()
                .ok_or_else(|| CliError::new(format!("{a} needs {what}")))
        };
        match a.as_str() {
            "--help" | "-h" => return Ok(CAMPAIGN_USAGE.to_string()),
            "--spec" => spec_file = Some(value("a path")?),
            "--preset" => {
                let v = value("a preset name")?;
                preset = Some(treesched_bench::presets::find(v).ok_or_else(|| {
                    let names: Vec<&str> = treesched_bench::presets::PRESETS
                        .iter()
                        .map(|p| p.name)
                        .collect();
                    CliError::new(format!(
                        "unknown preset `{v}` (presets: {})",
                        names.join(", ")
                    ))
                })?);
            }
            "--name" => name = Some(value("a name")?.as_str()),
            "--scale" => {
                scale = Some(match value("small|medium|large")?.as_str() {
                    "small" => treesched_gen::Scale::Small,
                    "medium" => treesched_gen::Scale::Medium,
                    "large" => treesched_gen::Scale::Large,
                    other => return Err(CliError::new(format!("unknown scale `{other}`"))),
                });
            }
            "--trees" => {
                trees.extend(value("tree files")?.split(',').map(str::trim));
            }
            "--trees-file" => {
                trees_file.extend(
                    value("workload files")?
                        .split(',')
                        .map(|s| s.trim().to_string()),
                );
            }
            "--procs" => {
                for p in value("processor counts")?.split(',') {
                    let p: u32 = parse_num(p.trim(), "--procs entry")?;
                    if p == 0 {
                        return Err(CliError::new("--procs needs positive processor counts"));
                    }
                    procs.push(p);
                }
            }
            "--schedulers" => {
                let names: Vec<String> = value("registry names")?
                    .split(',')
                    .map(|s| s.trim().to_string())
                    .filter(|s| !s.is_empty())
                    .collect();
                if names.is_empty() {
                    return Err(CliError::new("--schedulers needs at least one name"));
                }
                schedulers = Some(names);
            }
            "--cap-factor" => {
                let f: f64 = parse_num(value("a factor")?, "--cap-factor")?;
                if !f.is_finite() || f <= 0.0 {
                    return Err(CliError::new(
                        "--cap-factor must be a positive finite number",
                    ));
                }
                cap_factor = Some(f);
            }
            "--seq" => {
                let parsed: Option<Vec<SeqAlgo>> = value("algorithm names")?
                    .split(',')
                    .map(|s| SeqAlgo::by_name(s.trim()))
                    .collect();
                let parsed =
                    parsed.ok_or_else(|| CliError::new("--seq needs best|naive|liu names"))?;
                if parsed.is_empty() {
                    return Err(CliError::new("--seq needs at least one algorithm"));
                }
                seqs = Some(parsed);
            }
            "--seed" => seed = Some(parse_num(value("N")?, "seed")?),
            "--metrics" => {
                for m in value("metric names")?.split(',') {
                    let m = m.trim();
                    metrics.push(
                        treesched_core::Metric::by_name(m)
                            .ok_or_else(|| CliError::new(format!("unknown metric `{m}`")))?,
                    );
                }
            }
            "--time-reps" => {
                let reps: u32 = parse_num(value("N")?, "--time-reps")?;
                if reps == 0 {
                    return Err(CliError::new("--time-reps needs at least 1"));
                }
                time_reps = Some(reps);
            }
            "--compare" => {
                let old = value("OLD.jsonl and NEW.jsonl")?.clone();
                let new = value("NEW.jsonl")?.clone();
                compare = Some((old, new));
            }
            "--tolerance" => {
                let pct: f64 = parse_num(value("a percentage")?, "--tolerance")?;
                if !pct.is_finite() || pct < 0.0 {
                    return Err(CliError::new(
                        "--tolerance must be a non-negative percentage",
                    ));
                }
                tolerance = Some(pct);
            }
            other => {
                return Err(CliError::new(format!(
                    "unexpected argument `{other}`\n\n{CAMPAIGN_USAGE}"
                )))
            }
        }
    }

    let grid_flags = given.iter().any(|f| {
        !matches!(
            *f,
            "--spec" | "--workers" | "--compare" | "--tolerance" | "--preset"
        )
    });
    if let Some(preset) = preset {
        let only_scale = |f: &&str| !preset.grid && !matches!(*f, "--preset" | "--scale");
        if let Some(f) = given
            .iter()
            .find(|f| matches!(**f, "--spec" | "--compare" | "--name") || only_scale(f))
        {
            return Err(CliError::new(format!(
                "--preset {} cannot be combined with {f}",
                preset.name
            )));
        }
        // the reports' defaults: the medium corpus, the paper's processors
        if scale.is_none() && trees.is_empty() && trees_file.is_empty() {
            scale = Some(treesched_gen::Scale::Medium);
        }
        if procs.is_empty() && flags.speeds.is_none() {
            procs = treesched_bench::PAPER_PROCS.to_vec();
        }
        name = Some(preset.name);
    }
    if let Some((old_path, new_path)) = compare {
        if spec_file.is_some() || grid_flags || flags.workers.is_some() {
            return Err(CliError::new(
                "--compare runs no campaign; only --tolerance combines with it",
            ));
        }
        let read = |path: &str| {
            std::fs::read_to_string(path)
                .map_err(|e| CliError::new(format!("cannot read {path}: {e}")))
        };
        let (old, new) = (read(&old_path)?, read(&new_path)?);
        let pct = tolerance.unwrap_or(25.0);
        use treesched_bench::CampaignComparison;
        return match treesched_bench::compare_campaigns(&old, &new, pct).map_err(CliError::new)? {
            CampaignComparison::Ok { old_us, new_us } => Ok(format!(
                "campaign compare: ok — stable fields identical, \
                 time {old_us:.0}us -> {new_us:.0}us (tolerance {pct}%)\n"
            )),
            CampaignComparison::TimingRegression {
                old_us,
                new_us,
                tolerance_pct,
            } => Err(CliError {
                message: format!(
                    "timing regression: {old_us:.0}us -> {new_us:.0}us \
                     (+{:.1}%, tolerance {tolerance_pct}%)",
                    (new_us / old_us - 1.0) * 100.0
                ),
                code: 1,
            }),
            CampaignComparison::StableMismatch { line, detail } => Err(CliError {
                message: format!(
                    "campaigns are not comparable: line {line}: {detail} \
                     (different specs or schedules — refresh the baseline)"
                ),
                code: 3,
            }),
        };
    }
    if tolerance.is_some() {
        return Err(CliError::new("--tolerance needs --compare"));
    }

    let spec = match spec_file {
        Some(path) => {
            if grid_flags {
                return Err(CliError::new(
                    "--spec cannot be combined with spec-building flags (only --workers)",
                ));
            }
            let text = std::fs::read_to_string(path)
                .map_err(|e| CliError::new(format!("cannot read {path}: {e}")))?;
            treesched_bench::spec_from_json(&text)
                .map_err(|e| CliError::new(format!("bad spec {path}: {e}")))?
        }
        None => {
            let mut spec = CampaignSpec::new(name.unwrap_or("campaign"));
            spec.corpus = scale;
            for path in trees {
                spec.trees.push(treesched_gen::CorpusEntry {
                    name: path.to_string(),
                    tree: load_tree(path)?,
                });
            }
            for path in trees_file {
                let (tree, _) = treesched_trees::load(&path, Default::default())
                    .map_err(|e| CliError::new(e.to_string()))?;
                spec.trees
                    .push(treesched_gen::CorpusEntry { name: path, tree });
            }
            for &p in &procs {
                let mut point = PlatformPoint::flat(p);
                if let Some(factor) = cap_factor {
                    point = point.with_cap_factor(factor);
                }
                spec.platforms.push(point);
            }
            match (flags.speeds, flags.domains) {
                (Some(speeds), domains) => {
                    let parsed = Platform::parse_flags(speeds, domains, flags.comm)
                        .map_err(|e| CliError::new(e.to_string()))?;
                    let mut point = PlatformPoint::new(parsed);
                    if let Some(factor) = cap_factor {
                        point = point.with_cap_factor(factor);
                    }
                    spec.platforms.push(point);
                }
                (None, Some(_)) => return Err(CliError::new("--domains needs --speeds")),
                (None, None) => {
                    if flags.comm.is_some() {
                        return Err(CliError::new("--comm needs --speeds and --domains"));
                    }
                }
            }
            if spec.platforms.is_empty() {
                return Err(CliError::new(
                    "campaign needs at least one platform point (--procs or --speeds)",
                ));
            }
            if spec.trees.is_empty() && spec.corpus.is_none() {
                return Err(CliError::new(
                    "campaign needs a tree set (--scale and/or --trees)",
                ));
            }
            spec.schedulers = schedulers;
            if let Some(seqs) = seqs {
                spec.seqs = seqs;
            }
            spec.seed = seed;
            spec.metrics = metrics;
            if let Some(reps) = time_reps {
                spec = spec.with_time_reps(reps);
            }
            spec
        }
    };
    let workers = flags
        .workers
        .or(spec.workers)
        .unwrap_or_else(treesched_bench::default_workers);
    if let Some(preset) = preset {
        // the report goes to stderr, its JSONL to stdout
        return preset
            .run(spec, workers, &mut std::io::stderr())
            .map_err(|message| CliError { message, code: 1 });
    }
    let campaign = CampaignRunner::new(workers)
        .run(&spec)
        .map_err(CliError::sched)?;
    Ok(campaign.to_jsonl())
}

fn cmd_dot(args: &[String]) -> Result<String, CliError> {
    let [path] = args else {
        return Err(CliError::new("usage: treesched dot FILE"));
    };
    let tree = load_tree(path)?;
    Ok(tree_io::to_dot(&tree, path))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(args: &[&str]) -> Result<String, CliError> {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        dispatch(&v)
    }

    fn tmpfile(name: &str) -> String {
        let dir = std::env::temp_dir().join("treesched-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn help_and_unknown_command() {
        assert!(run(&["--help"]).unwrap().contains("usage:"));
        let e = run(&["frobnicate"]).unwrap_err();
        assert!(e.message.contains("unknown command"));
        assert!(run(&[]).is_err());
    }

    #[test]
    fn gen_to_stdout_parses_back() {
        let text = run(&["gen", "fork", "2", "3"]).unwrap();
        let tree = tree_io::from_text(&text).unwrap();
        assert_eq!(tree.len(), 7);
    }

    #[test]
    fn gen_all_kinds() {
        for args in [
            vec!["gen", "chain", "5"],
            vec!["gen", "complete", "2", "3"],
            vec!["gen", "random", "30", "1"],
            vec!["gen", "deep", "30", "1"],
            vec!["gen", "caterpillar", "4", "2"],
            vec!["gen", "spider", "3", "3"],
            vec!["gen", "inapprox", "2", "3"],
            vec!["gen", "gadget", "3", "3"],
            vec!["gen", "longchain", "3", "2"],
            vec!["gen", "assembly", "grid2d", "6", "4"],
            vec!["gen", "assembly", "rand", "50", "2"],
        ] {
            let text = run(&args).unwrap_or_else(|e| panic!("{args:?}: {e}"));
            assert!(tree_io::from_text(&text).is_ok(), "{args:?}");
        }
    }

    #[test]
    fn gen_rejects_bad_params() {
        assert!(run(&["gen", "fork", "2"]).is_err());
        assert!(run(&["gen", "fork", "x", "y"]).is_err());
        assert!(run(&["gen", "nosuch", "1"]).is_err());
        assert!(run(&["gen", "assembly", "nosuch", "5", "1"]).is_err());
    }

    #[test]
    fn end_to_end_via_file() {
        let f = tmpfile("e2e.tree");
        let msg = run(&["gen", "spider", "4", "3", "-o", &f]).unwrap();
        assert!(msg.contains("wrote 13 tasks"));

        let stats = run(&["stats", &f]).unwrap();
        assert!(stats.contains("nodes=13"));

        let sketch = run(&["sketch", &f]).unwrap();
        assert!(sketch.contains("└─"));

        // 4 legs meeting at the root: all leg outputs + in-flight pebble
        let seq = run(&["seq", &f, "--algo", "liu"]).unwrap();
        assert!(seq.contains("peak memory: 5"), "{seq}");

        let sched = run(&[
            "schedule",
            &f,
            "-p",
            "2",
            "--heuristic",
            "deepest",
            "--gantt",
        ])
        .unwrap();
        assert!(sched.contains("makespan:"));
        assert!(sched.contains("p0 |"));

        let pl = run(&["schedule", &f, "-p", "2", "--placements"]).unwrap();
        assert!(pl.contains("task,proc,start,finish"));
        assert_eq!(pl.lines().filter(|l| l.contains(',')).count(), 13 + 1);

        let pareto = run(&["pareto", &f, "-p", "2"]).unwrap();
        assert!(pareto.contains("Pareto frontier"));

        let dot = run(&["dot", &f]).unwrap();
        assert!(dot.starts_with("digraph"));
    }

    #[test]
    fn schedule_with_cap() {
        let f = tmpfile("cap.tree");
        run(&["gen", "complete", "2", "3", "-o", &f]).unwrap();
        let out = run(&["schedule", &f, "-p", "4", "--cap", "5", "--profile"]).unwrap();
        assert!(out.contains("memory-capped"));
        assert!(out.contains("violation(s)"));
        assert!(out.contains("Memory profile"));
        // a greedy capped scheduler honors the flag too
        let out = run(&[
            "schedule",
            &f,
            "-p",
            "4",
            "--cap",
            "5",
            "--scheduler",
            "mem-greedy",
        ])
        .unwrap();
        assert!(out.contains("MemBoundedGreedy"), "{out}");
    }

    #[test]
    fn cap_rejects_noncapped_schedulers_and_nonfinite_values() {
        let f = tmpfile("capmix.tree");
        run(&["gen", "complete", "2", "3", "-o", &f]).unwrap();
        // --cap with a scheduler that ignores it must not silently succeed
        let e = run(&[
            "schedule",
            &f,
            "-p",
            "2",
            "--scheduler",
            "deepest",
            "--cap",
            "5",
        ])
        .unwrap_err();
        assert!(
            e.message.contains("does not enforce --cap"),
            "{}",
            e.message
        );
        // non-finite caps would corrupt the text/JSON record
        for bad in ["inf", "-inf", "nan"] {
            let e = run(&["schedule", &f, "-p", "2", "--cap", bad]).unwrap_err();
            assert!(e.message.contains("finite"), "{bad}: {}", e.message);
        }
    }

    #[test]
    fn schedule_requires_p() {
        let f = tmpfile("nop.tree");
        run(&["gen", "chain", "3", "-o", &f]).unwrap();
        assert!(run(&["schedule", &f]).is_err());
        assert!(run(&["schedule", &f, "-p", "0"]).is_err());
        assert!(run(&["schedule", &f, "-p", "2", "--heuristic", "nosuch"]).is_err());
    }

    #[test]
    fn scheduling_errors_exit_one_usage_errors_exit_two() {
        let f = tmpfile("codes.tree");
        run(&["gen", "chain", "3", "-o", &f]).unwrap();
        // p == 0 is a typed SchedError -> exit 1
        assert_eq!(run(&["schedule", &f, "-p", "0"]).unwrap_err().code, 1);
        assert_eq!(run(&["pareto", &f, "-p", "0"]).unwrap_err().code, 1);
        // capped scheduler without --cap -> exit 1
        let e = run(&["schedule", &f, "-p", "2", "--scheduler", "membound"]).unwrap_err();
        assert_eq!(e.code, 1);
        assert!(e.message.contains("memory cap"), "{}", e.message);
        // unknown scheduler name stays a usage error -> exit 2
        let e = run(&["schedule", &f, "-p", "2", "--scheduler", "nosuch"]).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("known:"), "{}", e.message);
    }

    #[test]
    fn schedule_resolves_registry_aliases() {
        let f = tmpfile("alias.tree");
        run(&["gen", "spider", "4", "3", "-o", &f]).unwrap();
        for (alias, canonical) in [
            ("subtrees", "ParSubtrees"),
            ("optim", "ParSubtreesOptim"),
            ("inner", "ParInnerFirst"),
            ("deepest", "ParDeepestFirst"),
            ("cp", "CpList"),
            ("fifo", "FifoList"),
            ("random", "RandomList"),
        ] {
            let out = run(&["schedule", &f, "-p", "2", "--scheduler", alias]).unwrap();
            assert!(
                out.contains(&format!("scheduler: {canonical}")),
                "{alias}: {out}"
            );
        }
    }

    #[test]
    fn schedulers_lists_the_whole_registry() {
        let out = run(&["schedulers"]).unwrap();
        let registry = SchedulerRegistry::standard();
        for e in registry.iter() {
            assert!(out.contains(e.name()), "missing {}", e.name());
            for a in e.aliases() {
                assert!(out.contains(a), "missing alias {a}");
            }
        }
        assert!(run(&["schedulers", "extra"]).is_err());
    }

    #[test]
    fn schedule_json_emits_stable_record() {
        let f = tmpfile("json.tree");
        run(&["gen", "fork", "2", "3", "-o", &f]).unwrap();
        let out = run(&[
            "schedule",
            &f,
            "-p",
            "2",
            "--scheduler",
            "deepest",
            "--json",
        ])
        .unwrap();
        assert!(
            out.starts_with('{') && out.trim_end().ends_with('}'),
            "{out}"
        );
        for key in [
            "\"scheduler\":\"ParDeepestFirst\"",
            "\"processors\":2",
            "\"tasks\":7",
            "\"makespan\":",
            "\"makespan_lower_bound\":",
            "\"peak_memory\":",
            "\"memory_reference\":",
            "\"cap\":null",
            "\"cap_violations\":null",
        ] {
            assert!(out.contains(key), "missing {key} in {out}");
        }
        // capped run fills the cap fields
        let out = run(&["schedule", &f, "-p", "2", "--cap", "100", "--json"]).unwrap();
        assert!(out.contains("\"scheduler\":\"MemBoundedSeq\""), "{out}");
        assert!(out.contains("\"cap\":100"), "{out}");
        assert!(out.contains("\"cap_violations\":0"), "{out}");
        // json is exclusive with the visual flags
        assert!(run(&["schedule", &f, "-p", "2", "--json", "--gantt"]).is_err());
    }

    #[test]
    fn schedule_seq_and_seed_flags() {
        let f = tmpfile("seqflag.tree");
        run(&["gen", "complete", "2", "4", "-o", &f]).unwrap();
        for algo in ["best", "naive", "liu"] {
            let out = run(&["schedule", &f, "-p", "2", "--seq", algo]).unwrap();
            assert!(out.contains("makespan:"), "{algo}");
        }
        assert!(run(&["schedule", &f, "-p", "2", "--seq", "nosuch"]).is_err());
        let a = run(&[
            "schedule",
            &f,
            "-p",
            "2",
            "--scheduler",
            "random",
            "--seed",
            "1",
        ])
        .unwrap();
        let b = run(&[
            "schedule",
            &f,
            "-p",
            "2",
            "--scheduler",
            "random",
            "--seed",
            "1",
        ])
        .unwrap();
        assert_eq!(a, b, "seeded runs are deterministic");
    }

    #[test]
    fn schedule_uniform_speeds_match_the_flat_spelling_exactly() {
        let f = tmpfile("hetflat.tree");
        run(&["gen", "fork", "2", "3", "-o", &f]).unwrap();
        for extra in [&["--json"][..], &[]] {
            let mut flat = vec!["schedule", &f, "-p", "4", "--scheduler", "deepest"];
            flat.extend_from_slice(extra);
            let mut het = vec![
                "schedule",
                &f,
                "--speeds",
                "4x1.0",
                "--scheduler",
                "deepest",
            ];
            het.extend_from_slice(extra);
            assert_eq!(run(&flat).unwrap(), run(&het).unwrap(), "{extra:?}");
        }
    }

    #[test]
    fn schedule_heterogeneous_speeds_and_domains() {
        let f = tmpfile("het.tree");
        run(&["gen", "fork", "2", "3", "-o", &f]).unwrap();
        let out = run(&[
            "schedule",
            &f,
            "--speeds",
            "2x2.0,2x1.0",
            "--domains",
            "64@0,32@1",
            "--scheduler",
            "deepest",
        ])
        .unwrap();
        assert!(out.contains("processors: 4"), "{out}");
        assert!(
            out.contains("platform: speeds 2x2 + 2x1; domains 64@0, 32@1"),
            "{out}"
        );
        assert!(out.contains("domain peaks: domain 0:"), "{out}");
        // fast processors shorten the fork below its unit-speed makespan
        let flat = run(&["schedule", &f, "-p", "4", "--scheduler", "deepest"]).unwrap();
        let ms = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("makespan:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .unwrap()
                .parse::<f64>()
                .unwrap()
        };
        assert!(ms(&out) < ms(&flat), "het {out} vs flat {flat}");

        // the JSON record carries the platform object and per-domain peaks
        let json = run(&[
            "schedule",
            &f,
            "--speeds",
            "2x2.0,2x1.0",
            "--domains",
            "64@0,32@1",
            "--scheduler",
            "deepest",
            "--json",
        ])
        .unwrap();
        assert!(
            json.contains(
                "\"platform\":{\"classes\":[{\"count\":2,\"speed\":2},{\"count\":2,\"speed\":1}]"
            ),
            "{json}"
        );
        assert!(json.contains("\"domain_peaks\":["), "{json}");

        // the default scheduler for split memory is the capped one, whose
        // text report names per-domain caps instead of one shared cap
        let out = run(&[
            "schedule",
            &f,
            "--speeds",
            "2x2.0,2x1.0",
            "--domains",
            "64@0,32@1",
        ])
        .unwrap();
        assert!(
            out.contains("memory-capped schedule (cap per domain): 0 violation(s)"),
            "{out}"
        );
        assert!(out.contains("domain 1: "), "{out}");
    }

    #[test]
    fn schedule_rejects_bad_platform_flags() {
        let f = tmpfile("hetbad.tree");
        run(&["gen", "fork", "2", "2", "-o", &f]).unwrap();
        // -p contradicting --speeds
        let e = run(&["schedule", &f, "-p", "3", "--speeds", "2x2.0,2x1.0"]).unwrap_err();
        assert!(e.message.contains("contradicts"), "{}", e.message);
        // --cap with --domains
        let e = run(&["schedule", &f, "-p", "2", "--cap", "5", "--domains", "5"]).unwrap_err();
        assert!(e.message.contains("cannot be combined"), "{}", e.message);
        // typed platform validation errors exit 1
        let e = run(&["schedule", &f, "--speeds", "2x0"]).unwrap_err();
        assert_eq!(e.code, 1);
        assert!(e.message.contains("invalid speed"), "{}", e.message);
        let e = run(&["schedule", &f, "--speeds", "2x1.0", "--domains", "5@7"]).unwrap_err();
        assert_eq!(e.code, 1);
        assert!(
            e.message.contains("unknown processor class"),
            "{}",
            e.message
        );
        let e = run(&["schedule", &f, "--speeds", "2x1.0", "--domains", "5@0,6@0"]).unwrap_err();
        assert!(
            e.message.contains("more than one memory domain"),
            "{}",
            e.message
        );
        // unparsable specs are usage errors
        assert!(run(&["schedule", &f, "--speeds", "fast"]).is_err());
        assert!(run(&["schedule", &f, "--speeds", "2x1.0", "--domains", "5@a"]).is_err());
    }

    #[test]
    fn schedule_subtrees_serves_mixed_speeds_and_refuses_comm() {
        let f = tmpfile("hetsub.tree");
        run(&["gen", "fork", "2", "2", "-o", &f]).unwrap();
        // the subtree schedulers place whole subtrees speed-aware now
        let out = run(&[
            "schedule",
            &f,
            "--speeds",
            "1x2.0,1x1.0",
            "--scheduler",
            "subtrees",
        ])
        .unwrap();
        assert!(out.contains("scheduler: ParSubtrees"), "{out}");
        // a scheduler-less mixed-speed run falls back to the speed-aware
        // ParDeepestFirst
        let out = run(&["schedule", &f, "--speeds", "1x2.0,1x1.0"]).unwrap();
        assert!(out.contains("scheduler: ParDeepestFirst"), "{out}");
        // equal non-unit speeds keep the ParSubtrees default: the whole
        // schedule rescales (4 unit-time units on this fork; speed 2 halves it)
        let out = run(&["schedule", &f, "--speeds", "2x2.0"]).unwrap();
        assert!(out.contains("scheduler: ParSubtrees"), "{out}");
        assert!(out.contains("makespan: 2  (lower bound 1.25)"), "{out}");
        // transfer costs are where the subtree schedulers still refuse
        let e = run(&[
            "schedule",
            &f,
            "--speeds",
            "1x1.0,1x1.0",
            "--domains",
            "1e9@0,1e9@1",
            "--comm",
            "0-1:2",
            "--scheduler",
            "subtrees",
        ])
        .unwrap_err();
        assert_eq!(e.code, 1, "{}", e.message);
        assert!(e.message.contains("does not support"), "{}", e.message);
    }

    #[test]
    fn schedule_comm_flag_charges_cross_domain_transfers() {
        let f = tmpfile("commflag.tree");
        run(&["gen", "fork", "2", "1", "-o", &f]).unwrap();
        let base = run(&[
            "schedule",
            &f,
            "--speeds",
            "1x1.0,1x1.0",
            "--domains",
            "1e9@0,1e9@1",
            "--scheduler",
            "deepest",
        ])
        .unwrap();
        let costly = run(&[
            "schedule",
            &f,
            "--speeds",
            "1x1.0,1x1.0",
            "--domains",
            "1e9@0,1e9@1",
            "--comm",
            "0-1:3",
            "--scheduler",
            "deepest",
        ])
        .unwrap();
        assert!(
            costly.contains(
                "platform: speeds 1x1 + 1x1; domains 1000000000@0, 1000000000@1; comm 0-1:3"
            ),
            "{costly}"
        );
        let ms = |s: &str| {
            s.lines()
                .find(|l| l.starts_with("makespan:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .unwrap()
                .parse::<f64>()
                .unwrap()
        };
        // one fork leaf must cross domains and pays output x cost = 1 x 3
        assert_eq!(ms(&costly), ms(&base) + 3.0, "{base} vs {costly}");
        // scheduler-less comm platforms default to the comm-aware list
        // scheduler, and the JSON record round-trips the matrix
        let json = run(&[
            "schedule",
            &f,
            "--speeds",
            "1x1.0,1x1.0",
            "--domains",
            "1e9@0,1e9@1",
            "--comm",
            "0-1:3",
            "--json",
        ])
        .unwrap();
        assert!(json.contains("\"scheduler\":\"ParDeepestFirst\""), "{json}");
        assert!(json.contains("\"comm\":[0,3,3,0]"), "{json}");
        // --comm without domains is the parser's typed out-of-range error
        let e = run(&["schedule", &f, "-p", "2", "--comm", "0-1:3"]).unwrap_err();
        assert!(e.message.contains("only 0 domains"), "{}", e.message);
    }

    #[test]
    fn serve_speeds_flag_sets_the_default_platform() {
        let f = tmpfile("servehet.tree");
        run(&["gen", "fork", "2", "3", "-o", &f]).unwrap();
        let input = format!(
            "{{\"id\":\"default\",\"tree\":\"{f}\",\"scheduler\":\"deepest\"}}\n\
             {{\"id\":\"own\",\"tree\":\"{f}\",\"scheduler\":\"deepest\",\"processors\":2}}\n\
             {{\"id\":\"noname\",\"tree\":\"{f}\"}}\n"
        );
        let req_file = tmpfile("servehet.jsonl");
        std::fs::write(&req_file, &input).unwrap();
        let out = run(&[
            "serve",
            &req_file,
            "--workers",
            "2",
            "--speeds",
            "2x2.0,2x1.0",
        ])
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert!(
            lines[0].contains("\"platform\":{\"classes\":[{\"count\":2,\"speed\":2}"),
            "{}",
            lines[0]
        );
        assert!(
            lines[1].starts_with(
                "{\"id\":\"own\",\"scheduler\":\"ParDeepestFirst\",\"processors\":2,\"tasks\""
            ),
            "{}",
            lines[1]
        );
        // scheduler-less requests on a mixed-speed platform default to the
        // speed-aware ParDeepestFirst, not a refusing ParSubtrees
        assert!(
            lines[2].starts_with("{\"id\":\"noname\",\"scheduler\":\"ParDeepestFirst\""),
            "{}",
            lines[2]
        );
        // without a default platform, the platform-less request errors in place
        let bare = serve_jsonl(&input, 1, None);
        assert!(
            bare.lines()
                .next()
                .unwrap()
                .contains("needs `processors` or a `platform`"),
            "{bare}"
        );
        // --domains alone is a usage error
        assert!(run(&["serve", &req_file, "--domains", "5"]).is_err());
    }

    #[test]
    fn pareto_accepts_unit_speed_platform_spellings_only() {
        let f = tmpfile("parhet.tree");
        run(&["gen", "spider", "4", "3", "-o", &f]).unwrap();
        let flat = run(&["pareto", &f, "-p", "2"]).unwrap();
        assert_eq!(run(&["pareto", &f, "--speeds", "2x1.0"]).unwrap(), flat);
        let e = run(&["pareto", &f, "--speeds", "1x2.0,1x1.0"]).unwrap_err();
        assert!(e.message.contains("unit-speed"), "{}", e.message);
        // a single all-covering domain is still one shared memory: accepted
        let capped = run(&["pareto", &f, "--speeds", "2x1.0", "--domains", "5@0"]).unwrap();
        assert_eq!(capped, flat);
        // genuinely split memory is not
        let e = run(&[
            "pareto",
            &f,
            "--speeds",
            "1x1.0,1x1.0",
            "--domains",
            "5@0,5@1",
        ])
        .unwrap_err();
        assert!(e.message.contains("shared memory"), "{}", e.message);
    }

    #[test]
    fn serve_runs_a_jsonl_stream_in_input_order() {
        let f = tmpfile("serve.tree");
        run(&["gen", "fork", "2", "3", "-o", &f]).unwrap();
        let g = tmpfile("serve2.tree");
        run(&["gen", "chain", "5", "-o", &g]).unwrap();
        let input = format!(
            "{{\"id\":\"a\",\"tree\":\"{f}\",\"scheduler\":\"deepest\",\"processors\":2}}\n\
             {{\"id\":\"b\",\"tree\":\"{g}\",\"processors\":3}}\n\
             \n\
             {{\"id\":\"c\",\"tree\":\"{f}\",\"processors\":4,\"cap\":100}}\n"
        );
        let req_file = tmpfile("serve.jsonl");
        std::fs::write(&req_file, &input).unwrap();
        let out = run(&["serve", &req_file, "--workers", "2"]).unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 3, "{out}");
        assert!(lines[0].starts_with("{\"id\":\"a\",\"scheduler\":\"ParDeepestFirst\""));
        assert!(lines[1].starts_with("{\"id\":\"b\",\"scheduler\":\"ParSubtrees\""));
        // bare cap resolves the capped default, like `schedule --cap`
        assert!(lines[2].starts_with("{\"id\":\"c\",\"scheduler\":\"MemBoundedSeq\""));
        assert!(lines[2].contains("\"cap\":100,\"cap_violations\":0"));
        // responses share the schedule --json schema, id-prefixed
        for key in [
            "\"processors\":",
            "\"tasks\":",
            "\"makespan\":",
            "\"makespan_lower_bound\":",
            "\"peak_memory\":",
            "\"memory_reference\":",
        ] {
            assert!(lines[0].contains(key), "missing {key} in {}", lines[0]);
        }
    }

    #[test]
    fn serve_reports_per_request_errors_in_place() {
        let f = tmpfile("serveerr.tree");
        run(&["gen", "fork", "2", "2", "-o", &f]).unwrap();
        let input = format!(
            "not json\n\
             {{\"id\":\"gone\",\"tree\":\"/nonexistent/x.tree\",\"processors\":2}}\n\
             {{\"id\":\"bad\",\"tree\":\"{f}\",\"scheduler\":\"nosuch\",\"processors\":2}}\n\
             {{\"id\":\"zero\",\"tree\":\"{f}\",\"processors\":0}}\n\
             {{\"id\":\"ok\",\"tree\":\"{f}\",\"processors\":2}}\n"
        );
        let out = serve_jsonl(&input, 2, None);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(
            lines[0].starts_with("{\"id\":null,\"error\":\"bad request on line 1:"),
            "{}",
            lines[0]
        );
        assert!(lines[0].ends_with("\"line\":1}"), "{}", lines[0]);
        assert!(lines[1].starts_with("{\"id\":\"gone\",\"error\":\"cannot read"));
        assert!(
            lines[2].contains("\"error\":\"unknown scheduler `nosuch`"),
            "{}",
            lines[2]
        );
        assert!(lines[3].contains("\"error\":\"platform needs at least one processor\""));
        assert!(lines[4].starts_with("{\"id\":\"ok\",\"scheduler\":\"ParSubtrees\""));
    }

    #[test]
    fn serve_output_is_worker_count_independent() {
        let f = tmpfile("servedet.tree");
        run(&["gen", "complete", "2", "4", "-o", &f]).unwrap();
        let g = tmpfile("servedet2.tree");
        run(&["gen", "spider", "4", "3", "-o", &g]).unwrap();
        let mut input = String::new();
        for round in 0..3 {
            for (k, t) in [&f, &g].iter().enumerate() {
                for s in ["deepest", "inner", "subtrees", "random"] {
                    let _ = writeln!(
                        input,
                        "{{\"id\":\"{round}.{k}.{s}\",\"tree\":\"{t}\",\"scheduler\":\"{s}\",\"processors\":{},\"seed\":9}}",
                        2 + k
                    );
                }
            }
        }
        let reference = serve_jsonl(&input, 1, None);
        for workers in [2usize, 4] {
            assert_eq!(
                serve_jsonl(&input, workers, None),
                reference,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn batch_metrics_out_conserves_requests_and_responses() {
        let f = tmpfile("serveconserve.tree");
        run(&["gen", "fork", "3", "4", "-o", &f]).unwrap();
        let input: String = ["deepest", "inner", "subtrees"]
            .iter()
            .map(|s| format!("{{\"tree\":\"{f}\",\"scheduler\":\"{s}\",\"processors\":2}}\n"))
            .chain([
                "not json\n".to_string(),
                "{\"op\":\"metrics\"}\n".to_string(),
            ])
            .collect();
        let req_file = tmpfile("serveconserve.jsonl");
        std::fs::write(&req_file, &input).unwrap();
        let metrics_file = tmpfile("serveconserve.json");
        let out = run(&[
            "serve",
            &req_file,
            "--workers",
            "2",
            "--metrics-out",
            &metrics_file,
        ])
        .unwrap();
        assert_eq!(out.lines().count(), 5, "{out}");
        let snapshot = std::fs::read_to_string(&metrics_file).unwrap();
        for want in [
            "\"requests_total\":5,\"responses_total\":5",
            "\"malformed_total\":1",
            "\"inflight\":0",
            "\"engine_requests_total\":3",
            "\"worker_lost_total\":0",
            "\"schedule_time_us\":{\"count\":3",
        ] {
            assert!(snapshot.contains(want), "{want} in {snapshot}");
        }
    }

    #[test]
    fn serve_rejects_bad_flags() {
        assert!(run(&["serve", "--workers"]).is_err());
        assert!(run(&["serve", "x.jsonl", "--workers", "0"]).is_err());
        // one OS thread per worker: absurd counts are usage errors, caught
        // before any engine or daemon starts
        for mode in ["x.jsonl", "--stdio"] {
            let e = run(&["serve", mode, "--workers", "257"]).unwrap_err();
            assert_eq!(e.code, 2);
            assert!(e.message.contains("at most 256"), "{}", e.message);
        }
        assert!(run(&["serve", "x.jsonl", "--bogus"]).is_err());
        assert!(run(&["serve", "/nonexistent/x.jsonl"]).is_err());
    }

    #[test]
    fn batch_serve_rejects_daemon_flags_even_at_their_defaults() {
        let input = tmpfile("daemonflags.jsonl");
        std::fs::write(&input, "").unwrap();
        for flags in [
            &["--accept", "0"][..],
            &["--accept", "3"],
            &["--inflight", "64"],
            &["--inflight", "63"],
            &["--overload"],
        ] {
            let e = run(&[&["serve", input.as_str()], flags].concat()).unwrap_err();
            assert!(e.message.contains("need a daemon mode"), "{flags:?}");
        }
        assert_eq!(run(&["serve", &input]).unwrap(), "");
    }

    #[test]
    fn pareto_json_emits_stable_record() {
        let f = tmpfile("paretojson.tree");
        run(&["gen", "spider", "4", "3", "-o", &f]).unwrap();
        let out = run(&["pareto", &f, "-p", "2", "--json"]).unwrap();
        assert!(out.starts_with("{\"command\":\"pareto\",\"processors\":2,\"tasks\":13,"));
        assert!(out.contains("\"points\":"));
        assert!(out.contains("\"makespans\":["));
        assert!(out.contains("\"peak_memories\":["));
        assert!(out.trim_end().ends_with('}'));
        // the text rendering is unchanged
        let text = run(&["pareto", &f, "-p", "2"]).unwrap();
        assert!(text.contains("Pareto frontier"));
        assert!(run(&["pareto", &f, "-p", "2", "--bogus"]).is_err());
    }

    #[test]
    fn pareto_rejects_large_or_weighted() {
        let f = tmpfile("big.tree");
        run(&["gen", "chain", "30", "-o", &f]).unwrap();
        assert!(run(&["pareto", &f, "-p", "2"]).is_err());
        let f2 = tmpfile("weighted.tree");
        run(&["gen", "random", "10", "1", "-o", &f2]).unwrap();
        assert!(run(&["pareto", &f2, "-p", "2"]).is_err());
    }

    #[test]
    fn missing_file_reports_cleanly() {
        let e = run(&["stats", "/nonexistent/x.tree"]).unwrap_err();
        assert!(e.message.contains("cannot read"));
    }

    #[test]
    fn campaign_runs_from_flags_with_errors_as_records() {
        let f = tmpfile("campaign.tree");
        run(&["gen", "fork", "2", "3", "-o", &f]).unwrap();
        let out = run(&[
            "campaign",
            "--trees",
            &f,
            "--procs",
            "2,4",
            "--schedulers",
            "deepest,subtrees",
            "--speeds",
            "1x2.0,1x1.0",
            "--domains",
            "1e9@0,1e9@1",
            "--comm",
            "0-1:2",
            "--metrics",
            "speedup",
            "--workers",
            "2",
        ])
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2 * 3, "{out}");
        assert!(
            lines[0].starts_with(&format!(
                "{{\"campaign\":\"campaign\",\"tree\":\"{f}\",\"point\":\"p2\",\
                 \"seq\":\"best\",\"seed\":null,\"scheduler\":\"ParDeepestFirst\""
            )),
            "{}",
            lines[0]
        );
        assert!(lines[0].contains("\"speedup\":"), "{}", lines[0]);
        // the comm-bearing point: ParSubtrees refuses as a typed record,
        // the run still exits 0 with the other records intact (deepest
        // serves the same point)
        let comm_err = lines
            .iter()
            .find(|l| l.contains("\"error\""))
            .expect("subtrees refuses transfer costs");
        assert!(comm_err.contains("does not support"), "{comm_err}");
        assert!(
            comm_err.contains("\"point\":\"1x2,1x1;1000000000@0,1000000000@1;0-1:2\""),
            "{comm_err}"
        );
        let comm_ok = lines
            .iter()
            .find(|l| l.contains("\"scheduler\":\"ParDeepestFirst\"") && l.contains(";0-1:2\""))
            .expect("deepest serves the comm point");
        assert!(!comm_ok.contains("\"error\""), "{comm_ok}");
        // --comm without the rest of the heterogeneous point is a usage error
        let e = run(&["campaign", "--trees", &f, "--procs", "2", "--comm", "0-1:2"]).unwrap_err();
        assert!(
            e.message.contains("--comm needs --speeds and --domains"),
            "{}",
            e.message
        );
    }

    #[test]
    fn campaign_runs_from_a_spec_file_worker_count_independently() {
        let f = tmpfile("campspec.tree");
        run(&["gen", "complete", "2", "4", "-o", &f]).unwrap();
        let spec = tmpfile("campspec.json");
        std::fs::write(
            &spec,
            format!(
                "{{\"name\":\"filed\",\"trees\":[\"{f}\"],\
                 \"schedulers\":[\"deepest\",\"cp\"],\
                 \"platforms\":[{{\"processors\":2}},{{\"processors\":4,\"cap_factor\":2.0}}],\
                 \"seed\":3}}"
            ),
        )
        .unwrap();
        let reference = run(&["campaign", "--spec", &spec, "--workers", "1"]).unwrap();
        assert_eq!(reference.lines().count(), 4);
        assert!(
            reference.starts_with("{\"campaign\":\"filed\""),
            "{reference}"
        );
        assert!(reference.contains("\"point\":\"p4/cap2\""), "{reference}");
        assert!(reference.contains("\"seed\":3"), "{reference}");
        for workers in ["2", "4"] {
            assert_eq!(
                run(&["campaign", "--spec", &spec, "--workers", workers]).unwrap(),
                reference,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn campaign_accepts_toolbox_workloads_worker_count_independently() {
        let mtx = concat!(env!("CARGO_MANIFEST_DIR"), "/../trees/tests/data/band8.mtx");
        let nwk = concat!(env!("CARGO_MANIFEST_DIR"), "/../trees/tests/data/fork.nwk");
        // the --trees-file flag ingests non-v1 formats straight into the grid
        let reference = run(&[
            "campaign",
            "--trees-file",
            &format!("{mtx},{nwk}"),
            "--procs",
            "2",
            "--schedulers",
            "deepest",
            "--workers",
            "1",
        ])
        .unwrap();
        assert_eq!(reference.lines().count(), 2);
        assert!(reference.contains("\"tasks\":8"), "{reference}");
        for workers in ["2", "4"] {
            assert_eq!(
                run(&[
                    "campaign",
                    "--trees-file",
                    &format!("{mtx},{nwk}"),
                    "--procs",
                    "2",
                    "--schedulers",
                    "deepest",
                    "--workers",
                    workers,
                ])
                .unwrap(),
                reference,
                "workers={workers}"
            );
        }
        // spec files reach the same loader through the `trees_file` key
        let spec = tmpfile("camptoolbox.json");
        std::fs::write(
            &spec,
            format!(
                "{{\"trees_file\":[{{\"path\":\"{mtx}\",\"ordering\":\"amd\",\
                 \"name\":\"band8\"}},\"{nwk}\"],\
                 \"schedulers\":[\"deepest\"],\
                 \"platforms\":[{{\"processors\":2}}]}}"
            ),
        )
        .unwrap();
        let from_spec = run(&["campaign", "--spec", &spec]).unwrap();
        assert_eq!(from_spec.lines().count(), 2);
        assert!(from_spec.contains("\"tree\":\"band8\""), "{from_spec}");
        // unknown keys surface as the typed wording through the CLI wrapper
        std::fs::write(
            &spec,
            "{\"trees_files\":[],\"platforms\":[{\"processors\":2}]}",
        )
        .unwrap();
        let e = run(&["campaign", "--spec", &spec]).unwrap_err();
        assert!(
            e.message.ends_with("unknown spec key `trees_files`"),
            "{}",
            e.message
        );
    }

    #[test]
    fn campaign_rejects_bad_flags_and_specs() {
        let f = tmpfile("campbad.tree");
        run(&["gen", "chain", "3", "-o", &f]).unwrap();
        // no platform points / no tree set
        let e = run(&["campaign", "--trees", &f]).unwrap_err();
        assert!(e.message.contains("platform point"), "{}", e.message);
        let e = run(&["campaign", "--procs", "2"]).unwrap_err();
        assert!(e.message.contains("tree set"), "{}", e.message);
        // bad values
        assert!(run(&["campaign", "--procs", "0", "--trees", &f]).is_err());
        assert!(run(&[
            "campaign",
            "--trees",
            &f,
            "--procs",
            "2",
            "--metrics",
            "magic"
        ])
        .is_err());
        assert!(run(&["campaign", "--trees", &f, "--domains", "5"]).is_err());
        assert!(run(&["campaign", "--workers", "0"]).is_err());
        assert!(run(&["campaign", "--bogus"]).is_err());
        for (flag, value) in [
            ("--scale", "giant"),
            ("--procs", "a,b"),
            ("--schedulers", " , "),
            ("--cap-factor", "0"),
            ("--cap-factor", "inf"),
            ("--cap-factor", "x"),
            ("--seq", "fast"),
            ("--seed", "x"),
            ("--workers", "x"),
            ("--workers", "257"),
        ] {
            let e = run(&["campaign", "--trees", &f, "--procs", "2", flag, value]).unwrap_err();
            assert_eq!(e.code, 2, "{flag} {value}");
        }
        // unknown scheduler names fail the run (exit 2, like schedule)
        let e = run(&[
            "campaign",
            "--trees",
            &f,
            "--procs",
            "2",
            "--schedulers",
            "nosuch",
        ])
        .unwrap_err();
        assert_eq!(e.code, 2);
        // --spec excludes grid flags; unreadable/bad specs report cleanly
        let spec = tmpfile("campbad.json");
        std::fs::write(&spec, "{\"platforms\":[]}").unwrap();
        let e = run(&["campaign", "--spec", &spec, "--procs", "2"]).unwrap_err();
        assert!(e.message.contains("cannot be combined"), "{}", e.message);
        let e = run(&["campaign", "--spec", &spec]).unwrap_err();
        assert!(e.message.contains("bad spec"), "{}", e.message);
        assert!(run(&["campaign", "--spec", "/nonexistent/spec.json"]).is_err());
        // --help prints usage
        assert!(run(&["campaign", "--help"]).unwrap().contains("campaign"));
    }

    #[test]
    fn campaign_grid_flags_reach_the_records() {
        let f = tmpfile("campgrid.tree");
        run(&["gen", "fork", "2", "3", "-o", &f]).unwrap();
        let out = run(&[
            "campaign",
            "--trees",
            &f,
            "--procs",
            "2",
            "--cap-factor",
            "1.5",
            "--schedulers",
            " deepest, cp",
            "--seq",
            "naive,liu",
            "--seed",
            "7",
        ])
        .unwrap();
        assert_eq!(out.lines().count(), 2 * 2, "{out}");
        for field in [
            "\"point\":\"p2/cap1.5\"",
            "\"seq\":\"naive\"",
            "\"seq\":\"liu\"",
            "\"seed\":7",
            "\"scheduler\":\"ParDeepestFirst\"",
        ] {
            assert!(out.contains(field), "{field}: {out}");
        }
        // without --schedulers the registry's campaign set runs
        let out = run(&["campaign", "--trees", &f, "--procs", "2"]).unwrap();
        assert_eq!(out.lines().count(), 4, "{out}");
        for name in [
            "ParSubtrees",
            "ParSubtreesOptim",
            "ParInnerFirst",
            "ParDeepestFirst",
        ] {
            assert!(out.contains(&format!("\"scheduler\":\"{name}\"")), "{out}");
        }
    }

    #[test]
    fn campaign_emits_time_us_only_when_selected() {
        let f = tmpfile("camptime.tree");
        run(&["gen", "fork", "2", "3", "-o", &f]).unwrap();
        let base = [
            "campaign",
            "--trees",
            &f,
            "--procs",
            "2",
            "--schedulers",
            "deepest",
        ];
        let plain = run(&base).unwrap();
        assert!(!plain.contains("time_us"), "{plain}");
        let mut timed = base.to_vec();
        timed.extend_from_slice(&["--metrics", "time_us", "--time-reps", "3"]);
        let timed = run(&timed).unwrap();
        assert!(timed.contains("\"time_us\":"), "{timed}");
        assert!(run(&["campaign", "--time-reps", "0"]).is_err());
    }

    #[test]
    fn campaign_compare_gates_timing_and_flags_stable_drift() {
        let old = tmpfile("cmp_old.jsonl");
        let fast = tmpfile("cmp_fast.jsonl");
        let slow = tmpfile("cmp_slow.jsonl");
        let drift = tmpfile("cmp_drift.jsonl");
        std::fs::write(&old, "{\"makespan\":3,\"time_us\":100}\n").unwrap();
        std::fs::write(&fast, "{\"makespan\":3,\"time_us\":110}\n").unwrap();
        std::fs::write(&slow, "{\"makespan\":3,\"time_us\":200}\n").unwrap();
        std::fs::write(&drift, "{\"makespan\":4,\"time_us\":100}\n").unwrap();
        // within the default 25% tolerance
        let out = run(&["campaign", "--compare", &old, &fast]).unwrap();
        assert!(out.contains("ok"), "{out}");
        // beyond tolerance -> exit 1 with the percentages spelled out
        let e = run(&["campaign", "--compare", &old, &slow]).unwrap_err();
        assert_eq!(e.code, 1);
        assert!(e.message.contains("timing regression"), "{}", e.message);
        // a generous tolerance admits it
        let out = run(&["campaign", "--compare", &old, &slow, "--tolerance", "150"]).unwrap();
        assert!(out.contains("ok"), "{out}");
        // drift in a stable field is exit 3 however large the tolerance
        let e = run(&[
            "campaign",
            "--compare",
            &old,
            &drift,
            "--tolerance",
            "1000000",
        ])
        .unwrap_err();
        assert_eq!(e.code, 3);
        assert!(e.message.contains("makespan"), "{}", e.message);
        // flag validation
        assert!(run(&["campaign", "--compare", &old]).is_err());
        assert!(run(&["campaign", "--compare", &old, &fast, "--procs", "2"]).is_err());
        assert!(run(&["campaign", "--tolerance", "10"]).is_err());
        assert!(run(&["campaign", "--compare", &old, "/nonexistent.jsonl"]).is_err());
    }
}
