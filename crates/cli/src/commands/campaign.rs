//! `campaign` — the Campaign API front-end: builds a
//! [`treesched_bench::CampaignSpec`] from a JSON spec file or from flags,
//! runs it over the engine-backed [`treesched_bench::CampaignRunner`], and
//! returns the JSONL stream.
//!
//! Scenario failures are typed error *records* in the stream (exit 0),
//! matching the serve protocol; only spec-level problems (unknown
//! scheduler names, unreadable files, bad flags) fail the command.
//! `--preset NAME` hands the flag-built spec to one of the paper's
//! reports in [`treesched_bench::presets`] instead: its text report goes
//! to stderr, and a failed report (unknown scheduler, every scenario
//! failed) exits 1.

use super::{load_input, load_tree, parse_num, read_file};
use crate::args::parse_common;
use crate::CliError;
use treesched_bench::{CampaignComparison, CampaignRunner, CampaignSpec, PlatformPoint};
use treesched_core::{Metric, Platform, SeqAlgo};
use treesched_gen::Scale;

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

/// Value flags of `campaign`. `--compare` takes OLD here; NEW is the one
/// positional argument the command accepts.
const VALUE_FLAGS: &str = "--spec --preset --name --scale --trees --trees-file --procs \
                           --schedulers --cap-factor --seq --seed --metrics --time-reps \
                           --compare --tolerance --speeds --domains --comm --workers";

pub(crate) fn execute(args: &[String]) -> Result<String, CliError> {
    let common = parse_common(args, VALUE_FLAGS, "--help -h", CAMPAIGN_USAGE)?;
    if common.switch("--help") || common.switch("-h") {
        return Ok(CAMPAIGN_USAGE.to_string());
    }
    // comma lists, every occurrence of the flag, entries trimmed
    let list = |flag: &'static str| {
        common
            .values(flag)
            .flat_map(|v| v.split(','))
            .map(str::trim)
            .collect::<Vec<&str>>()
    };
    let compare = match (common.value("--compare"), common.positional.as_slice()) {
        (None, []) => None,
        (Some(old), [new]) => Some((old, new.as_str())),
        (Some(_), []) => {
            return Err(CliError::new("--compare needs OLD.jsonl and NEW.jsonl"));
        }
        (Some(_), [_, extra, ..]) | (None, [extra, ..]) => {
            return Err(CliError::new(format!(
                "unexpected argument `{extra}`\n\n{CAMPAIGN_USAGE}"
            )))
        }
    };
    let preset = match common.value("--preset") {
        Some(v) => Some(treesched_bench::presets::find(v).ok_or_else(|| {
            let names: Vec<&str> = treesched_bench::presets::PRESETS
                .iter()
                .map(|p| p.name)
                .collect();
            CliError::new(format!(
                "unknown preset `{v}` (presets: {})",
                names.join(", ")
            ))
        })?),
        None => None,
    };
    let mut scale = match common.value("--scale") {
        Some("small") => Some(Scale::Small),
        Some("medium") => Some(Scale::Medium),
        Some("large") => Some(Scale::Large),
        Some(other) => return Err(CliError::new(format!("unknown scale `{other}`"))),
        None => None,
    };
    let trees = list("--trees");
    let trees_file = list("--trees-file");
    let mut procs: Vec<u32> = Vec::new();
    for p in list("--procs") {
        let p: u32 = parse_num(p, "--procs entry")?;
        if p == 0 {
            return Err(CliError::new("--procs needs positive processor counts"));
        }
        procs.push(p);
    }
    let schedulers = match common.value("--schedulers") {
        Some(v) => {
            let names: Vec<String> = v
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            if names.is_empty() {
                return Err(CliError::new("--schedulers needs at least one name"));
            }
            Some(names)
        }
        None => None,
    };
    let cap_factor: Option<f64> = common.num("--cap-factor", "--cap-factor")?;
    if cap_factor.is_some_and(|f| !f.is_finite() || f <= 0.0) {
        return Err(CliError::new(
            "--cap-factor must be a positive finite number",
        ));
    }
    let seqs = match common.value("--seq") {
        Some(v) => {
            let parsed: Option<Vec<SeqAlgo>> =
                v.split(',').map(|s| SeqAlgo::by_name(s.trim())).collect();
            let parsed = parsed.ok_or_else(|| CliError::new("--seq needs best|naive|liu names"))?;
            if parsed.is_empty() {
                return Err(CliError::new("--seq needs at least one algorithm"));
            }
            Some(parsed)
        }
        None => None,
    };
    let seed: Option<u64> = common.num("--seed", "seed")?;
    let metrics = list("--metrics")
        .into_iter()
        .map(|m| Metric::by_name(m).ok_or_else(|| CliError::new(format!("unknown metric `{m}`"))))
        .collect::<Result<Vec<Metric>, CliError>>()?;
    let time_reps: Option<u32> = common.num("--time-reps", "--time-reps")?;
    if time_reps == Some(0) {
        return Err(CliError::new("--time-reps needs at least 1"));
    }
    let tolerance: Option<f64> = common.num("--tolerance", "--tolerance")?;
    if tolerance.is_some_and(|pct| !pct.is_finite() || pct < 0.0) {
        return Err(CliError::new(
            "--tolerance must be a non-negative percentage",
        ));
    }
    let (speeds, domains, comm) = (
        common.value("--speeds"),
        common.value("--domains"),
        common.value("--comm"),
    );

    let grid_flags = common.flags().any(|f| {
        !matches!(
            f,
            "--spec" | "--workers" | "--compare" | "--tolerance" | "--preset"
        )
    });
    let mut name = common.value("--name");
    if let Some(preset) = preset {
        let only_scale = |f: &str| !preset.grid && !matches!(f, "--preset" | "--scale");
        if let Some(f) = common
            .flags()
            .find(|&f| matches!(f, "--spec" | "--compare" | "--name") || only_scale(f))
        {
            return Err(CliError::new(format!(
                "--preset {} cannot be combined with {f}",
                preset.name
            )));
        }
        // the reports' defaults: the medium corpus, the paper's processors
        if scale.is_none() && trees.is_empty() && trees_file.is_empty() {
            scale = Some(Scale::Medium);
        }
        if procs.is_empty() && speeds.is_none() {
            procs = treesched_bench::PAPER_PROCS.to_vec();
        }
        name = Some(preset.name);
    }
    if let Some((old_path, new_path)) = compare {
        if common.value("--spec").is_some() || grid_flags || common.workers.is_some() {
            return Err(CliError::new(
                "--compare runs no campaign; only --tolerance combines with it",
            ));
        }
        let (old, new) = (read_file(old_path)?, read_file(new_path)?);
        let pct = tolerance.unwrap_or(25.0);
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

    let spec = match common.value("--spec") {
        Some(path) => {
            if grid_flags {
                return Err(CliError::new(
                    "--spec cannot be combined with spec-building flags (only --workers)",
                ));
            }
            treesched_bench::spec_from_json(&read_file(path)?)
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
                let (tree, _) = load_input(path, Default::default())?;
                spec.trees.push(treesched_gen::CorpusEntry {
                    name: path.to_string(),
                    tree,
                });
            }
            for &p in &procs {
                let mut point = PlatformPoint::flat(p);
                if let Some(factor) = cap_factor {
                    point = point.with_cap_factor(factor);
                }
                spec.platforms.push(point);
            }
            match (speeds, domains) {
                (Some(speeds), domains) => {
                    let parsed = Platform::parse_flags(speeds, domains, comm)
                        .map_err(|e| CliError::new(e.to_string()))?;
                    let mut point = PlatformPoint::new(parsed);
                    if let Some(factor) = cap_factor {
                        point = point.with_cap_factor(factor);
                    }
                    spec.platforms.push(point);
                }
                (None, Some(_)) => return Err(CliError::new("--domains needs --speeds")),
                (None, None) => {
                    if comm.is_some() {
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
    let workers = common
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
