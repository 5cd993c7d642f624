//! The Campaign API: declarative experiment specs executed over the
//! batched serving engine.
//!
//! A [`CampaignSpec`] names a cross-product of scenarios — a tree set
//! (assembly corpus and/or explicit trees) × a scheduler selection
//! (resolved through the [`SchedulerRegistry`], defaulting to its
//! `campaign` set) × a grid of [`PlatformPoint`]s (flat processor counts,
//! heterogeneous `--speeds`/`--domains` shapes, per-tree memory-cap
//! factors) × sequential sub-algorithms × an optional seed, plus an extra
//! [`Metric`] selection. The [`CampaignRunner`] executes the whole product
//! through [`treesched_serve::ServeEngine`], so campaign traffic
//! parallelizes across workers and reuses warm per-worker
//! [`treesched_core::Scratch`] buffers exactly like serving traffic — and,
//! because the engine orders results by submission index, the output is
//! byte-identical for any worker count.
//!
//! Every scenario becomes one [`CampaignRecord`]: either measurements
//! (rendered as a one-line JSON record through the shared
//! [`treesched_serve::JsonRecord`] builder, field-compatible with
//! `schedule --json` and the serving responses) or a typed
//! [`SchedError`] — errors are data in the stream, never panics. The
//! paper's reports ([`crate::presets`]) build a spec, run it, and
//! aggregate the records; `treesched campaign` exposes the same
//! engine-backed runner on the command line, from flags, a JSON spec file
//! or a `--preset`.

use crate::harness::Row;
use std::sync::Arc;
use treesched_core::{memory_reference, Metric, Platform, SchedError, SchedulerRegistry, SeqAlgo};
use treesched_gen::{assembly_corpus, CorpusEntry, Scale};
use treesched_model::TaskTree;
use treesched_serve::{
    platform_json, JsonRecord, ScheduleRecord, ServeEngine, ServeRequest, ServeStats, MAX_WORKERS,
};

// ---------------------------------------------------------------------------
// Spec
// ---------------------------------------------------------------------------

/// One platform of a campaign grid: a platform plus an optional per-tree
/// memory-cap factor, under a stable label that tags every record produced
/// at this point.
#[derive(Clone, Debug, PartialEq)]
pub struct PlatformPoint {
    /// Label tagging the point's records (`point` field), e.g. `p4` or
    /// `2x2,2x1;1000000000@0,1000000000@1`.
    pub label: String,
    /// The platform (classes + domains with absolute capacities).
    pub platform: Platform,
    /// Per-tree memory cap as a multiple of the tree's sequential
    /// reference peak: a point without domains gains one shared cap of
    /// `factor × M_seq(tree)`; a point with domains has each domain's
    /// capacity replaced by `factor × M_seq(tree)` (absolute capacities
    /// are meaningless across a corpus of differently sized trees).
    pub cap_factor: Option<f64>,
}

impl PlatformPoint {
    /// The paper's flat machine point: `p` unit-speed processors, label
    /// `p{p}`.
    pub fn flat(p: u32) -> PlatformPoint {
        PlatformPoint {
            label: format!("p{p}"),
            platform: Platform::new(p),
            cap_factor: None,
        }
    }

    /// A point on `platform`, labeled with its flag spelling
    /// (`SPEEDS[;DOMAINS[;COMM]]`, see [`Platform::flag_strings`]).
    pub fn new(platform: Platform) -> PlatformPoint {
        let (speeds, domains, comm) = platform.flag_strings();
        let mut label = speeds;
        for part in [domains, comm].into_iter().flatten() {
            label = format!("{label};{part}");
        }
        PlatformPoint {
            label,
            platform,
            cap_factor: None,
        }
    }

    /// Returns the point with a per-tree memory-cap factor; the label
    /// gains a `/cap{factor}` suffix.
    pub fn with_cap_factor(mut self, factor: f64) -> PlatformPoint {
        self.label = format!("{}/cap{factor}", self.label);
        self.cap_factor = Some(factor);
        self
    }

    /// The concrete platform this point means for a tree whose sequential
    /// reference peak is `mem_ref` (see [`PlatformPoint::cap_factor`]).
    pub fn resolve(&self, mem_ref: f64) -> Platform {
        let platform = &self.platform;
        match self.cap_factor {
            None => platform.clone(),
            Some(factor) if platform.domains().is_empty() => {
                platform.clone().with_memory_cap(factor * mem_ref)
            }
            Some(factor) => {
                // rebuild with each domain's capacity rescaled; the comm
                // matrix indexes the same domains, so it carries over
                let mut scaled = Platform::heterogeneous(platform.classes().to_vec());
                for d in platform.domains() {
                    scaled = scaled.with_domain(factor * mem_ref, &d.classes);
                }
                scaled.with_comm(platform.comm().to_vec())
            }
        }
    }
}

/// A declarative experiment campaign: the full cross-product of scenarios
/// to run, plus an extra metric selection. See the [module docs](self) for
/// the execution model and [`crate::presets`] for the specs behind the
/// paper's tables and figures.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// Campaign name, echoed as the `campaign` field of every record.
    pub name: String,
    /// Assembly corpus to include in the tree set, if any.
    pub corpus: Option<Scale>,
    /// Explicit trees to include (before the corpus, in order).
    pub trees: Vec<CorpusEntry>,
    /// Scheduler registry names or aliases; `None` means the registry's
    /// `campaign` set. Unknown names fail the whole run, typed.
    pub schedulers: Option<Vec<String>>,
    /// The platform grid.
    pub platforms: Vec<PlatformPoint>,
    /// Sequential sub-algorithm grid (never empty; default
    /// `[SeqAlgo::default()]`).
    pub seqs: Vec<SeqAlgo>,
    /// Seed for randomized schedulers.
    pub seed: Option<u64>,
    /// Extra metrics appended to each record (beyond the always-present
    /// schedule fields; `makespan`, `peak_memory` and `cap_violations`
    /// are already in the base record and are skipped here).
    pub metrics: Vec<Metric>,
    /// Worker-count hint for front-ends building a runner from the spec
    /// (`None` = pick automatically). The output never depends on it.
    pub workers: Option<usize>,
    /// Timing repetitions per scenario when [`Metric::TimeUs`] is selected
    /// (median-of-reps on a warm scratch); ignored otherwise. Never 0.
    pub time_reps: u32,
}

impl CampaignSpec {
    /// An empty campaign named `name`: no trees, the registry's campaign
    /// scheduler set, no platform points, the default sequential
    /// sub-algorithm.
    pub fn new(name: impl Into<String>) -> CampaignSpec {
        CampaignSpec {
            name: name.into(),
            corpus: None,
            trees: Vec::new(),
            schedulers: None,
            platforms: Vec::new(),
            seqs: vec![SeqAlgo::default()],
            seed: None,
            metrics: Vec::new(),
            workers: None,
            time_reps: 1,
        }
    }

    /// Includes the assembly corpus at `scale` in the tree set.
    pub fn with_corpus(mut self, scale: Scale) -> CampaignSpec {
        self.corpus = Some(scale);
        self
    }

    /// Adds one explicit named tree.
    pub fn with_tree(mut self, name: impl Into<String>, tree: TaskTree) -> CampaignSpec {
        self.trees.push(CorpusEntry {
            name: name.into(),
            tree,
        });
        self
    }

    /// Sets the scheduler selection (registry names or aliases).
    pub fn with_schedulers(mut self, names: Vec<String>) -> CampaignSpec {
        self.schedulers = Some(names);
        self
    }

    /// Adds a flat platform point per processor count.
    pub fn with_procs(mut self, ps: &[u32]) -> CampaignSpec {
        self.platforms
            .extend(ps.iter().map(|&p| PlatformPoint::flat(p)));
        self
    }

    /// Adds one platform point.
    pub fn with_platform(mut self, point: PlatformPoint) -> CampaignSpec {
        self.platforms.push(point);
        self
    }

    /// Sets the sequential sub-algorithm grid.
    pub fn with_seqs(mut self, seqs: Vec<SeqAlgo>) -> CampaignSpec {
        self.seqs = seqs;
        self
    }

    /// Sets the seed for randomized schedulers.
    pub fn with_seed(mut self, seed: u64) -> CampaignSpec {
        self.seed = Some(seed);
        self
    }

    /// Sets the extra metric selection.
    pub fn with_metrics(mut self, metrics: Vec<Metric>) -> CampaignSpec {
        self.metrics = metrics;
        self
    }

    /// Sets the timing repetitions per scenario (clamped to at least 1);
    /// only consulted when [`Metric::TimeUs`] is part of the selection.
    pub fn with_time_reps(mut self, reps: u32) -> CampaignSpec {
        self.time_reps = reps.max(1);
        self
    }

    /// Ensures `name` (canonically) is part of the scheduler selection —
    /// the figure presets use this to force their normalization baseline
    /// in. Returns whether the selection had to be extended. An explicit
    /// selection with an unknown name is left alone (the runner will
    /// surface the typed error).
    pub fn ensure_scheduler(&mut self, registry: &SchedulerRegistry, name: &str) -> bool {
        let Some(names) = &mut self.schedulers else {
            // the default campaign set: membership is the registry's call
            return false;
        };
        let canonical = registry.resolve(name).map(|e| e.name());
        let present = names
            .iter()
            .any(|n| registry.resolve(n).map(|e| e.name()) == canonical);
        if !present {
            names.push(name.to_string());
        }
        !present
    }

    /// The scheduler names the campaign will run: the explicit selection,
    /// or the registry's campaign set.
    pub fn scheduler_names(&self, registry: &SchedulerRegistry) -> Vec<String> {
        match &self.schedulers {
            Some(names) => names.clone(),
            None => registry.campaign().map(|e| e.name().to_string()).collect(),
        }
    }

    /// Materializes the tree set: explicit trees first, then the corpus.
    pub fn resolve_trees(&self) -> Vec<CorpusEntry> {
        let mut trees = self.trees.clone();
        if let Some(scale) = self.corpus {
            trees.extend(assembly_corpus(scale));
        }
        trees
    }

    /// Number of scenarios the spec describes (records a run will produce).
    pub fn scenarios(&self, registry: &SchedulerRegistry) -> usize {
        self.resolve_trees().len()
            * self.platforms.len()
            * self.seqs.len()
            * self.scheduler_names(registry).len()
    }
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

/// The measurements of one successful scenario.
#[derive(Clone, Debug)]
pub struct CampaignOutcome {
    /// Achieved makespan.
    pub makespan: f64,
    /// Achieved platform-global peak memory.
    pub peak_memory: f64,
    /// Makespan lower bound of the scenario (speed-aware).
    pub ms_lb: f64,
    /// Sequential memory reference of the tree.
    pub mem_ref: f64,
    /// Forced cap admissions (memory-capped schedulers only).
    pub cap_violations: Option<usize>,
    /// Peak memory per platform domain (empty for flat platforms).
    pub domain_peaks: Vec<f64>,
    /// The spec's extra metric selection, in selection order; `None` when
    /// the outcome does not carry the metric.
    pub metrics: Vec<(Metric, Option<f64>)>,
}

/// One scenario of a campaign run: its coordinates plus either the
/// measurements or the typed error the scheduler returned.
#[derive(Clone, Debug)]
pub struct CampaignRecord {
    /// Tree name (corpus entry name or explicit tree name).
    pub tree: String,
    /// Number of tasks of the tree.
    pub nodes: usize,
    /// Label of the platform point ([`PlatformPoint::label`]).
    pub point: String,
    /// The concrete platform of the scenario (per-tree cap applied).
    pub platform: Platform,
    /// Canonical scheduler name.
    pub scheduler: String,
    /// Sequential sub-algorithm of the scenario.
    pub seq: SeqAlgo,
    /// Seed of the scenario, if the spec set one.
    pub seed: Option<u64>,
    /// Measurements, or the typed scheduling error.
    pub outcome: Result<CampaignOutcome, SchedError>,
}

impl CampaignRecord {
    /// Renders the record as its one-line JSON form: the scenario
    /// coordinates (`campaign`, `tree`, `point`, `seq`, `seed`) followed —
    /// for successes — by the exact field set of `schedule --json` (via
    /// the shared [`ScheduleRecord`] builder) and the extra metrics, or —
    /// for failures — by `scheduler`/`processors`/`platform` and the typed
    /// `error` message.
    pub fn to_json(&self, campaign: &str) -> String {
        let rec = JsonRecord::new()
            .str("campaign", campaign)
            .str("tree", &self.tree)
            .str("point", &self.point)
            .str("seq", self.seq.name())
            .opt_int("seed", self.seed);
        match &self.outcome {
            Ok(out) => {
                let mut rec = ScheduleRecord {
                    scheduler: &self.scheduler,
                    platform: &self.platform,
                    tasks: self.nodes,
                    makespan: out.makespan,
                    makespan_lower_bound: out.ms_lb,
                    peak_memory: out.peak_memory,
                    memory_reference: out.mem_ref,
                    cap_violations: out.cap_violations,
                    domain_peaks: &out.domain_peaks,
                }
                .embed(rec);
                for (metric, value) in &out.metrics {
                    rec = rec.opt_num(metric.name(), *value);
                }
                rec.line()
            }
            Err(e) => {
                let mut rec = rec
                    .str("scheduler", &self.scheduler)
                    .int("processors", u64::from(self.platform.processors()));
                if !self.platform.is_flat() {
                    rec = rec.raw("platform", &platform_json(&self.platform));
                }
                rec.str("error", &e.to_string()).line()
            }
        }
    }
}

/// The result of one campaign run: every scenario record, in the spec's
/// deterministic cross-product order (worker-count independent).
#[derive(Clone, Debug)]
pub struct Campaign {
    /// Campaign name (from the spec).
    pub name: String,
    /// One record per scenario.
    pub records: Vec<CampaignRecord>,
    /// Engine counters accumulated over this run.
    pub stats: ServeStats,
}

impl Campaign {
    /// The whole run as JSONL, one record per line.
    pub fn to_jsonl(&self) -> String {
        self.records.iter().map(|r| r.to_json(&self.name)).collect()
    }

    /// The error records of the run.
    pub fn errors(&self) -> impl Iterator<Item = (&CampaignRecord, &SchedError)> {
        self.records
            .iter()
            .filter_map(|r| r.outcome.as_ref().err().map(|e| (r, e)))
    }

    /// Successful records as harness [`Row`]s for the table/figure
    /// aggregations; error records are skipped.
    pub fn rows(&self) -> Vec<Row> {
        self.records
            .iter()
            .filter_map(|r| {
                let out = r.outcome.as_ref().ok()?;
                Some(Row {
                    tree: r.tree.clone(),
                    nodes: r.nodes,
                    p: r.platform.processors(),
                    point: r.point.clone(),
                    seq: r.seq.name().to_string(),
                    scheduler: r.scheduler.clone(),
                    makespan: out.makespan,
                    memory: out.peak_memory,
                    ms_lb: out.ms_lb,
                    mem_ref: out.mem_ref,
                })
            })
            .collect()
    }

    /// Number of distinct trees the run covered.
    pub fn tree_count(&self) -> usize {
        let mut seen = std::collections::HashSet::new();
        self.records
            .iter()
            .filter(|r| seen.insert(r.tree.as_str()))
            .count()
    }

    /// As [`Campaign::rows`], but failing on the first error record — the
    /// contract of the old all-or-nothing harness loop.
    pub fn strict_rows(&self) -> Result<Vec<Row>, SchedError> {
        if let Some((_, e)) = self.errors().next() {
            return Err(e.clone());
        }
        Ok(self.rows())
    }
}

// ---------------------------------------------------------------------------
// Runner
// ---------------------------------------------------------------------------

/// A sensible engine worker count for campaign runs on this machine. The
/// output never depends on it.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8)
}

/// Executes [`CampaignSpec`]s over a [`ServeEngine`]. The runner is
/// long-lived: consecutive runs (the ablation studies, a figure series)
/// share the engine's workers and their warm scratch buffers.
pub struct CampaignRunner {
    registry: Arc<SchedulerRegistry>,
    engine: ServeEngine,
}

impl CampaignRunner {
    /// A runner over the standard registry with `workers` engine workers.
    pub fn new(workers: usize) -> CampaignRunner {
        CampaignRunner::over(Arc::new(SchedulerRegistry::standard()), workers)
    }

    /// A runner over a shared registry — custom schedulers registered with
    /// `campaign = true` join every default-selection campaign.
    pub fn over(registry: Arc<SchedulerRegistry>, workers: usize) -> CampaignRunner {
        let engine = ServeEngine::with_registry(Arc::clone(&registry), workers);
        CampaignRunner { registry, engine }
    }

    /// The registry the runner resolves schedulers from.
    pub fn registry(&self) -> &SchedulerRegistry {
        &self.registry
    }

    /// Runs the spec's full cross-product and returns one record per
    /// scenario, in cross-product order (trees × platform points ×
    /// sequential algorithms × schedulers). Unknown scheduler names fail
    /// the whole run; every per-scenario failure (unsupported platform,
    /// missing cap, invalid platform) is an error *record*.
    pub fn run(&mut self, spec: &CampaignSpec) -> Result<Campaign, SchedError> {
        let names: Vec<&'static str> = spec
            .scheduler_names(&self.registry)
            .iter()
            .map(|n| self.registry.resolve(n).map(|e| e.name()))
            .collect::<Result<_, _>>()?;
        let extra: Vec<Metric> = spec
            .metrics
            .iter()
            .copied()
            .filter(|m| {
                // already in the base record: selecting them again would
                // duplicate JSON keys
                !matches!(
                    m,
                    Metric::Makespan | Metric::PeakMemory | Metric::CapViolations
                )
            })
            .collect();
        let timed = extra.contains(&Metric::TimeUs);
        let trees = spec.resolve_trees();
        let before = self.engine.stats();
        struct Coord {
            tree: String,
            nodes: usize,
            point: String,
            platform: Platform,
            seq: SeqAlgo,
        }
        let mut coords: Vec<Coord> = Vec::new();
        for entry in trees {
            let nodes = entry.tree.len();
            let tree = Arc::new(entry.tree);
            // only points with a cap factor need the reference peak ahead
            // of serving (the engine reports it per result anyway)
            let mem_ref = spec
                .platforms
                .iter()
                .any(|pt| pt.cap_factor.is_some())
                .then(|| memory_reference(&tree));
            for point in &spec.platforms {
                let platform = point.resolve(mem_ref.unwrap_or(0.0));
                for &seq in &spec.seqs {
                    for name in &names {
                        let mut request =
                            ServeRequest::new(Arc::clone(&tree), *name, platform.clone())
                                .with_seq(seq);
                        if let Some(seed) = spec.seed {
                            request = request.with_seed(seed);
                        }
                        if timed {
                            request = request.with_time_reps(spec.time_reps);
                        }
                        self.engine.submit(request);
                        coords.push(Coord {
                            tree: entry.name.clone(),
                            nodes,
                            point: point.label.clone(),
                            platform: platform.clone(),
                            seq,
                        });
                    }
                }
            }
        }
        let results = self.engine.drain();
        let records = results
            .into_iter()
            .zip(coords)
            .map(|(result, coord)| {
                // timing is measured by the serving layer, not the outcome
                let time_us = result.time_us;
                let outcome = result.outcome.map(|out| CampaignOutcome {
                    makespan: out.outcome.eval.makespan,
                    peak_memory: out.outcome.eval.peak_memory,
                    ms_lb: out.ms_lb,
                    mem_ref: out.mem_ref,
                    cap_violations: out.outcome.diagnostics.cap_violations,
                    domain_peaks: out.outcome.domain_peaks.clone(),
                    metrics: extra
                        .iter()
                        .map(|&m| match m {
                            Metric::TimeUs => (m, Some(time_us as f64)),
                            m => (m, out.outcome.metric(m)),
                        })
                        .collect(),
                });
                CampaignRecord {
                    tree: coord.tree,
                    nodes: coord.nodes,
                    point: coord.point,
                    platform: coord.platform,
                    scheduler: result.scheduler,
                    seq: coord.seq,
                    seed: spec.seed,
                    outcome,
                }
            })
            .collect();
        let after = self.engine.stats();
        Ok(Campaign {
            name: spec.name.clone(),
            records,
            stats: after.since(&before),
        })
    }
}

// ---------------------------------------------------------------------------
// JSON spec files
// ---------------------------------------------------------------------------

/// A typed failure parsing a campaign spec file.
///
/// `Display` keeps the pre-typed wording, so `campaign --spec` error
/// output is unchanged; the variants exist so tooling can react to the
/// *kind* of failure — above all [`SpecError::UnknownKey`], the typo
/// guard that keeps a misspelled `trees_file` from shipping a campaign
/// with silently missing workloads.
#[derive(Clone, Debug, PartialEq)]
pub enum SpecError {
    /// Malformed JSON, or a field with an invalid type or value.
    Invalid(String),
    /// An unknown top-level spec key.
    UnknownKey(String),
    /// A workload file named by the spec could not be read.
    Io {
        /// The offending path.
        path: String,
        /// The underlying I/O error text.
        cause: String,
    },
    /// A workload file named by the spec failed to parse.
    Parse {
        /// The offending path.
        path: String,
        /// The parse failure, rendered.
        cause: String,
    },
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpecError::Invalid(msg) => f.write_str(msg),
            SpecError::UnknownKey(key) => write!(f, "unknown spec key `{key}`"),
            SpecError::Io { path, cause } => write!(f, "cannot read {path}: {cause}"),
            SpecError::Parse { path, cause } => write!(f, "cannot parse {path}: {cause}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<String> for SpecError {
    fn from(msg: String) -> Self {
        SpecError::Invalid(msg)
    }
}

impl From<&str> for SpecError {
    fn from(msg: &str) -> Self {
        SpecError::Invalid(msg.to_string())
    }
}

/// Parses a campaign spec from its JSON file form (`treesched campaign
/// --spec FILE`). All fields optional except `platforms`:
///
/// ```json
/// {"name": "mixed", "corpus": "small", "trees": ["fork.tree"],
///  "schedulers": ["deepest", "inner", "cp"],
///  "platforms": [{"processors": 4},
///                {"processors": 8, "cap_factor": 1.5},
///                {"speeds": "2x2.0,2x1.0", "domains": "1e9@0,1e9@1",
///                 "comm": "0-1:2"}],
///  "seq": ["best", "liu"], "seed": 7,
///  "metrics": ["speedup", "utilization"], "workers": 4,
///  "time_reps": 5}
/// ```
///
/// `trees` entries are paths to `treesched tree v1` files, loaded here;
/// `trees_file` entries go through the `treesched_trees` toolbox instead
/// (format detection: v1, attributed Newick, or MatrixMarket patterns via
/// the elimination/assembly-tree pipeline) and may be bare path strings
/// or `{"path": ..., "ordering": "natural|amd|rcm", "amalg": N,
/// "name": ...}` objects. Platform entries use either the flat
/// `processors` field or the `--speeds`/`--domains`/`--comm` flag syntax,
/// plus an optional `cap_factor`.
pub fn spec_from_json(text: &str) -> Result<CampaignSpec, SpecError> {
    use treesched_serve::jsonl::{parse_object, Value};

    fn str_of(v: &Value, what: &str) -> Result<String, String> {
        match v {
            Value::Str(s) => Ok(s.clone()),
            other => Err(format!("`{what}` must be a string, got {other:?}")),
        }
    }
    fn num_of<T: std::str::FromStr>(v: &Value, what: &str) -> Result<T, String> {
        match v {
            Value::Num(raw) => raw
                .parse()
                .map_err(|_| format!("`{what}` must be a number of the right kind, got `{raw}`")),
            other => Err(format!("`{what}` must be a number, got {other:?}")),
        }
    }
    fn list_of(v: &Value, what: &str) -> Result<Vec<String>, String> {
        match v {
            Value::Arr(items) => items.iter().map(|i| str_of(i, what)).collect(),
            other => Err(format!(
                "`{what}` must be an array of strings, got {other:?}"
            )),
        }
    }

    let pairs = parse_object(text.trim())?;
    let mut spec = CampaignSpec::new("campaign");
    for (key, value) in &pairs {
        match key.as_str() {
            "name" => spec.name = str_of(value, "name")?,
            "corpus" => {
                spec.corpus = Some(match str_of(value, "corpus")?.as_str() {
                    "small" => Scale::Small,
                    "medium" => Scale::Medium,
                    "large" => Scale::Large,
                    other => return Err(format!("unknown corpus scale `{other}`").into()),
                });
            }
            "trees" => {
                for path in list_of(value, "trees")? {
                    let text = std::fs::read_to_string(&path).map_err(|e| SpecError::Io {
                        path: path.clone(),
                        cause: e.to_string(),
                    })?;
                    let tree =
                        treesched_model::io::from_text(&text).map_err(|e| SpecError::Parse {
                            path: path.clone(),
                            cause: e.to_string(),
                        })?;
                    spec.trees.push(CorpusEntry { name: path, tree });
                }
            }
            "trees_file" => {
                let Value::Arr(items) = value else {
                    return Err(format!("`trees_file` must be an array, got {value:?}").into());
                };
                for item in items {
                    spec.trees.push(trees_file_entry(item)?);
                }
            }
            "schedulers" => spec.schedulers = Some(list_of(value, "schedulers")?),
            "platforms" => {
                let Value::Arr(items) = value else {
                    return Err(format!("`platforms` must be an array, got {value:?}").into());
                };
                for item in items {
                    spec.platforms.push(platform_point_from_value(item)?);
                }
            }
            "seq" => {
                let names = match value {
                    Value::Str(s) => vec![s.clone()],
                    other => list_of(other, "seq")?,
                };
                spec.seqs = names
                    .iter()
                    .map(|n| {
                        SeqAlgo::by_name(n).ok_or_else(|| format!("unknown `seq` algorithm `{n}`"))
                    })
                    .collect::<Result<_, _>>()?;
                if spec.seqs.is_empty() {
                    return Err("`seq` needs at least one algorithm".into());
                }
            }
            "seed" => spec.seed = Some(num_of(value, "seed")?),
            "metrics" => {
                spec.metrics = list_of(value, "metrics")?
                    .iter()
                    .map(|n| Metric::by_name(n).ok_or_else(|| format!("unknown metric `{n}`")))
                    .collect::<Result<_, _>>()?;
            }
            "workers" => {
                let workers: usize = num_of(value, "workers")?;
                if workers == 0 {
                    return Err("`workers` needs at least 1".into());
                }
                if workers > MAX_WORKERS {
                    return Err(format!("`workers` must be at most {MAX_WORKERS}").into());
                }
                spec.workers = Some(workers);
            }
            "time_reps" => {
                let reps: u32 = num_of(value, "time_reps")?;
                if reps == 0 {
                    return Err("`time_reps` needs at least 1".into());
                }
                spec.time_reps = reps;
            }
            other => return Err(SpecError::UnknownKey(other.to_string())),
        }
    }
    if spec.platforms.is_empty() {
        return Err("spec needs a non-empty `platforms` array".into());
    }
    Ok(spec)
}

/// Loads one `trees_file` spec entry through the `treesched_trees`
/// toolbox: a bare path string, or an object with `path` plus optional
/// `ordering` / `amalg` (MatrixMarket ingest knobs) and `name` (the label
/// scenario records carry; defaults to the path).
fn trees_file_entry(value: &treesched_serve::jsonl::Value) -> Result<CorpusEntry, SpecError> {
    use treesched_serve::jsonl::Value;
    use treesched_trees::{IngestOptions, OrderingKind};

    let mut path: Option<String> = None;
    let mut name: Option<String> = None;
    let mut opts = IngestOptions::default();
    match value {
        Value::Str(s) => path = Some(s.clone()),
        Value::Obj(fields) => {
            for (key, v) in fields {
                match (key.as_str(), v) {
                    ("path", Value::Str(s)) => path = Some(s.clone()),
                    ("name", Value::Str(s)) => name = Some(s.clone()),
                    ("ordering", Value::Str(s)) => {
                        opts.ordering = OrderingKind::parse(s).ok_or_else(|| {
                            SpecError::Invalid(format!(
                                "unknown `trees_file` ordering `{s}` (natural, amd, rcm)"
                            ))
                        })?;
                    }
                    ("amalg", Value::Num(raw)) => {
                        opts.amalg = raw.parse().map_err(|_| {
                            format!("`trees_file` amalg must be a positive integer, got `{raw}`")
                        })?;
                        if opts.amalg == 0 {
                            return Err("`trees_file` amalg must be at least 1".into());
                        }
                    }
                    (other, _) => {
                        return Err(SpecError::Invalid(format!(
                            "unknown `trees_file` field `{other}` (path, ordering, amalg, name)"
                        )));
                    }
                }
            }
        }
        other => {
            return Err(SpecError::Invalid(format!(
                "each `trees_file` entry must be a path string or object, got {other:?}"
            )));
        }
    }
    let path =
        path.ok_or_else(|| SpecError::Invalid("`trees_file` entry needs a `path`".into()))?;
    let (tree, _) = treesched_trees::load(&path, opts).map_err(|e| match e {
        treesched_trees::LoadError::Io { path, cause } => SpecError::Io { path, cause },
        treesched_trees::LoadError::Parse { path, cause } => SpecError::Parse { path, cause },
    })?;
    Ok(CorpusEntry {
        name: name.unwrap_or(path),
        tree,
    })
}

fn platform_point_from_value(
    value: &treesched_serve::jsonl::Value,
) -> Result<PlatformPoint, String> {
    use treesched_serve::jsonl::Value;
    let Value::Obj(fields) = value else {
        return Err(format!(
            "each platform point must be an object, got {value:?}"
        ));
    };
    let mut processors: Option<u32> = None;
    let mut speeds: Option<String> = None;
    let mut domains: Option<String> = None;
    let mut comm: Option<String> = None;
    let mut cap_factor: Option<f64> = None;
    for (key, v) in fields {
        match (key.as_str(), v) {
            ("processors", Value::Num(raw)) => {
                processors = Some(raw.parse().map_err(|_| {
                    format!("`processors` must be a non-negative integer, got `{raw}`")
                })?);
            }
            ("speeds", Value::Str(s)) => speeds = Some(s.clone()),
            ("domains", Value::Str(s)) => domains = Some(s.clone()),
            ("comm", Value::Str(s)) => comm = Some(s.clone()),
            ("cap_factor", Value::Num(raw)) => {
                let f: f64 = raw
                    .parse()
                    .map_err(|_| format!("`cap_factor` must be a number, got `{raw}`"))?;
                if !f.is_finite() || f <= 0.0 {
                    return Err(format!(
                        "`cap_factor` must be positive and finite, got `{raw}`"
                    ));
                }
                cap_factor = Some(f);
            }
            (k @ ("speeds" | "domains" | "comm"), v) => {
                return Err(format!("`{k}` must be a string, got {v:?}"))
            }
            (k @ ("processors" | "cap_factor"), v) => {
                return Err(format!("`{k}` must be a number, got {v:?}"))
            }
            (k, _) => return Err(format!("unknown platform point key `{k}`")),
        }
    }
    let mut point = match (processors, speeds) {
        (Some(_), Some(_)) => {
            return Err("a platform point spells `processors` or `speeds`, not both".into())
        }
        (Some(p), None) => {
            if domains.is_some() {
                return Err("`domains` needs `speeds` (flat points have one shared memory)".into());
            }
            if comm.is_some() {
                return Err("`comm` needs `speeds` and `domains` to index".into());
            }
            PlatformPoint::flat(p)
        }
        (None, Some(speeds)) => PlatformPoint::new(
            Platform::parse_flags(&speeds, domains.as_deref(), comm.as_deref())
                .map_err(|e| e.to_string())?,
        ),
        (None, None) => return Err("a platform point needs `processors` or `speeds`".into()),
    };
    if let Some(factor) = cap_factor {
        point = point.with_cap_factor(factor);
    }
    Ok(point)
}

// ---------------------------------------------------------------------------
// Campaign comparison (`campaign --compare`)
// ---------------------------------------------------------------------------

/// The verdict of [`compare_campaigns`].
#[derive(Clone, Debug, PartialEq)]
pub enum CampaignComparison {
    /// Every stable field matches and the new summed `time_us` is within
    /// tolerance of the old (or neither run carries timing).
    Ok {
        /// Summed `time_us` of the old run; 0 when the metric is absent.
        old_us: f64,
        /// Summed `time_us` of the new run.
        new_us: f64,
    },
    /// Every stable field matches, but the new run is slower than the old
    /// beyond the tolerance — the perf-regression verdict.
    TimingRegression {
        /// Summed `time_us` of the old run.
        old_us: f64,
        /// Summed `time_us` of the new run.
        new_us: f64,
        /// The allowed slowdown, in percent of the old total.
        tolerance_pct: f64,
    },
    /// The runs disagree on a non-timing field, so they are different
    /// experiments and their timings are not comparable (a stale
    /// baseline, changed schedules, or a changed spec).
    StableMismatch {
        /// 1-based JSONL line of the first disagreement.
        line: usize,
        /// What disagreed, for the error message.
        detail: String,
    },
}

/// Compares two campaign JSONL dumps as a performance-regression gate.
///
/// Every field except `time_us` must match exactly — schedules are
/// deterministic, so any drift means the runs answer different questions
/// and timing is not comparable ([`CampaignComparison::StableMismatch`]).
/// On matching stable fields, the summed `time_us` of `new` may exceed
/// the summed `time_us` of `old` by at most `tolerance_pct` percent.
/// Runs without the `time_us` metric compare stable-fields-only.
pub fn compare_campaigns(
    old: &str,
    new: &str,
    tolerance_pct: f64,
) -> Result<CampaignComparison, String> {
    use treesched_serve::jsonl::{parse_object, Value};

    // one record, split into (stable fields, summed timing)
    fn split(which: &str, line: usize, text: &str) -> Result<(Vec<(String, Value)>, f64), String> {
        let pairs = parse_object(text).map_err(|e| format!("{which} line {line}: {e}"))?;
        let mut time = 0.0;
        let mut stable = Vec::with_capacity(pairs.len());
        for (key, value) in pairs {
            match (key.as_str(), &value) {
                ("time_us", Value::Num(raw)) => time += raw.parse::<f64>().unwrap_or(0.0),
                ("time_us", _) => {}
                _ => stable.push((key, value)),
            }
        }
        Ok((stable, time))
    }

    let old_lines: Vec<&str> = old.lines().filter(|l| !l.trim().is_empty()).collect();
    let new_lines: Vec<&str> = new.lines().filter(|l| !l.trim().is_empty()).collect();
    if old_lines.len() != new_lines.len() {
        return Ok(CampaignComparison::StableMismatch {
            line: old_lines.len().min(new_lines.len()) + 1,
            detail: format!(
                "record counts differ: {} vs {}",
                old_lines.len(),
                new_lines.len()
            ),
        });
    }
    let (mut old_us, mut new_us) = (0.0, 0.0);
    for (k, (a, b)) in old_lines.iter().zip(&new_lines).enumerate() {
        let line = k + 1;
        let (stable_a, time_a) = split("old", line, a)?;
        let (stable_b, time_b) = split("new", line, b)?;
        old_us += time_a;
        new_us += time_b;
        if stable_a != stable_b {
            let detail = stable_a
                .iter()
                .zip(&stable_b)
                .find(|(x, y)| x != y)
                .map(|((ka, va), (kb, vb))| {
                    if ka == kb {
                        format!("`{ka}` is {va:?} vs {vb:?}")
                    } else {
                        format!("key `{ka}` vs key `{kb}`")
                    }
                })
                .unwrap_or_else(|| {
                    format!(
                        "field counts differ: {} vs {}",
                        stable_a.len(),
                        stable_b.len()
                    )
                });
            return Ok(CampaignComparison::StableMismatch { line, detail });
        }
    }
    if old_us > 0.0 && new_us > old_us * (1.0 + tolerance_pct / 100.0) {
        return Ok(CampaignComparison::TimingRegression {
            old_us,
            new_us,
            tolerance_pct,
        });
    }
    Ok(CampaignComparison::Ok { old_us, new_us })
}

#[cfg(test)]
mod tests {
    use super::*;
    use treesched_core::ProcClass;

    fn tiny_spec() -> CampaignSpec {
        CampaignSpec::new("tiny")
            .with_tree("fork", TaskTree::fork(8, 1.0, 1.0, 0.0))
            .with_tree("chain", TaskTree::chain(12, 2.0, 1.0, 0.5))
            .with_procs(&[2, 4])
    }

    #[test]
    fn runner_produces_every_scenario_in_cross_product_order() {
        let mut runner = CampaignRunner::new(2);
        let spec = tiny_spec();
        assert_eq!(spec.scenarios(runner.registry()), 2 * 2 * 4);
        let campaign = runner.run(&spec).unwrap();
        assert_eq!(campaign.records.len(), 16);
        // tree-major, then platform point, then scheduler
        assert_eq!(campaign.records[0].tree, "fork");
        assert_eq!(campaign.records[0].point, "p2");
        assert_eq!(campaign.records[0].scheduler, "ParSubtrees");
        assert_eq!(campaign.records[4].point, "p4");
        assert_eq!(campaign.records[8].tree, "chain");
        for r in &campaign.records {
            let out = r.outcome.as_ref().expect("flat campaign set is total");
            assert!(
                out.makespan >= out.ms_lb - 1e-9,
                "{} {}",
                r.tree,
                r.scheduler
            );
            assert!(out.peak_memory > 0.0);
        }
        // rows match for the aggregations
        let rows = campaign.rows();
        assert_eq!(rows.len(), 16);
        assert_eq!(rows[0].p, 2);
        assert_eq!(campaign.strict_rows().unwrap().len(), 16);
    }

    #[test]
    fn output_is_byte_identical_across_worker_counts() {
        let spec = tiny_spec();
        let reference = CampaignRunner::new(1).run(&spec).unwrap().to_jsonl();
        for workers in [2usize, 4] {
            let got = CampaignRunner::new(workers).run(&spec).unwrap().to_jsonl();
            assert_eq!(got, reference, "workers = {workers}");
        }
    }

    #[test]
    fn selection_resolves_aliases_and_rejects_unknown_names() {
        let mut runner = CampaignRunner::new(1);
        let spec = tiny_spec().with_schedulers(vec!["deepest".into(), "fifo".into()]);
        let campaign = runner.run(&spec).unwrap();
        assert_eq!(campaign.records.len(), 8);
        assert_eq!(campaign.records[0].scheduler, "ParDeepestFirst");
        assert_eq!(campaign.records[1].scheduler, "FifoList");
        let bad = tiny_spec().with_schedulers(vec!["nosuch".into()]);
        assert!(matches!(
            runner.run(&bad),
            Err(SchedError::UnknownScheduler { .. })
        ));
    }

    #[test]
    fn cap_factor_scales_with_each_tree_and_errors_stay_records() {
        let mut runner = CampaignRunner::new(2);
        // without a cap the capped scheduler errors — as a record
        let spec = tiny_spec().with_schedulers(vec!["membound".into()]);
        let campaign = runner.run(&spec).unwrap();
        assert_eq!(campaign.errors().count(), 4);
        assert!(matches!(
            campaign.records[0].outcome,
            Err(SchedError::MissingMemoryCap { .. })
        ));
        assert!(matches!(
            campaign.strict_rows(),
            Err(SchedError::MissingMemoryCap { .. })
        ));
        // with a factor, each tree is capped at factor x its own M_seq
        let spec = CampaignSpec::new("capped")
            .with_tree("fork", TaskTree::fork(8, 1.0, 1.0, 0.0))
            .with_tree("complete", TaskTree::complete(2, 4, 1.0, 2.0, 0.5))
            .with_platform(PlatformPoint::flat(4).with_cap_factor(1.0))
            .with_schedulers(vec!["membound".into()]);
        let campaign = runner.run(&spec).unwrap();
        for r in &campaign.records {
            let out = r.outcome.as_ref().unwrap();
            assert_eq!(
                r.platform.memory_cap(),
                Some(out.mem_ref),
                "{}: cap is 1.0 x this tree's reference",
                r.tree
            );
            assert!(out.peak_memory <= out.mem_ref * 1.0 + 1e-9, "{}", r.tree);
        }
        assert_eq!(campaign.records[0].point, "p4/cap1");
    }

    #[test]
    fn heterogeneous_points_serve_every_campaign_scheduler() {
        let mut runner = CampaignRunner::new(2);
        let spec = CampaignSpec::new("het")
            .with_tree("complete", TaskTree::complete(2, 5, 1.0, 2.0, 0.5))
            .with_platform(PlatformPoint::new(
                Platform::parse_flags("2x2.0,2x1.0", Some("1e9@0,1e9@1"), None).unwrap(),
            ));
        let campaign = runner.run(&spec).unwrap();
        assert_eq!(campaign.records.len(), 4);
        for r in &campaign.records {
            assert_eq!(r.point, "2x2,2x1;1000000000@0,1000000000@1");
            let out = r.outcome.as_ref().expect("mixed speeds are served");
            assert_eq!(out.domain_peaks.len(), 2, "{}", r.scheduler);
        }
        assert!(!campaign.to_jsonl().contains("\"error\""));
    }

    #[test]
    fn comm_labels_name_the_matrix_not_its_spelling() {
        let label = |comm: &str| {
            PlatformPoint::new(
                Platform::parse_flags("2x2.0,2x1.0", Some("1e9@0,1e9@1"), Some(comm)).unwrap(),
            )
            .label
        };
        assert_eq!(label("0-1:2"), "2x2,2x1;1000000000@0,1000000000@1;0-1:2");
        assert_eq!(label("1-0:2"), label("0-1:2"));
    }

    #[test]
    fn comm_points_serve_list_schedulers_and_surface_typed_refusals() {
        let mut runner = CampaignRunner::new(2);
        let spec = CampaignSpec::new("comm")
            .with_tree("complete", TaskTree::complete(2, 5, 1.0, 2.0, 0.5))
            .with_platform(PlatformPoint::new(
                Platform::parse_flags("2x2.0,2x1.0", Some("1e9@0,1e9@1"), Some("0-1:2")).unwrap(),
            ));
        let campaign = runner.run(&spec).unwrap();
        assert_eq!(campaign.records.len(), 4);
        let mut served = 0;
        let mut refused = 0;
        for r in &campaign.records {
            assert_eq!(r.point, "2x2,2x1;1000000000@0,1000000000@1;0-1:2");
            match &r.outcome {
                Ok(out) => {
                    served += 1;
                    assert_eq!(out.domain_peaks.len(), 2, "{}", r.scheduler);
                }
                Err(SchedError::UnsupportedPlatform { .. }) => refused += 1,
                Err(e) => panic!("{}: unexpected error {e}", r.scheduler),
            }
        }
        // the list heuristics serve comm, the subtree pair refuses typed
        assert_eq!((served, refused), (2, 2));
        // error records carry the platform object (with its comm matrix)
        // and the typed message
        let jsonl = campaign.to_jsonl();
        let error_line = jsonl
            .lines()
            .find(|l| l.contains("\"error\""))
            .expect("subtree schedulers refuse comm costs");
        assert!(
            error_line.contains("\"platform\":{\"classes\""),
            "{error_line}"
        );
        assert!(error_line.contains("\"comm\":[0,2,2,0]"), "{error_line}");
        assert!(error_line.contains("does not support"), "{error_line}");
    }

    #[test]
    fn records_render_the_shared_schedule_json_schema() {
        let mut runner = CampaignRunner::new(1);
        let spec = tiny_spec()
            .with_schedulers(vec!["deepest".into()])
            .with_metrics(vec![Metric::Speedup, Metric::Utilization, Metric::Makespan]);
        let campaign = runner.run(&spec).unwrap();
        let jsonl = campaign.to_jsonl();
        for line in jsonl.lines() {
            let pairs = treesched_serve::jsonl::parse_object(line).expect("valid JSON");
            let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(
                keys,
                [
                    "campaign",
                    "tree",
                    "point",
                    "seq",
                    "seed",
                    "scheduler",
                    "processors",
                    "tasks",
                    "makespan",
                    "makespan_lower_bound",
                    "peak_memory",
                    "memory_reference",
                    "cap",
                    "cap_violations",
                    "speedup",
                    "utilization",
                ],
                "duplicate base metrics must be skipped: {line}"
            );
            assert!(line.starts_with("{\"campaign\":\"tiny\","), "{line}");
        }
    }

    #[test]
    fn warm_campaign_passes_schedule_subtrees_without_cloning() {
        let mut runner = CampaignRunner::new(1);
        let spec = tiny_spec(); // default set includes the subtree heuristics
        runner.run(&spec).unwrap();
        let warm = runner.run(&spec).unwrap();
        assert!(warm.stats.subtree_views > 0, "{:?}", warm.stats);
        // LiuExact rides the view path too, like the two postorders
        for seq in [
            SeqAlgo::LiuExact,
            SeqAlgo::BestPostorder,
            SeqAlgo::NaivePostorder,
        ] {
            let spec = tiny_spec().with_seqs(vec![seq]);
            runner.run(&spec).unwrap();
            let warm = runner.run(&spec).unwrap();
            assert!(warm.stats.subtree_views > 0, "{seq:?}: {:?}", warm.stats);
        }
    }

    #[test]
    fn time_us_is_selected_explicitly_and_absent_by_default() {
        let mut runner = CampaignRunner::new(1);
        let spec = tiny_spec()
            .with_schedulers(vec!["deepest".into()])
            .with_metrics(vec![Metric::TimeUs, Metric::Speedup])
            .with_time_reps(3);
        let campaign = runner.run(&spec).unwrap();
        for r in &campaign.records {
            let out = r.outcome.as_ref().unwrap();
            assert_eq!(out.metrics[0].0, Metric::TimeUs);
            assert!(out.metrics[0].1.is_some(), "timing comes from serving");
            assert!(out.metrics[1].1.is_some());
        }
        let jsonl = campaign.to_jsonl();
        for line in jsonl.lines() {
            assert!(line.contains("\"time_us\":"), "{line}");
        }
        // not selected -> not in the records (default goldens stay stable)
        let plain = runner
            .run(&tiny_spec().with_schedulers(vec!["deepest".into()]))
            .unwrap();
        assert!(!plain.to_jsonl().contains("time_us"));
    }

    #[test]
    fn compare_separates_timing_regressions_from_stable_drift() {
        // fabricated dumps keep the verdicts deterministic
        let old = "{\"campaign\":\"c\",\"makespan\":3,\"time_us\":100}\n\
                   {\"campaign\":\"c\",\"makespan\":5,\"time_us\":100}\n";
        let same_but_slower = "{\"campaign\":\"c\",\"makespan\":3,\"time_us\":150}\n\
                   {\"campaign\":\"c\",\"makespan\":5,\"time_us\":130}\n";
        match compare_campaigns(old, same_but_slower, 20.0).unwrap() {
            CampaignComparison::TimingRegression {
                old_us,
                new_us,
                tolerance_pct,
            } => {
                assert_eq!((old_us, new_us, tolerance_pct), (200.0, 280.0, 20.0));
            }
            other => panic!("expected a timing regression, got {other:?}"),
        }
        assert_eq!(
            compare_campaigns(old, same_but_slower, 40.1).unwrap(),
            CampaignComparison::Ok {
                old_us: 200.0,
                new_us: 280.0
            }
        );
        // a changed schedule is a mismatch, never a timing verdict
        let drifted = "{\"campaign\":\"c\",\"makespan\":3,\"time_us\":1}\n\
                   {\"campaign\":\"c\",\"makespan\":6,\"time_us\":1}\n";
        match compare_campaigns(old, drifted, 1e9).unwrap() {
            CampaignComparison::StableMismatch { line, detail } => {
                assert_eq!(line, 2);
                assert!(detail.contains("makespan"), "{detail}");
            }
            other => panic!("expected a mismatch, got {other:?}"),
        }
        // record counts are stable fields too
        match compare_campaigns(old, "{\"campaign\":\"c\"}\n", 1e9).unwrap() {
            CampaignComparison::StableMismatch { line: 2, .. } => {}
            other => panic!("expected a count mismatch, got {other:?}"),
        }
        // timing-free baselines compare stable-only
        let bare = "{\"campaign\":\"c\",\"makespan\":3}\n\
                   {\"campaign\":\"c\",\"makespan\":5}\n";
        assert_eq!(
            compare_campaigns(bare, bare, 0.0).unwrap(),
            CampaignComparison::Ok {
                old_us: 0.0,
                new_us: 0.0
            }
        );
        // and real runs with identical specs always pass the stable gate
        let mut runner = CampaignRunner::new(2);
        let spec = tiny_spec().with_metrics(vec![Metric::TimeUs]);
        let a = runner.run(&spec).unwrap().to_jsonl();
        let b = runner.run(&spec).unwrap().to_jsonl();
        match compare_campaigns(&a, &b, 1e9).unwrap() {
            CampaignComparison::Ok { old_us, .. } => assert!(old_us >= 0.0),
            other => panic!("identical specs must compare stable: {other:?}"),
        }
    }

    #[test]
    fn seq_and_seed_grids_fan_out() {
        let mut runner = CampaignRunner::new(2);
        let spec = CampaignSpec::new("seqs")
            .with_tree("complete", TaskTree::complete(2, 4, 1.0, 2.0, 0.5))
            .with_procs(&[4])
            .with_schedulers(vec!["subtrees".into(), "random".into()])
            .with_seqs(vec![SeqAlgo::NaivePostorder, SeqAlgo::BestPostorder])
            .with_seed(9);
        let campaign = runner.run(&spec).unwrap();
        assert_eq!(campaign.records.len(), 4);
        assert_eq!(campaign.records[0].seq, SeqAlgo::NaivePostorder);
        assert_eq!(campaign.records[2].seq, SeqAlgo::BestPostorder);
        assert!(campaign.records.iter().all(|r| r.seed == Some(9)));
        assert!(campaign.to_jsonl().contains("\"seq\":\"naive\""));
        assert!(campaign.to_jsonl().contains("\"seed\":9"));
    }

    #[test]
    fn custom_registry_schedulers_join_the_default_selection() {
        struct Constant;
        impl treesched_core::Scheduler for Constant {
            fn name(&self) -> &'static str {
                "TestCampaigner"
            }
            fn schedule(
                &self,
                req: &treesched_core::Request<'_>,
                scratch: &mut treesched_core::Scratch,
            ) -> Result<treesched_core::Outcome, SchedError> {
                SchedulerRegistry::standard()
                    .get("fifo")
                    .unwrap()
                    .schedule(req, scratch)
            }
        }
        let mut registry = SchedulerRegistry::standard();
        registry.register(Box::new(Constant), &[], true).unwrap();
        let mut runner = CampaignRunner::over(Arc::new(registry), 2);
        let spec = CampaignSpec::new("custom")
            .with_tree("fork", TaskTree::fork(6, 1.0, 1.0, 0.0))
            .with_procs(&[2]);
        let campaign = runner.run(&spec).unwrap();
        assert!(
            campaign
                .records
                .iter()
                .any(|r| r.scheduler == "TestCampaigner"),
            "campaign-flagged registration joins the default selection"
        );
    }

    #[test]
    fn ensure_scheduler_adds_missing_baselines_only() {
        let registry = SchedulerRegistry::standard();
        let mut spec = tiny_spec(); // default selection: registry decides
        assert!(!spec.ensure_scheduler(&registry, "ParSubtrees"));
        let mut spec = tiny_spec().with_schedulers(vec!["deepest".into()]);
        assert!(spec.ensure_scheduler(&registry, "ParSubtrees"));
        assert_eq!(
            spec.schedulers.as_ref().unwrap(),
            &vec!["deepest".to_string(), "ParSubtrees".to_string()]
        );
        // an alias of a present scheduler is recognized as present
        let mut spec = tiny_spec().with_schedulers(vec!["subtrees".into()]);
        assert!(!spec.ensure_scheduler(&registry, "ParSubtrees"));
    }

    #[test]
    fn spec_files_parse_and_reject_bad_fields() {
        let dir = std::env::temp_dir().join("treesched-campaign-spec");
        std::fs::create_dir_all(&dir).unwrap();
        let tree_path = dir.join("spec-fork.tree");
        std::fs::write(
            &tree_path,
            treesched_model::io::to_text(&TaskTree::fork(4, 1.0, 1.0, 0.0)),
        )
        .unwrap();
        let text = format!(
            concat!(
                "{{\"name\":\"mixed\",\"trees\":[\"{}\"],",
                "\"schedulers\":[\"deepest\",\"cp\"],",
                "\"platforms\":[{{\"processors\":4}},",
                "{{\"processors\":8,\"cap_factor\":1.5}},",
                "{{\"speeds\":\"2x2.0,2x1.0\",\"domains\":\"1e9@0,1e9@1\"}}],",
                "\"seq\":[\"best\",\"liu\"],\"seed\":7,",
                "\"metrics\":[\"speedup\"],\"workers\":2}}"
            ),
            tree_path.display()
        );
        let spec = spec_from_json(&text).unwrap();
        assert_eq!(spec.name, "mixed");
        assert_eq!(spec.trees.len(), 1);
        assert_eq!(spec.platforms.len(), 3);
        assert_eq!(spec.platforms[0].label, "p4");
        assert_eq!(spec.platforms[1].label, "p8/cap1.5");
        assert_eq!(spec.platforms[1].cap_factor, Some(1.5));
        assert_eq!(
            spec.platforms[2].platform.classes(),
            &[ProcClass::new(2, 2.0), ProcClass::new(2, 1.0)]
        );
        assert_eq!(spec.seqs, vec![SeqAlgo::BestPostorder, SeqAlgo::LiuExact]);
        assert_eq!(spec.seed, Some(7));
        assert_eq!(spec.metrics, vec![Metric::Speedup]);
        assert_eq!(spec.workers, Some(2));
        // the parsed spec actually runs
        let campaign = CampaignRunner::new(2).run(&spec).unwrap();
        assert_eq!(campaign.records.len(), 3 * 2 * 2); // 1 tree x 3 points x 2 seqs x 2 scheds

        for (bad, needle) in [
            ("{}", "platforms"),
            ("{\"platforms\":[]}", "platforms"),
            ("{\"platforms\":[{}]}", "needs `processors` or `speeds`"),
            (
                "{\"platforms\":[{\"processors\":2,\"speeds\":\"2x1\"}]}",
                "not both",
            ),
            (
                "{\"platforms\":[{\"processors\":2,\"domains\":\"5\"}]}",
                "needs `speeds`",
            ),
            (
                "{\"platforms\":[{\"processors\":2,\"cap_factor\":0}]}",
                "positive",
            ),
            ("{\"platforms\":[{\"speeds\":\"junk\"}]}", "--speeds"),
            ("{\"platforms\":[{\"bogus\":1}]}", "bogus"),
            (
                "{\"corpus\":\"giant\",\"platforms\":[{\"processors\":2}]}",
                "scale",
            ),
            (
                "{\"seq\":[\"fast\"],\"platforms\":[{\"processors\":2}]}",
                "seq",
            ),
            (
                "{\"metrics\":[\"magic\"],\"platforms\":[{\"processors\":2}]}",
                "metric",
            ),
            (
                "{\"workers\":0,\"platforms\":[{\"processors\":2}]}",
                "workers",
            ),
            (
                "{\"workers\":257,\"platforms\":[{\"processors\":2}]}",
                "`workers` must be at most 256",
            ),
            (
                "{\"trees\":[\"/nonexistent/x.tree\"],\"platforms\":[{\"processors\":2}]}",
                "cannot read",
            ),
            ("{\"bogus\":1,\"platforms\":[{\"processors\":2}]}", "bogus"),
            ("not json", "expected"),
        ] {
            let err = spec_from_json(bad).unwrap_err().to_string();
            assert!(err.contains(needle), "{bad}: {err}");
        }
    }

    #[test]
    fn spec_errors_are_typed() {
        // misspelled top-level keys are the UnknownKey variant, not prose
        let err = spec_from_json("{\"scheduler\":[\"cp\"],\"platforms\":[{\"processors\":2}]}")
            .unwrap_err();
        assert!(
            matches!(&err, SpecError::UnknownKey(k) if k == "scheduler"),
            "{err:?}"
        );
        assert_eq!(err.to_string(), "unknown spec key `scheduler`");
        let err = spec_from_json(
            "{\"trees\":[\"/nonexistent/x.tree\"],\"platforms\":[{\"processors\":2}]}",
        )
        .unwrap_err();
        assert!(
            matches!(&err, SpecError::Io { path, .. } if path == "/nonexistent/x.tree"),
            "{err:?}"
        );
    }

    #[test]
    fn trees_file_entries_load_through_the_toolbox() {
        let fixture = |name: &str| {
            std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../trees/tests/data")
                .join(name)
                .to_string_lossy()
                .into_owned()
        };
        let text = format!(
            concat!(
                "{{\"trees_file\":[\"{}\",",
                "{{\"path\":\"{}\",\"ordering\":\"natural\",\"name\":\"band8\"}}],",
                "\"platforms\":[{{\"processors\":2}}]}}"
            ),
            fixture("fork.nwk"),
            fixture("band8.mtx")
        );
        let spec = spec_from_json(&text).unwrap();
        assert_eq!(spec.trees.len(), 2);
        assert_eq!(spec.trees[0].tree.len(), 6); // attributed Newick fixture
        assert_eq!(spec.trees[1].name, "band8");
        assert_eq!(spec.trees[1].tree.len(), 8); // natural-order elimination tree

        // and the loaded corpus actually runs as a campaign
        let spec = CampaignSpec {
            schedulers: Some(vec!["deepest".into()]),
            ..spec
        };
        let campaign = CampaignRunner::new(1).run(&spec).unwrap();
        assert_eq!(campaign.records.len(), 2);
        assert!(campaign
            .records
            .iter()
            .all(|r| r.outcome.as_ref().unwrap().makespan > 0.0));

        // typed failures for the new key
        let err = spec_from_json(
            "{\"trees_file\":[{\"path\":\"x\",\"ordering\":\"best\"}],\
             \"platforms\":[{\"processors\":2}]}",
        )
        .unwrap_err();
        assert_eq!(
            err.to_string(),
            "unknown `trees_file` ordering `best` (natural, amd, rcm)"
        );
        let err = spec_from_json(
            "{\"trees_file\":[{\"ordering\":\"amd\"}],\"platforms\":[{\"processors\":2}]}",
        )
        .unwrap_err();
        assert_eq!(err.to_string(), "`trees_file` entry needs a `path`");
        let bad = fixture("band8.mtx");
        let err = spec_from_json(&format!(
            "{{\"trees_file\":[{{\"path\":\"{bad}\",\"amalg\":0}}],\
             \"platforms\":[{{\"processors\":2}}]}}"
        ))
        .unwrap_err();
        assert_eq!(err.to_string(), "`trees_file` amalg must be at least 1");
    }

    #[test]
    fn corpus_and_explicit_trees_combine() {
        let spec = CampaignSpec::new("both")
            .with_tree("fork", TaskTree::fork(4, 1.0, 1.0, 0.0))
            .with_corpus(Scale::Small);
        let trees = spec.resolve_trees();
        assert!(trees.len() > 1);
        assert_eq!(trees[0].name, "fork");
    }
}
