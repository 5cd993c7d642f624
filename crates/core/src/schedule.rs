//! Parallel schedules and their evaluation (makespan + peak memory).
//!
//! Evaluation is platform-aware: [`Schedule::validate`] checks the paper's
//! unit-speed model, while [`Schedule::validate_on`] and [`try_evaluate_on`]
//! scale each task's expected execution time by the speed of its assigned
//! processor and additionally expose per-memory-domain peaks
//! ([`Schedule::domain_peaks`]) for NUMA-style platforms.
//!
//! One evaluator serves every entry point: a single pass over the tasks
//! in id order runs every validity check; each task's start and finish
//! then become integer sort keys. Once the two key arrays are sorted, a
//! walk of the start order checks each processor for overlaps, and one
//! merged walk of both orders sweeps the memory (globally, per domain and
//! as a profile).
//!
//! The built-in schedulers evaluate through the buffers of their
//! [`crate::api::Scratch`], reused from call to call, and hand the
//! evaluator the orders they placed their tasks in. Pushed in those
//! orders, the keys arrive as a few ascending runs, and a merge of the
//! runs sorts them, in one linear pass when they arrive sorted. The
//! merged keys count only when they prove the order a permutation of the
//! tasks; otherwise, and on the public methods here (fresh buffers, no
//! order), the keys are pushed in id order and sorted. Both ways give the
//! same sorted keys, so no result depends on the order a scheduler
//! reports.

use crate::api::Platform;
use crate::listsched::key_from_f64;
use treesched_model::{NodeId, TaskTree};

/// Placement of one task: processor and time interval.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Placement {
    /// Processor index in `0..p`.
    pub proc: u32,
    /// Start time.
    pub start: f64,
    /// Finish time (`start + w`).
    pub finish: f64,
}

/// A complete schedule of a task tree on `p` identical processors sharing
/// one memory (paper §3.2).
#[derive(Clone, Debug, PartialEq)]
pub struct Schedule {
    /// Number of processors the schedule was built for.
    pub processors: u32,
    /// Placement of every task, indexed by node id.
    pub placements: Vec<Placement>,
}

/// Why a schedule is invalid.
#[derive(Clone, Debug, PartialEq)]
pub enum ScheduleError {
    /// The placement table does not cover every node exactly once.
    WrongLength { expected: usize, got: usize },
    /// A task's interval is malformed (negative, reversed, or `finish !=
    /// start + w` beyond tolerance).
    BadInterval { node: NodeId },
    /// A processor index is out of `0..p`.
    BadProcessor { node: NodeId, proc: u32 },
    /// A task starts before one of its children finishes.
    DependencyViolated { parent: NodeId, child: NodeId },
    /// Two tasks overlap on the same processor.
    Overlap { a: NodeId, b: NodeId, proc: u32 },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::WrongLength { expected, got } => {
                write!(f, "schedule covers {got} tasks, tree has {expected}")
            }
            ScheduleError::BadInterval { node } => write!(f, "task {node} has a bad interval"),
            ScheduleError::BadProcessor { node, proc } => {
                write!(f, "task {node} placed on invalid processor {proc}")
            }
            ScheduleError::DependencyViolated { parent, child } => {
                write!(f, "task {parent} starts before its child {child} finishes")
            }
            ScheduleError::Overlap { a, b, proc } => {
                write!(f, "tasks {a} and {b} overlap on processor {proc}")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// Relative tolerance used when checking `finish == start + w` under f64
/// accumulation.
const TIME_EPS: f64 = 1e-9;

impl Schedule {
    /// Total execution time: the latest finish time.
    pub fn makespan(&self) -> f64 {
        self.placements.iter().map(|t| t.finish).fold(0.0, f64::max)
    }

    /// Placement of node `i`.
    pub fn placement(&self, i: NodeId) -> Placement {
        self.placements[i.index()]
    }

    /// Checks that the schedule is feasible for `tree` under the paper's
    /// unit-speed model:
    /// every task placed exactly once with `finish = start + w`, processors
    /// in range, no overlap per processor, and every parent starting no
    /// earlier than the finish of each of its children.
    pub fn validate(&self, tree: &TaskTree) -> Result<(), ScheduleError> {
        let unit = Platform::new(self.processors);
        EvalScratch::default()
            .check(self, tree, &unit, false, &[])
            .map(drop)
    }

    /// [`Schedule::validate`] for a heterogeneous [`Platform`]: the expected
    /// execution time of a task on processor `i` is `w / speed(i)`.
    ///
    /// The platform must describe the `processors` this schedule was built
    /// for; placements on processors outside the platform are
    /// [`ScheduleError::BadProcessor`].
    ///
    /// On a platform with cross-domain communication costs
    /// ([`Platform::has_comm`]) the dependency check tightens: a parent may
    /// not start before `child.finish + output × comm_cost` for each child
    /// placed in a different memory domain — the time the child's output
    /// needs to cross into the parent's domain.
    pub fn validate_on(&self, tree: &TaskTree, platform: &Platform) -> Result<(), ScheduleError> {
        EvalScratch::default()
            .check(self, tree, platform, true, &[])
            .map(drop)
    }

    /// Peak memory of the schedule under the paper's model, via an event
    /// sweep.
    ///
    /// Contributions: `n_i + f_i` are allocated at `start(i)`; at
    /// `finish(i)` the program `n_i` and all input files (the children's
    /// `f_c`) are freed. The root's output stays resident to the end.
    /// Finish events at a given instant are applied before start events at
    /// the same instant (task intervals are half-open `[start, finish)`).
    pub fn peak_memory(&self, tree: &TaskTree) -> f64 {
        let mut buf = EvalScratch::default();
        buf.sort_starts(self, tree, &[]);
        buf.sweep(self, tree, 0, None, &[])
    }

    /// Peak memory per memory domain of `platform`, via the same event
    /// sweep as [`Schedule::peak_memory`] split by domain.
    ///
    /// A task's footprint (`n_i + f_i`) lives in the domain of the
    /// processor it runs on: allocated there at `start(i)`, the program
    /// `n_i` freed there at `finish(i)`. An input file is freed from the
    /// domain of the *child* that produced it when the parent finishes —
    /// cross-domain parent/child edges release memory where the file was
    /// allocated, not where it is consumed. Tasks on processors outside
    /// every declared domain are unconstrained and count toward no domain.
    ///
    /// Returns one peak per domain, in [`Platform::domains`] order; empty
    /// when the platform declares no domains.
    pub fn domain_peaks(&self, tree: &TaskTree, platform: &Platform) -> Vec<f64> {
        let mut buf = EvalScratch::default();
        if !platform.domains().is_empty() {
            buf.sort_starts(self, tree, &[]);
            platform.fill_domains(&mut buf.domains);
            buf.sweep(self, tree, platform.domains().len(), None, &[]);
        }
        buf.peaks
    }

    /// Memory profile sampled at every event instant: the memory held
    /// after applying all of the instant's frees and allocations, which
    /// stays the level until the next instant. Returns `(time, memory)`
    /// pairs, useful for plotting; the largest memory is
    /// [`Schedule::peak_memory`].
    pub fn memory_profile(&self, tree: &TaskTree) -> Vec<(f64, f64)> {
        let mut buf = EvalScratch::default();
        let mut out = Vec::new();
        buf.sort_starts(self, tree, &[]);
        buf.sweep(self, tree, 0, Some(&mut out), &[]);
        out
    }

    /// Total busy time per processor, indexed by processor id.
    pub fn loads(&self) -> Vec<f64> {
        let mut loads = vec![0.0f64; self.processors as usize];
        for pl in &self.placements {
            loads[pl.proc as usize] += pl.finish - pl.start;
        }
        loads
    }

    /// Average processor utilization over the makespan: `Σ busy / (p ·
    /// makespan)`, in `[0, 1]`. A utilization of `1/p` means the schedule
    /// is effectively sequential.
    pub fn utilization(&self) -> f64 {
        let ms = self.makespan();
        if ms == 0.0 {
            return 1.0;
        }
        self.loads().iter().sum::<f64>() / (self.processors as f64 * ms)
    }

    /// Speedup over a one-processor execution of the same tasks:
    /// `Σ w / makespan`.
    pub fn speedup(&self) -> f64 {
        let ms = self.makespan();
        if ms == 0.0 {
            return 1.0;
        }
        self.loads().iter().sum::<f64>() / ms
    }

    /// Number of tasks running at any time, sampled at start events; the
    /// maximum must never exceed `p` for a valid schedule.
    pub fn max_concurrency(&self) -> usize {
        let events = |time: fn(&Placement) -> f64| {
            let mut keys: Vec<EventKey> = (self.placements.iter().enumerate())
                .map(|(i, pl)| event(time(pl), i as u32))
                .collect();
            keys.sort_unstable();
            keys
        };
        let (mut running, mut peak) = (0i64, 0i64);
        instants(
            &events(|pl| pl.start),
            &events(|pl| pl.finish),
            |finishing, starting| {
                running += starting.len() as i64 - finishing.len() as i64;
                peak = peak.max(running);
            },
        );
        peak as usize
    }
}

/// Joint evaluation of a schedule: the two objectives of the paper.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EvalResult {
    /// Total completion time.
    pub makespan: f64,
    /// Peak memory over the execution.
    pub peak_memory: f64,
}

/// Evaluates `schedule` against `tree`, validating it first. This is the
/// non-panicking path used by the [`crate::api`] layer: an invalid schedule
/// comes back as the [`ScheduleError`] that [`Schedule::validate`] found.
pub fn try_evaluate(tree: &TaskTree, schedule: &Schedule) -> Result<EvalResult, ScheduleError> {
    let unit = Platform::new(schedule.processors);
    EvalScratch::default().evaluate(schedule, tree, &unit, false, false, Orders::default())
}

/// [`try_evaluate`] for a heterogeneous [`Platform`]: validation scales
/// each task's expected duration by its processor's speed
/// ([`Schedule::validate_on`]). The reported `peak_memory` stays the
/// platform-global peak (the sum over all domains at the worst instant);
/// per-domain peaks come from [`Schedule::domain_peaks`].
pub fn try_evaluate_on(
    tree: &TaskTree,
    schedule: &Schedule,
    platform: &Platform,
) -> Result<EvalResult, ScheduleError> {
    EvalScratch::default().evaluate(schedule, tree, platform, true, false, Orders::default())
}

// ---------------------------------------------------------------------------
// The evaluator
// ---------------------------------------------------------------------------

/// One event: the time encoded to order like [`f64::total_cmp`]
/// ([`key_from_f64`]) in the high 64 bits, the node id in the low 32, so
/// equal instants go in id order. One integer compares faster than a
/// tuple.
type EventKey = u128;

fn event(t: f64, node: u32) -> EventKey {
    (key_from_f64(t) as u128) << 32 | node as u128
}

/// The node of an event.
fn node(e: EventKey) -> NodeId {
    NodeId(e as u32)
}

/// The instant of an event, as its encoded time.
fn instant(e: EventKey) -> u64 {
    (e >> 32) as u64
}

/// The time of an event, decoded bit for bit.
fn time(e: EventKey) -> f64 {
    let k = instant(e);
    f64::from_bits(if k >> 63 == 1 { k & !(1 << 63) } else { !k })
}

/// The orders a scheduler placed its tasks in, from which
/// [`EvalScratch::evaluate`] sorts its event keys: ideally a few
/// ascending runs of start (finish) times, ties by id. An empty slice is
/// no order; so is any slice that is not a permutation of the tasks.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Orders<'a> {
    /// The tasks in dispatch order, for the start keys.
    pub(crate) starts: &'a [NodeId],
    /// The tasks in completion order, for the finish keys.
    pub(crate) finishes: &'a [NodeId],
}

/// Working memory of the schedule evaluator. [`crate::api::Scratch`]
/// keeps one, so a warm scheduler validates and evaluates its schedules
/// without allocating; the public [`Schedule`] methods and
/// [`try_evaluate_on`] run the same code on a fresh one.
///
/// Evaluation is one pass over the tasks, two key sorts and two walks:
///
/// 1. the pass, in id order, makes every per-task validity check;
/// 2. the start times, as sorted integer keys, give the per-processor
///    overlap check: each task against the previous one on its processor;
/// 3. the finish keys, sorted and merged with the start keys, give the
///    memory sweep, finishes before starts at equal instants. Each task
///    frees its memoized release ([`TaskTree::releases`]).
///
/// A key sort is a merge of ascending runs when the scheduler's
/// [`Orders`] prove a permutation of the tasks, a `sort_unstable` of the
/// keys in id order otherwise ([`sorted_events`]). Ties go by node id,
/// which is the summation order of a stable sort over events pushed in id
/// order, so every peak is bit-for-bit what such a sort computes.
#[derive(Clone, Debug, Default)]
pub(crate) struct EvalScratch {
    /// `(start, node)` of every task, sorted: the dispatch order.
    starts: Vec<EventKey>,
    /// `(finish, node)` of every task, sorted: the completion order.
    /// Only the memory sweep needs it, so validation alone skips it.
    finishes: Vec<EventKey>,
    /// The other half of a run merge, swapped with the keys it sorts.
    runs: Vec<EventKey>,
    /// Speed of each processor.
    speeds: Vec<f64>,
    /// Memory domain of each processor; `u32::MAX` for none.
    domains: Vec<u32>,
    /// The previous task on each processor during the overlap check.
    last: Vec<u32>,
    /// Memory currently held in each domain during the sweep.
    held: Vec<f64>,
    /// Peak memory of each domain, left by the last sweep.
    peaks: Vec<f64>,
}

impl EvalScratch {
    /// Validates `s` on `platform`, then sweeps it: the makespan, the
    /// global peak memory and, when `with_domains`, the per-domain peaks
    /// ([`EvalScratch::domain_peaks`] reads them). The key sorts start
    /// from `orders`.
    ///
    /// `range_first` reports a processor outside `platform` ahead of every
    /// other error, as [`Schedule::validate_on`] does; without it errors
    /// come in node order, as [`Schedule::validate`] reports them on a
    /// platform of the schedule's own processor count.
    pub(crate) fn evaluate(
        &mut self,
        s: &Schedule,
        tree: &TaskTree,
        platform: &Platform,
        range_first: bool,
        with_domains: bool,
        orders: Orders<'_>,
    ) -> Result<EvalResult, ScheduleError> {
        let makespan = self.check(s, tree, platform, range_first, orders.starts)?;
        let domains = if with_domains {
            platform.fill_domains(&mut self.domains);
            platform.domains().len()
        } else {
            0
        };
        let peak_memory = self.sweep(s, tree, domains, None, orders.finishes);
        Ok(EvalResult {
            makespan,
            peak_memory,
        })
    }

    /// Per-domain peaks of the last [`EvalScratch::evaluate`] run with
    /// domains, in [`Platform::domains`] order.
    pub(crate) fn domain_peaks(&self) -> &[f64] {
        &self.peaks
    }

    /// Records and sorts the start keys of `tree`'s tasks, starting from
    /// `order`, with no checks.
    fn sort_starts(&mut self, s: &Schedule, tree: &TaskTree, order: &[NodeId]) {
        let (placements, at) = (&s.placements[..tree.len()], |pl: &Placement| pl.start);
        sorted_events(&mut self.starts, &mut self.runs, placements, order, at);
    }

    /// Every check of [`Schedule::validate_on`], in its order: length;
    /// with `range_first`, the first task outside the platform; then per
    /// task in id order its processor, interval and dependencies; then
    /// per-processor overlaps, the lowest processor's first pair; then,
    /// with communication costs, the first dependency whose transfer has
    /// not arrived. Leaves the start keys sorted, from `order`, and returns
    /// the makespan.
    fn check(
        &mut self,
        s: &Schedule,
        tree: &TaskTree,
        platform: &Platform,
        range_first: bool,
        order: &[NodeId],
    ) -> Result<f64, ScheduleError> {
        if s.placements.len() != tree.len() {
            return Err(ScheduleError::WrongLength {
                expected: tree.len(),
                got: s.placements.len(),
            });
        }
        let p = platform.processors();
        let comm = platform.has_comm();
        platform.fill_speeds(&mut self.speeds);
        if comm {
            platform.fill_domains(&mut self.domains);
        }
        // the first failed per-task check, reported once no task turns out
        // to lie outside the platform; a late transfer ranks after the
        // overlap check
        let mut error = None;
        let mut late = None;
        let mut makespan = 0.0f64;
        for i in tree.ids() {
            let pl = s.placement(i);
            if range_first && pl.proc >= p {
                return Err(ScheduleError::BadProcessor {
                    node: i,
                    proc: pl.proc,
                });
            }
            if error.is_some() {
                continue;
            }
            if pl.proc >= s.processors || pl.proc >= p {
                error = Some(ScheduleError::BadProcessor {
                    node: i,
                    proc: pl.proc,
                });
                continue;
            }
            let w = tree.work(i) / self.speeds[pl.proc as usize];
            if !(pl.start.is_finite() && pl.finish.is_finite())
                || pl.start < 0.0
                || (pl.finish - (pl.start + w)).abs() > TIME_EPS * (1.0 + pl.finish.abs())
            {
                error = Some(ScheduleError::BadInterval { node: i });
                continue;
            }
            let early = tree.children(i).iter().find(|&&c| {
                let cf = s.placement(c).finish;
                pl.start + TIME_EPS * (1.0 + cf.abs()) < cf
            });
            if let Some(&child) = early {
                error = Some(ScheduleError::DependencyViolated { parent: i, child });
                continue;
            }
            if comm && late.is_none() {
                late = self.late_transfer(s, tree, platform, i);
            }
            makespan = makespan.max(pl.finish);
        }
        if let Some(error) = error {
            return Err(error);
        }
        self.sort_starts(s, tree, order);
        // walking the start order, each task meets the previous task on
        // its processor: the per-processor start order, ties by id. A
        // zero-work task's empty interval holds nothing, so it is neither
        // tested nor kept as its processor's previous task
        self.last.clear();
        self.last.resize(s.processors as usize, u32::MAX);
        let mut overlap: Option<ScheduleError> = None;
        for &e in &self.starts {
            let b = node(e);
            if tree.work(b) == 0.0 {
                continue;
            }
            let proc = s.placement(b).proc;
            let a = std::mem::replace(&mut self.last[proc as usize], b.0);
            if a == u32::MAX {
                continue;
            }
            let fa = s.placements[a as usize].finish;
            let sb = s.placement(b).start;
            let lower = match overlap {
                Some(ScheduleError::Overlap { proc: first, .. }) => proc < first,
                _ => true,
            };
            if lower && sb + TIME_EPS * (1.0 + fa.abs()) < fa {
                overlap = Some(ScheduleError::Overlap {
                    a: NodeId(a),
                    b,
                    proc,
                });
                if proc == 0 {
                    break;
                }
            }
        }
        match overlap.or(late) {
            Some(error) => Err(error),
            None => Ok(makespan),
        }
    }

    /// The first child of `i` whose output has not crossed into `i`'s
    /// domain by `i`'s start. A child on a processor outside the platform
    /// is skipped: its own check reports it first.
    fn late_transfer(
        &self,
        s: &Schedule,
        tree: &TaskTree,
        platform: &Platform,
        i: NodeId,
    ) -> Option<ScheduleError> {
        let domain = |proc: u32| match self.domains.get(proc as usize) {
            Some(&d) if d != u32::MAX => Some(d as usize),
            _ => None,
        };
        let pl = s.placement(i);
        let dst = domain(pl.proc);
        tree.children(i).iter().find_map(|&c| {
            let cp = s.placement(c);
            let cost = match (domain(cp.proc), dst) {
                (Some(src), Some(dst)) => platform.comm_cost(src, dst),
                _ => 0.0,
            };
            let earliest = cp.finish + tree.output(c) * cost;
            (pl.start + TIME_EPS * (1.0 + earliest.abs()) < earliest).then_some(
                ScheduleError::DependencyViolated {
                    parent: i,
                    child: c,
                },
            )
        })
    }

    /// Records and sorts the finish keys, starting from `order`, and sweeps
    /// the memory over both orders: a task allocates `n_i + f_i` when it
    /// starts and frees its release when it finishes. Returns the global
    /// peak; with `domains > 0` (and `self.domains` filled) leaves the
    /// per-domain peaks in `self.peaks`; with `profile`, appends the memory
    /// after each instant.
    ///
    /// At one instant, finishing tasks free in id order, then starting
    /// tasks allocate in id order. A domain frees its finishing tasks'
    /// programs first, then their children's outputs, parent by parent.
    fn sweep(
        &mut self,
        s: &Schedule,
        tree: &TaskTree,
        domains: usize,
        mut profile: Option<&mut Vec<(f64, f64)>>,
        order: &[NodeId],
    ) -> f64 {
        let EvalScratch {
            starts,
            finishes,
            runs,
            domains: domain_of,
            held,
            peaks,
            ..
        } = self;
        let at = |pl: &Placement| pl.finish;
        sorted_events(finishes, runs, &s.placements[..tree.len()], order, at);
        let releases = tree.releases();
        held.clear();
        held.resize(domains, 0.0);
        peaks.clear();
        peaks.resize(domains, 0.0);
        let domain = |i: NodeId| match domain_of[s.placement(i).proc as usize] {
            u32::MAX => None,
            d => Some(d as usize),
        };
        let mut add = |d: usize, delta: f64| {
            held[d] += delta;
            if held[d] > peaks[d] {
                peaks[d] = held[d];
            }
        };
        let (mut cur, mut peak) = (0.0f64, 0.0f64);
        let mut step = |e: EventKey, delta: f64| {
            cur += delta;
            if cur > peak {
                peak = cur;
            }
            if let Some(out) = profile.as_deref_mut() {
                let t = time(e);
                match out.last_mut() {
                    Some(last) if last.0 == t => last.1 = cur,
                    _ => out.push((t, cur)),
                }
            }
        };
        instants(starts, finishes, |finishing, starting| {
            for &e in finishing {
                step(e, releases[node(e).index()]);
            }
            if domains > 0 {
                for &e in finishing {
                    if let Some(d) = domain(node(e)) {
                        add(d, -tree.exec(node(e)));
                    }
                }
                for &e in finishing {
                    for &c in tree.children(node(e)) {
                        if let Some(d) = domain(c) {
                            add(d, -tree.output(c));
                        }
                    }
                }
            }
            for &e in starting {
                let i = node(e);
                let alloc = tree.exec(i) + tree.output(i);
                step(e, alloc);
                if domains > 0 {
                    if let Some(d) = domain(i) {
                        add(d, alloc);
                    }
                }
            }
        });
        peak
    }
}

/// Fills `keys` with the events of `placements` at the time `at` reads,
/// sorted. Pushed in `order`, the keys are sorted by merging their
/// ascending runs ([`merge_runs`]), unless they arrive sorted; the result
/// counts when it is strictly increasing with one key per task, since
/// only a permutation of the tasks gives that. Otherwise, and for an
/// empty `order`, the keys are pushed in id order and sorted.
fn sorted_events(
    keys: &mut Vec<EventKey>,
    runs: &mut Vec<EventKey>,
    placements: &[Placement],
    order: &[NodeId],
    at: impl Fn(&Placement) -> f64,
) {
    let n = placements.len();
    keys.clear();
    keys.reserve(n);
    if order.len() == n {
        // whether the keys arrive strictly increasing (`None` is less
        // than any key), so that a sorted order costs this one pass
        let mut strict = true;
        for &i in order {
            let Some(pl) = placements.get(i.index()) else {
                keys.clear();
                break;
            };
            let key = event(at(pl), i.0);
            strict &= keys.last() < Some(&key);
            keys.push(key);
        }
        if !strict {
            merge_runs(keys, runs);
            strict = keys.windows(2).all(|w| w[0] < w[1]);
        }
        if strict && keys.len() == n {
            return;
        }
        keys.clear();
    }
    keys.extend(placements.iter().zip(0..).map(|(pl, i)| event(at(pl), i)));
    keys.sort_unstable();
}

/// Sorts `keys` by merging neighbouring ascending runs into `runs`, pass
/// after pass, swapping the two buffers, until one run is left: one
/// linear scan when `keys` is sorted already, `O(n log r)` for `r` runs.
fn merge_runs(keys: &mut Vec<EventKey>, runs: &mut Vec<EventKey>) {
    while run_end(keys, 0) < keys.len() {
        runs.clear();
        runs.reserve(keys.len());
        let mut i = 0;
        while i < keys.len() {
            let mid = run_end(keys, i);
            let end = run_end(keys, mid);
            let (mut a, mut b) = (i, mid);
            while a < mid && b < end {
                if keys[b] < keys[a] {
                    runs.push(keys[b]);
                    b += 1;
                } else {
                    runs.push(keys[a]);
                    a += 1;
                }
            }
            runs.extend_from_slice(&keys[a..mid]);
            runs.extend_from_slice(&keys[b..end]);
            i = end;
        }
        std::mem::swap(keys, runs);
    }
}

/// The end of the non-decreasing run of `keys` that starts at `i`. Equal
/// keys (a duplicate in the order) stay in one run, so every pass of
/// [`merge_runs`] halves the runs and the merge ends.
fn run_end(keys: &[EventKey], i: usize) -> usize {
    let mut j = i + 1;
    while j < keys.len() && keys[j - 1] <= keys[j] {
        j += 1;
    }
    j.min(keys.len())
}

/// Walks two sorted key arrays one instant at a time, earliest first:
/// calls `at` with the tasks finishing and the tasks starting at that
/// instant (either may be empty), each in id order.
fn instants(
    starts: &[EventKey],
    finishes: &[EventKey],
    mut at: impl FnMut(&[EventKey], &[EventKey]),
) {
    let (mut a, mut f) = (0, 0);
    while a < starts.len() || f < finishes.len() {
        let t = match (starts.get(a), finishes.get(f)) {
            (Some(&st), Some(&fi)) => instant(st).min(instant(fi)),
            (Some(&st), None) => instant(st),
            (None, Some(&fi)) => instant(fi),
            (None, None) => unreachable!("the loop condition"),
        };
        let (f0, a0) = (f, a);
        while f < finishes.len() && instant(finishes[f]) == t {
            f += 1;
        }
        while a < starts.len() && instant(starts[a]) == t {
            a += 1;
        }
        at(&finishes[f0..f], &starts[a0..a]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treesched_model::TaskTree;

    fn place(proc: u32, start: f64, w: f64) -> Placement {
        Placement {
            proc,
            start,
            finish: start + w,
        }
    }

    /// Sequential schedule of a fork: leaves then root on one processor.
    #[test]
    fn sequential_fork_schedule() {
        let t = TaskTree::fork(3, 1.0, 1.0, 0.0);
        let s = Schedule {
            processors: 1,
            placements: vec![
                place(0, 3.0, 1.0),
                place(0, 0.0, 1.0),
                place(0, 1.0, 1.0),
                place(0, 2.0, 1.0),
            ],
        };
        assert!(s.validate(&t).is_ok());
        assert_eq!(s.makespan(), 4.0);
        // peak = 3 leaf files + root file while root runs
        assert_eq!(s.peak_memory(&t), 4.0);
        assert_eq!(s.max_concurrency(), 1);
    }

    /// Parallel schedule of the same fork on 3 processors: all leaves at
    /// once.
    #[test]
    fn parallel_fork_schedule() {
        let t = TaskTree::fork(3, 1.0, 1.0, 0.0);
        let s = Schedule {
            processors: 3,
            placements: vec![
                place(0, 1.0, 1.0),
                place(0, 0.0, 1.0),
                place(1, 0.0, 1.0),
                place(2, 0.0, 1.0),
            ],
        };
        assert!(s.validate(&t).is_ok());
        assert_eq!(s.makespan(), 2.0);
        // while leaves run: 3 files; while root runs: 3 inputs + 1 output
        assert_eq!(s.peak_memory(&t), 4.0);
        assert_eq!(s.max_concurrency(), 3);
    }

    #[test]
    fn detects_dependency_violation() {
        let t = TaskTree::chain(2, 1.0, 1.0, 0.0);
        // root (node 0) starts at 0, child (node 1) at 0 too
        let s = Schedule {
            processors: 2,
            placements: vec![place(0, 0.0, 1.0), place(1, 0.0, 1.0)],
        };
        assert!(matches!(
            s.validate(&t),
            Err(ScheduleError::DependencyViolated { .. })
        ));
    }

    #[test]
    fn detects_overlap() {
        let t = TaskTree::fork(2, 1.0, 1.0, 0.0);
        // the two leaves overlap on processor 0; the root starts late enough
        // that no dependency is violated
        let s = Schedule {
            processors: 1,
            placements: vec![place(0, 2.0, 1.0), place(0, 0.0, 1.0), place(0, 0.5, 1.0)],
        };
        assert!(matches!(s.validate(&t), Err(ScheduleError::Overlap { .. })));
    }

    #[test]
    fn detects_bad_processor_and_interval() {
        let t = TaskTree::chain(1, 1.0, 1.0, 0.0);
        let s = Schedule {
            processors: 1,
            placements: vec![place(5, 0.0, 1.0)],
        };
        assert!(matches!(
            s.validate(&t),
            Err(ScheduleError::BadProcessor { .. })
        ));
        let s = Schedule {
            processors: 1,
            placements: vec![Placement {
                proc: 0,
                start: 0.0,
                finish: 0.5,
            }],
        };
        assert!(matches!(
            s.validate(&t),
            Err(ScheduleError::BadInterval { .. })
        ));
    }

    #[test]
    fn back_to_back_on_same_processor_is_ok() {
        let t = TaskTree::chain(3, 2.0, 1.0, 0.0);
        // nodes: 0 root, 1 mid, 2 leaf; run leaf, mid, root back to back
        let s = Schedule {
            processors: 1,
            placements: vec![place(0, 4.0, 2.0), place(0, 2.0, 2.0), place(0, 0.0, 2.0)],
        };
        assert!(s.validate(&t).is_ok());
        assert_eq!(s.peak_memory(&t), 2.0);
    }

    #[test]
    fn memory_frees_before_allocating_at_same_instant() {
        // chain a <- b: b finishes at 1, a starts at 1. During a: f_b + f_a.
        let t = TaskTree::chain(2, 1.0, 5.0, 0.0);
        let s = Schedule {
            processors: 1,
            placements: vec![place(0, 1.0, 1.0), place(0, 0.0, 1.0)],
        };
        // peak: while a runs: input 5 + output 5 = 10 (not 15)
        assert_eq!(s.peak_memory(&t), 10.0);
    }

    #[test]
    fn profile_tracks_events() {
        let t = TaskTree::fork(2, 1.0, 1.0, 0.0);
        let s = Schedule {
            processors: 2,
            placements: vec![place(0, 1.0, 1.0), place(0, 0.0, 1.0), place(1, 0.0, 1.0)],
        };
        let prof = s.memory_profile(&t);
        // t=0: two leaf outputs allocated -> 2; t=1: leaves keep files, root
        // adds its own -> 3; t=2: root frees inputs -> 1
        assert_eq!(prof, vec![(0.0, 2.0), (1.0, 3.0), (2.0, 1.0)]);
    }

    #[test]
    fn profile_reports_the_level_after_simultaneous_frees() {
        // both leaves free their programs at 1; the root starts at 2, so
        // memory over [1, 2) is the two leaf outputs alone
        let t = TaskTree::fork(2, 1.0, 1.0, 1.0);
        let s = Schedule {
            processors: 2,
            placements: vec![place(0, 2.0, 1.0), place(0, 0.0, 1.0), place(1, 0.0, 1.0)],
        };
        assert_eq!(
            s.memory_profile(&t),
            vec![(0.0, 4.0), (1.0, 2.0), (2.0, 4.0), (3.0, 1.0)]
        );
        assert_eq!(s.peak_memory(&t), 4.0);
    }

    #[test]
    fn utilization_and_speedup() {
        // fork: 3 leaves in parallel then the root — 4 units of work in 2
        // time units (the metrics depend only on the placements)
        let s = Schedule {
            processors: 3,
            placements: vec![
                place(0, 1.0, 1.0),
                place(0, 0.0, 1.0),
                place(1, 0.0, 1.0),
                place(2, 0.0, 1.0),
            ],
        };
        assert_eq!(s.loads(), vec![2.0, 1.0, 1.0]);
        assert!((s.speedup() - 2.0).abs() < 1e-12);
        assert!((s.utilization() - 2.0 / 3.0).abs() < 1e-12);
        // sequential schedule: speedup 1, utilization 1 on p = 1
        let seq = Schedule {
            processors: 1,
            placements: vec![
                place(0, 3.0, 1.0),
                place(0, 0.0, 1.0),
                place(0, 1.0, 1.0),
                place(0, 2.0, 1.0),
            ],
        };
        assert_eq!(seq.speedup(), 1.0);
        assert_eq!(seq.utilization(), 1.0);
    }

    #[test]
    fn try_evaluate_rejects_invalid() {
        let t = TaskTree::chain(2, 1.0, 1.0, 0.0);
        let s = Schedule {
            processors: 1,
            placements: vec![place(0, 0.0, 1.0), place(0, 0.0, 1.0)],
        };
        assert!(try_evaluate(&t, &s).is_err());
    }

    /// Counts the allocations of the calling thread only, so the count is
    /// not disturbed by tests running in parallel.
    struct Counting;

    thread_local! {
        static ALLOCATIONS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    unsafe impl std::alloc::GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
            ALLOCATIONS.with(|n| n.set(n.get() + 1));
            std::alloc::System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
            std::alloc::System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static COUNTING: Counting = Counting;

    #[test]
    fn a_warm_evaluator_does_not_allocate() {
        use crate::api::{ProcClass, Request, SchedulerRegistry, Scratch};
        let t = TaskTree::complete(3, 4, 1.0, 2.0, 0.5);
        // speeds, two domains and transfer costs: every table is in use
        let platform =
            Platform::heterogeneous(vec![ProcClass::new(2, 1.0), ProcClass::new(2, 2.0)])
                .with_domain(1e9, &[0])
                .with_domain(1e9, &[1])
                .with_comm(vec![0.0, 0.5, 0.5, 0.0]);
        let registry = SchedulerRegistry::standard();
        let s = (registry.get("deepest").unwrap())
            .schedule(&Request::new(&t, platform.clone()), &mut Scratch::new())
            .unwrap()
            .schedule;
        let mut eval = EvalScratch::default();
        let none = Orders::default();
        let cold = eval.evaluate(&s, &t, &platform, true, true, none).unwrap();
        let cold_peaks = eval.domain_peaks().to_vec();
        let before = ALLOCATIONS.with(|n| n.get());
        let warm = eval.evaluate(&s, &t, &platform, true, true, none).unwrap();
        assert_eq!(ALLOCATIONS.with(|n| n.get()), before);
        assert_eq!((warm, eval.domain_peaks()), (cold, &cold_peaks[..]));
    }
    /// `root 0 <- {1, 3, 4}`, `1 <- {2}`: node 1 has no work, so it
    /// starts and finishes at 1, with leaves 2 and 3. File sizes of mixed
    /// magnitude make a different summation order at a tie change bits.
    fn zero_work_tree() -> TaskTree {
        TaskTree::from_parents(
            &[None, Some(0), Some(1), Some(0), Some(0)],
            &[1.0, 0.0, 1.0, 1.0, 2.0],
            &[0.1, 1e6, 2.5, 1e-3, 0.3],
            &[7.0, 0.3, 1e-3, 2.5, 1e6],
        )
        .unwrap()
    }

    /// Everything [`EvalScratch::evaluate`] reports, floats as bits.
    fn evaluated(
        s: &Schedule,
        t: &TaskTree,
        platform: &Platform,
        orders: Orders<'_>,
    ) -> (Result<(u64, u64), ScheduleError>, Vec<u64>) {
        let mut eval = EvalScratch::default();
        let result = eval.evaluate(s, t, platform, true, true, orders);
        let peaks = eval.domain_peaks().iter().map(|p| p.to_bits()).collect();
        let bits = |e: EvalResult| (e.makespan.to_bits(), e.peak_memory.to_bits());
        (result.map(bits), peaks)
    }

    #[test]
    fn list_completions_break_their_run_at_a_zero_work_task() {
        use crate::listsched::{list_schedule, ListScratch, Speeds};
        let t = zero_work_tree();
        let keys: Vec<_> = (0..t.len() as u64).map(|i| (i, 0, 0)).collect();
        let mut list = ListScratch::default();
        let s = list_schedule(&t, Speeds::Unit(3), &keys, None, &mut list);
        // node 1 finishes at 1 with leaves 2 and 3, but is dispatched only
        // once they have finished, so its finish pops one round later
        let ids = |order: &[NodeId]| order.iter().map(|i| i.0).collect::<Vec<_>>();
        assert_eq!(ids(list.completion_order()), [2, 3, 1, 4, 0]);
        assert_eq!(ids(list.dispatch_order()), [2, 3, 4, 1, 0]);
        let platform = Platform::new(3).with_domain(1e12, &[0]);
        let orders = Orders {
            starts: list.dispatch_order(),
            finishes: list.completion_order(),
        };
        let got = evaluated(&s, &t, &platform, orders);
        assert!(got.0.is_ok());
        assert_eq!(got, evaluated(&s, &t, &platform, Orders::default()));
    }

    #[test]
    fn every_scheduler_serves_the_zero_work_tree() {
        use crate::api::{Request, SchedulerRegistry, Scratch};
        let t = zero_work_tree();
        let registry = SchedulerRegistry::standard();
        let mut scratch = Scratch::new();
        for p in 1..=4 {
            // a generous cap, so that the capped entries run too
            let platform = Platform::new(p).with_memory_cap(1e12);
            for entry in registry.iter() {
                let req = Request::new(&t, platform.clone());
                let out = entry.scheduler().schedule(&req, &mut scratch);
                assert!(out.is_ok(), "{} at p = {p}: {:?}", entry.name(), out.err());
            }
        }
    }

    #[test]
    fn a_bad_order_cannot_change_a_result() {
        use crate::heuristics::{par_subtrees, SeqAlgo, SubtreeScratch};
        use crate::listsched::{list_schedule, ListScratch, Speeds};
        let t = zero_work_tree();
        let n = t.len();
        let platform = Platform::new(3)
            .with_domain(1e12, &[0])
            .with_domain(1e12, &[1, 2]);
        let keys: Vec<_> = (0..n as u64).map(|i| (i, 0, 0)).collect();
        let mut list = ListScratch::default();
        let listed = list_schedule(&t, Speeds::Unit(3), &keys, None, &mut list);
        let mut sub = SubtreeScratch::new();
        let split = par_subtrees(&t, Speeds::Unit(3), SeqAlgo::BestPostorder, &mut sub);
        let placed = sub.placement_order();
        let cases = [
            (
                "list",
                listed,
                list.dispatch_order(),
                list.completion_order(),
            ),
            ("subtrees", split, placed, placed),
        ];
        for (what, valid, starts, finishes) in cases {
            // leaf 3 moved onto leaf 2's processor while leaf 2 runs
            let mut overlapping = valid.clone();
            overlapping.placements[3].proc = valid.placements[2].proc;
            overlapping.placements[3].start = valid.placements[2].start;
            overlapping.placements[3].finish = valid.placements[2].finish;
            let bad = |order: &[NodeId]| {
                let mut reversed = order.to_vec();
                reversed.reverse();
                let mut duplicate = order.to_vec();
                duplicate[n - 1] = order[0];
                let mut out_of_range = order.to_vec();
                out_of_range[0] = NodeId(n as u32);
                let short = order[..n - 1].to_vec();
                [order.to_vec(), reversed, duplicate, short, out_of_range]
            };
            let (starts, finishes) = (bad(starts), bad(finishes));
            for s in [&valid, &overlapping] {
                let want = evaluated(s, &t, &platform, Orders::default());
                for (k, (starts, finishes)) in starts.iter().zip(&finishes).enumerate() {
                    let orders = Orders { starts, finishes };
                    assert_eq!(
                        evaluated(s, &t, &platform, orders),
                        want,
                        "{what}, order {k}"
                    );
                }
            }
            assert!(evaluated(&valid, &t, &platform, Orders::default())
                .0
                .is_ok());
            assert!(matches!(
                evaluated(&overlapping, &t, &platform, Orders::default()).0,
                Err(ScheduleError::Overlap { .. })
            ));
        }
    }

    #[test]
    fn merging_runs_sorts_the_keys() {
        let sorted: Vec<EventKey> = (0..40).map(|k| k * 3).collect();
        let reversed: Vec<EventKey> = sorted.iter().rev().copied().collect();
        let three_runs = [&sorted[20..], &sorted[..7], &sorted[7..20]].concat();
        let ties = [&sorted[..30], &sorted[10..]].concat();
        let mut runs = Vec::new();
        for keys in [sorted.clone(), reversed, three_runs, ties, Vec::new()] {
            let mut want = keys.clone();
            want.sort_unstable();
            let mut got = keys;
            merge_runs(&mut got, &mut runs);
            assert_eq!(got, want);
        }
    }

    /// Allocations of a warm [`crate::api::Scheduler::schedule`] on a tree
    /// of more than a thousand nodes, where a stable sort's buffer no
    /// longer fits on the stack. The bounds are the counts measured before
    /// the schedulers handed the evaluator their orders: the returned
    /// placements and their copy for the list schedulers, plus the split's
    /// and the membership tables for the subtree heuristics.
    #[test]
    fn a_warm_scheduler_allocates_no_more_than_before() {
        use crate::api::{Request, SchedulerRegistry, Scratch};
        let mut x = 0x5eed_u64;
        let mut next = |bound: u64| {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        };
        let n = 1200;
        let parents: Vec<_> = (0..n).map(|i| (i > 0).then(|| next(i) as usize)).collect();
        let work: Vec<_> = (0..n).map(|_| (1 + next(4)) as f64).collect();
        let output: Vec<_> = (0..n)
            .map(|_| [0.0, 1.0, 2.5, 1e3][next(4) as usize])
            .collect();
        let exec: Vec<_> = (0..n).map(|_| next(3) as f64 * 0.5).collect();
        let t = TaskTree::from_parents(&parents, &work, &output, &exec).unwrap();
        let registry = SchedulerRegistry::standard();
        let bounds = [
            ("ParInnerFirst", 2),
            ("ParDeepestFirst", 2),
            ("ParSubtrees", 6),
            ("ParSubtreesOptim", 8),
        ];
        for (name, bound) in bounds {
            for p in [2, 4, 8] {
                let scheduler = registry.get(name).unwrap();
                let req = Request::new(&t, Platform::new(p));
                let mut scratch = Scratch::new();
                let cold = scheduler.schedule(&req, &mut scratch).unwrap();
                let before = ALLOCATIONS.with(|n| n.get());
                let warm = scheduler.schedule(&req, &mut scratch).unwrap();
                let count = ALLOCATIONS.with(|n| n.get()) - before;
                assert!(count <= bound, "{name} at p={p}: {count} > {bound}");
                assert_eq!((warm.schedule, warm.eval), (cold.schedule, cold.eval));
            }
        }
    }
}
