//! Parallel schedules and their evaluation (makespan + peak memory).
//!
//! Evaluation is platform-aware: [`Schedule::validate`] checks the paper's
//! unit-speed model, while [`Schedule::validate_on`] and [`try_evaluate_on`]
//! scale each task's expected execution time by the speed of its assigned
//! processor and additionally expose per-memory-domain peaks
//! ([`Schedule::domain_peaks`]) for NUMA-style platforms.

use crate::api::Platform;
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
        self.validate_with(tree, |_| 1.0)
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
        if self.placements.len() != tree.len() {
            return Err(ScheduleError::WrongLength {
                expected: tree.len(),
                got: self.placements.len(),
            });
        }
        let p = platform.processors();
        if let Some(i) = tree.ids().find(|&i| self.placement(i).proc >= p) {
            return Err(ScheduleError::BadProcessor {
                node: i,
                proc: self.placement(i).proc,
            });
        }
        self.validate_with(tree, |proc| platform.speed_of(proc))?;
        if platform.has_comm() {
            // domain of each processor, resolved once
            let domain = |proc: u32| platform.domain_of(proc);
            for i in tree.ids() {
                let pl = self.placement(i);
                let dst = domain(pl.proc);
                for &c in tree.children(i) {
                    let cp = self.placement(c);
                    let cost = match (domain(cp.proc), dst) {
                        (Some(src), Some(dst)) => platform.comm_cost(src, dst),
                        _ => 0.0,
                    };
                    let earliest = cp.finish + tree.output(c) * cost;
                    if pl.start + TIME_EPS * (1.0 + earliest.abs()) < earliest {
                        return Err(ScheduleError::DependencyViolated {
                            parent: i,
                            child: c,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    fn validate_with(
        &self,
        tree: &TaskTree,
        speed_of: impl Fn(u32) -> f64,
    ) -> Result<(), ScheduleError> {
        let n = tree.len();
        if self.placements.len() != n {
            return Err(ScheduleError::WrongLength {
                expected: n,
                got: self.placements.len(),
            });
        }
        for i in tree.ids() {
            let pl = self.placement(i);
            if pl.proc >= self.processors {
                return Err(ScheduleError::BadProcessor {
                    node: i,
                    proc: pl.proc,
                });
            }
            let w = tree.work(i) / speed_of(pl.proc);
            if !(pl.start.is_finite() && pl.finish.is_finite())
                || pl.start < 0.0
                || (pl.finish - (pl.start + w)).abs() > TIME_EPS * (1.0 + pl.finish.abs())
            {
                return Err(ScheduleError::BadInterval { node: i });
            }
            for &c in tree.children(i) {
                let cf = self.placement(c).finish;
                if pl.start + TIME_EPS * (1.0 + cf.abs()) < cf {
                    return Err(ScheduleError::DependencyViolated {
                        parent: i,
                        child: c,
                    });
                }
            }
        }
        // per-processor overlap check
        let mut by_proc: Vec<Vec<NodeId>> = vec![Vec::new(); self.processors as usize];
        for i in tree.ids() {
            by_proc[self.placement(i).proc as usize].push(i);
        }
        for (proc, tasks) in by_proc.iter_mut().enumerate() {
            tasks.sort_by(|&a, &b| self.placement(a).start.total_cmp(&self.placement(b).start));
            for pair in tasks.windows(2) {
                let (a, b) = (pair[0], pair[1]);
                let fa = self.placement(a).finish;
                let sb = self.placement(b).start;
                if sb + TIME_EPS * (1.0 + fa.abs()) < fa {
                    return Err(ScheduleError::Overlap {
                        a,
                        b,
                        proc: proc as u32,
                    });
                }
            }
        }
        Ok(())
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
        #[derive(Clone, Copy)]
        struct Ev {
            time: f64,
            /// 0 = finish (free), 1 = start (allocate)
            phase: u8,
            delta: f64,
        }
        let mut evs = Vec::with_capacity(tree.len() * 2);
        for i in tree.ids() {
            let pl = self.placement(i);
            evs.push(Ev {
                time: pl.start,
                phase: 1,
                delta: tree.exec(i) + tree.output(i),
            });
            evs.push(Ev {
                time: pl.finish,
                phase: 0,
                delta: -(tree.exec(i) + tree.input_size(i)),
            });
        }
        evs.sort_by(|a, b| a.time.total_cmp(&b.time).then(a.phase.cmp(&b.phase)));
        let mut cur = 0.0f64;
        let mut peak = 0.0f64;
        for e in evs {
            cur += e.delta;
            if cur > peak {
                peak = cur;
            }
        }
        peak
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
        let n_domains = platform.domains().len();
        if n_domains == 0 {
            return Vec::new();
        }
        // (time, phase, domain, delta): frees (phase 0) before allocations
        // (phase 1) at equal instants, exactly like the global sweep
        let mut evs: Vec<(f64, u8, usize, f64)> = Vec::with_capacity(tree.len() * 2);
        for i in tree.ids() {
            let pl = self.placement(i);
            let Some(d) = platform.domain_of(pl.proc) else {
                continue;
            };
            evs.push((pl.start, 1, d, tree.exec(i) + tree.output(i)));
            evs.push((pl.finish, 0, d, -tree.exec(i)));
        }
        // input files are freed from the producing child's domain when the
        // parent finishes (the root's output stays resident to the end)
        for i in tree.ids() {
            let finish = self.placement(i).finish;
            for &c in tree.children(i) {
                if let Some(d) = platform.domain_of(self.placement(c).proc) {
                    evs.push((finish, 0, d, -tree.output(c)));
                }
            }
        }
        evs.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut cur = vec![0.0f64; n_domains];
        let mut peak = vec![0.0f64; n_domains];
        for (_, _, d, delta) in evs {
            cur[d] += delta;
            if cur[d] > peak[d] {
                peak[d] = cur[d];
            }
        }
        peak
    }

    /// Memory profile sampled at every event instant (after applying the
    /// instant's frees and allocations). Returns `(time, memory)` pairs,
    /// useful for plotting.
    pub fn memory_profile(&self, tree: &TaskTree) -> Vec<(f64, f64)> {
        let mut evs: Vec<(f64, u8, f64)> = Vec::with_capacity(tree.len() * 2);
        for i in tree.ids() {
            let pl = self.placement(i);
            evs.push((pl.start, 1, tree.exec(i) + tree.output(i)));
            evs.push((pl.finish, 0, -(tree.exec(i) + tree.input_size(i))));
        }
        evs.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut out: Vec<(f64, f64)> = Vec::new();
        let mut cur = 0.0;
        for (t, _, d) in evs {
            cur += d;
            match out.last_mut() {
                Some(last) if last.0 == t => last.1 = last.1.max(cur),
                _ => out.push((t, cur)),
            }
        }
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
        let mut evs: Vec<(f64, i32, u8)> = Vec::with_capacity(self.placements.len() * 2);
        for pl in &self.placements {
            evs.push((pl.start, 1, 1));
            evs.push((pl.finish, -1, 0));
        }
        evs.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.2.cmp(&b.2)));
        let mut cur = 0i32;
        let mut peak = 0i32;
        for (_, d, _) in evs {
            cur += d;
            peak = peak.max(cur);
        }
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
    schedule.validate(tree)?;
    Ok(EvalResult {
        makespan: schedule.makespan(),
        peak_memory: schedule.peak_memory(tree),
    })
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
    schedule.validate_on(tree, platform)?;
    Ok(EvalResult {
        makespan: schedule.makespan(),
        peak_memory: schedule.peak_memory(tree),
    })
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
}
