//! The schedule evaluator against the sort-based passes it replaced, kept
//! here as the oracle.
//!
//! The `reference_*` functions are the per-processor validator and the
//! three event sorts (global peak, per-domain peaks, memory profile) as
//! they stood before evaluation was fused into one sweep. Every registry
//! scheduler's schedule, and a family of broken variants of it, must get
//! the same `Result` (error payload included) and bit-identical makespan,
//! peak, per-domain peaks and memory profile from both.
//!
//! Trees use integer works (zero included), so equal-instant ties are
//! common, and file sizes of mixed magnitude, so a different summation
//! order at a tie changes the bits. Cases derive from `PROPTEST_SEED`;
//! `PROPTEST_CASES` raises the count.

use proptest::prelude::*;
use treesched_core::api::{Platform, ProcClass, Request, SchedError, SchedulerRegistry, Scratch};
use treesched_core::{try_evaluate, try_evaluate_on, Placement, Schedule, ScheduleError};
use treesched_gen::{assembly_corpus, Scale};
use treesched_model::{NodeId, TaskTree};

const TIME_EPS: f64 = 1e-9;

fn reference_validate(s: &Schedule, tree: &TaskTree) -> Result<(), ScheduleError> {
    reference_validate_with(s, tree, |_| 1.0)
}

fn reference_validate_on(
    s: &Schedule,
    tree: &TaskTree,
    platform: &Platform,
) -> Result<(), ScheduleError> {
    if s.placements.len() != tree.len() {
        return Err(ScheduleError::WrongLength {
            expected: tree.len(),
            got: s.placements.len(),
        });
    }
    let p = platform.processors();
    if let Some(i) = tree.ids().find(|&i| s.placement(i).proc >= p) {
        return Err(ScheduleError::BadProcessor {
            node: i,
            proc: s.placement(i).proc,
        });
    }
    reference_validate_with(s, tree, |proc| platform.speed_of(proc))?;
    if platform.has_comm() {
        // domain of each processor, resolved once
        let domain = |proc: u32| platform.domain_of(proc);
        for i in tree.ids() {
            let pl = s.placement(i);
            let dst = domain(pl.proc);
            for &c in tree.children(i) {
                let cp = s.placement(c);
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

fn reference_validate_with(
    s: &Schedule,
    tree: &TaskTree,
    speed_of: impl Fn(u32) -> f64,
) -> Result<(), ScheduleError> {
    let n = tree.len();
    if s.placements.len() != n {
        return Err(ScheduleError::WrongLength {
            expected: n,
            got: s.placements.len(),
        });
    }
    for i in tree.ids() {
        let pl = s.placement(i);
        if pl.proc >= s.processors {
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
            let cf = s.placement(c).finish;
            if pl.start + TIME_EPS * (1.0 + cf.abs()) < cf {
                return Err(ScheduleError::DependencyViolated {
                    parent: i,
                    child: c,
                });
            }
        }
    }
    // per-processor overlap check; a zero-work task holds nothing
    let mut by_proc: Vec<Vec<NodeId>> = vec![Vec::new(); s.processors as usize];
    for i in tree.ids().filter(|&i| tree.work(i) != 0.0) {
        by_proc[s.placement(i).proc as usize].push(i);
    }
    for (proc, tasks) in by_proc.iter_mut().enumerate() {
        tasks.sort_by(|&a, &b| s.placement(a).start.total_cmp(&s.placement(b).start));
        for pair in tasks.windows(2) {
            let (a, b) = (pair[0], pair[1]);
            let fa = s.placement(a).finish;
            let sb = s.placement(b).start;
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

fn reference_makespan(s: &Schedule) -> f64 {
    s.placements.iter().map(|t| t.finish).fold(0.0, f64::max)
}

fn reference_peak_memory(s: &Schedule, tree: &TaskTree) -> f64 {
    #[derive(Clone, Copy)]
    struct Ev {
        time: f64,
        /// 0 = finish (free), 1 = start (allocate)
        phase: u8,
        delta: f64,
    }
    let mut evs = Vec::with_capacity(tree.len() * 2);
    for i in tree.ids() {
        let pl = s.placement(i);
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

fn reference_domain_peaks(s: &Schedule, tree: &TaskTree, platform: &Platform) -> Vec<f64> {
    let n_domains = platform.domains().len();
    if n_domains == 0 {
        return Vec::new();
    }
    // (time, phase, domain, delta): frees (phase 0) before allocations
    // (phase 1) at equal instants, exactly like the global sweep
    let mut evs: Vec<(f64, u8, usize, f64)> = Vec::with_capacity(tree.len() * 2);
    for i in tree.ids() {
        let pl = s.placement(i);
        let Some(d) = platform.domain_of(pl.proc) else {
            continue;
        };
        evs.push((pl.start, 1, d, tree.exec(i) + tree.output(i)));
        evs.push((pl.finish, 0, d, -tree.exec(i)));
    }
    // input files are freed from the producing child's domain when the
    // parent finishes (the root's output stays resident to the end)
    for i in tree.ids() {
        let finish = s.placement(i).finish;
        for &c in tree.children(i) {
            if let Some(d) = platform.domain_of(s.placement(c).proc) {
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

/// The old profile sort with its simultaneous-free bug fixed: each
/// instant reports the memory after *all* of its events, not the largest
/// value seen while applying them.
fn reference_memory_profile(s: &Schedule, tree: &TaskTree) -> Vec<(f64, f64)> {
    let mut evs: Vec<(f64, u8, f64)> = Vec::with_capacity(tree.len() * 2);
    for i in tree.ids() {
        let pl = s.placement(i);
        evs.push((pl.start, 1, tree.exec(i) + tree.output(i)));
        evs.push((pl.finish, 0, -(tree.exec(i) + tree.input_size(i))));
    }
    evs.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut out: Vec<(f64, f64)> = Vec::new();
    let mut cur = 0.0;
    for (t, _, d) in evs {
        cur += d;
        match out.last_mut() {
            Some(last) if last.0 == t => last.1 = cur,
            _ => out.push((t, cur)),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// splitmix64: the per-case source of tree shapes, weights and mutations.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn pick<T: Copy>(&mut self, from: &[T]) -> T {
        from[self.below(from.len())]
    }
}

/// File sizes of mixed magnitude: their sums round, so the order in which
/// simultaneous events are summed shows in the bits.
const SIZES: [f64; 8] = [0.0, 0.1, 0.3, 1.0, 2.5, 1e-3, 7.0, 1e6];

/// A random tree of `n` nodes with shuffled ids (parents may carry larger
/// ids than their children), integer works in `0..=3` and mixed sizes.
fn random_tree(n: usize, rng: &mut Mix) -> TaskTree {
    let mut label: Vec<usize> = (0..n).collect();
    for k in (1..n).rev() {
        label.swap(k, rng.below(k + 1));
    }
    let mut parents = vec![None; n];
    for k in 1..n {
        parents[label[k]] = Some(label[rng.below(k)]);
    }
    let work: Vec<f64> = (0..n).map(|_| rng.below(4) as f64).collect();
    let output: Vec<f64> = (0..n).map(|_| rng.pick(&SIZES)).collect();
    let exec: Vec<f64> = (0..n).map(|_| rng.pick(&SIZES)).collect();
    TaskTree::from_parents(&parents, &work, &output, &exec).expect("a valid tree")
}

/// Flat, mixed-speed, two-domain (one class outside every domain) and
/// comm-bearing platforms. The caps are generous, so the memory-capped
/// schedulers run on every shape that has a domain.
fn platforms() -> Vec<(&'static str, Platform)> {
    let cap = 1e12;
    let two = || Platform::heterogeneous(vec![ProcClass::new(2, 1.0), ProcClass::new(1, 1.0)]);
    vec![
        ("flat-1", Platform::new(1).with_memory_cap(cap)),
        ("flat-3", Platform::new(3).with_memory_cap(cap)),
        (
            "mixed-speed",
            Platform::heterogeneous(vec![ProcClass::new(2, 2.0), ProcClass::new(2, 0.5)])
                .with_memory_cap(cap),
        ),
        (
            "two-domain",
            Platform::heterogeneous(vec![
                ProcClass::new(2, 1.0),
                ProcClass::new(1, 2.0),
                ProcClass::new(1, 1.0),
            ])
            .with_domain(cap, &[0])
            .with_domain(cap, &[1]),
        ),
        (
            "comm",
            two()
                .with_domain(cap, &[0])
                .with_domain(cap, &[1])
                .with_comm(vec![0.0, 0.5, 0.5, 0.0]),
        ),
    ]
}

/// Broken (and a few still-valid) variants of a valid schedule: a start
/// moved before a child's finish, two tasks overlapping on one processor,
/// out-of-range processors, NaN/∞/negative/`-0.0` times, a shifted task,
/// a processor count that disagrees with the platform, and wrong lengths.
fn mutants(s: &Schedule, tree: &TaskTree, platform: &Platform, rng: &mut Mix) -> Vec<Schedule> {
    let n = s.placements.len();
    let p = platform.processors();
    let mut out = Vec::new();
    let mut with = |f: &mut dyn FnMut(&mut Schedule)| {
        let mut m = s.clone();
        f(&mut m);
        out.push(m);
    };
    let duration = |i: usize, proc: u32| tree.work(NodeId(i as u32)) / platform.speed_of(proc);
    // a parent starting before one of its children finishes
    let parents: Vec<usize> = (0..n)
        .filter(|&i| !tree.is_leaf(NodeId(i as u32)))
        .collect();
    if !parents.is_empty() {
        let i = rng.pick(&parents);
        let c = rng.pick(tree.children(NodeId(i as u32))).index();
        let back = rng.pick(&[0.5, 1.0, 2.0]);
        with(&mut |m| {
            let pl = &mut m.placements[i];
            pl.start = (s.placements[c].finish - back).max(0.0);
            pl.finish = pl.start + duration(i, pl.proc);
        });
    }
    // two tasks on one processor at the same instant
    if n >= 2 {
        let (a, b) = (rng.below(n), rng.below(n));
        if a != b {
            with(&mut |m| {
                let (proc, start) = (s.placements[a].proc, s.placements[a].start);
                m.placements[b] = Placement {
                    proc,
                    start,
                    finish: start + duration(b, proc),
                };
            });
        }
    }
    // everything folded onto processors 0 and 1 at unchanged starts:
    // overlaps on both, and the earlier one not always on processor 0
    if p >= 2 {
        with(&mut |m| {
            for (i, pl) in m.placements.iter_mut().enumerate() {
                pl.proc = rng.below(2) as u32;
                pl.finish = pl.start + duration(i, pl.proc);
            }
        });
    }
    // a random task moved to another processor and shifted by whole units
    let (i, proc, shift) = (rng.below(n), rng.below(p as usize) as u32, rng.below(5));
    with(&mut |m| {
        let start = s.placements[i].start + shift as f64 - 2.0;
        m.placements[i] = Placement {
            proc,
            start,
            finish: start + duration(i, proc),
        };
    });
    // processors out of range: of the platform, of the schedule, of both
    let i = rng.below(n);
    for bad in [p, p + 3, u32::MAX] {
        with(&mut |m| m.placements[i].proc = bad);
    }
    with(&mut |m| m.processors = p.saturating_sub(1));
    with(&mut |m| m.processors = p + 2);
    // a broken interval and, at another task, a processor outside the
    // platform: which one is reported depends on the entry point
    let (i, j) = (rng.below(n), rng.below(n));
    if i != j {
        with(&mut |m| {
            m.placements[i].finish += 0.5;
            m.placements[j].proc = p;
        });
    }
    // non-finite, negative and negative-zero times
    let i = rng.below(n);
    with(&mut |m| m.placements[i].start = f64::NAN);
    with(&mut |m| m.placements[i].finish = f64::INFINITY);
    with(&mut |m| {
        m.placements[i].start = f64::NEG_INFINITY;
        m.placements[i].finish = f64::NEG_INFINITY;
    });
    with(&mut |m| {
        m.placements[i].start = -1.0;
        m.placements[i].finish = -1.0 + duration(i, m.placements[i].proc);
    });
    with(&mut |m| {
        for pl in m.placements.iter_mut().filter(|pl| pl.start == 0.0) {
            pl.start = -0.0;
            if pl.finish == 0.0 {
                pl.finish = -0.0;
            }
        }
    });
    out
}

// ---------------------------------------------------------------------------
// The comparison
// ---------------------------------------------------------------------------

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn profile_bits(v: &[(f64, f64)]) -> Vec<(u64, u64)> {
    v.iter().map(|&(t, m)| (t.to_bits(), m.to_bits())).collect()
}

/// The evaluation of `s` by the reference passes, in the shape
/// [`try_evaluate_on`] returns, with the floats as bits.
fn reference_evaluate(
    s: &Schedule,
    tree: &TaskTree,
    validation: Result<(), ScheduleError>,
) -> Result<(u64, u64), ScheduleError> {
    validation.map(|()| {
        (
            reference_makespan(s).to_bits(),
            reference_peak_memory(s, tree).to_bits(),
        )
    })
}

/// Asserts every public evaluation entry point agrees with the oracle on
/// `s`. Returns whether `s` is valid on `platform`.
fn check(
    what: &str,
    s: &Schedule,
    tree: &TaskTree,
    platform: &Platform,
) -> Result<bool, TestCaseError> {
    let valid = reference_validate(s, tree);
    prop_assert_eq!(s.validate(tree), valid.clone(), "{}: validate", what);
    let valid_on = reference_validate_on(s, tree, platform);
    prop_assert_eq!(
        s.validate_on(tree, platform),
        valid_on.clone(),
        "{}: validate_on",
        what
    );
    let as_bits = |r: Result<treesched_core::EvalResult, ScheduleError>| {
        r.map(|e| (e.makespan.to_bits(), e.peak_memory.to_bits()))
    };
    prop_assert_eq!(
        as_bits(try_evaluate(tree, s)),
        reference_evaluate(s, tree, valid),
        "{}: try_evaluate",
        what
    );
    prop_assert_eq!(
        as_bits(try_evaluate_on(tree, s, platform)),
        reference_evaluate(s, tree, valid_on.clone()),
        "{}: try_evaluate_on",
        what
    );
    if s.placements.len() != tree.len() {
        return Ok(false); // the sweeps index every node's placement
    }
    prop_assert_eq!(
        s.makespan().to_bits(),
        reference_makespan(s).to_bits(),
        "{}: makespan",
        what
    );
    let peak = reference_peak_memory(s, tree);
    prop_assert_eq!(
        s.peak_memory(tree).to_bits(),
        peak.to_bits(),
        "{}: peak_memory",
        what
    );
    let profile = s.memory_profile(tree);
    prop_assert_eq!(
        profile_bits(&profile),
        profile_bits(&reference_memory_profile(s, tree)),
        "{}: memory_profile",
        what
    );
    if valid_on.is_ok() {
        // the level after the busiest instant is the peak
        let top = profile.iter().map(|&(_, m)| m).fold(0.0, f64::max);
        prop_assert_eq!(top.to_bits(), peak.to_bits(), "{}: profile maximum", what);
    }
    if s.placements
        .iter()
        .all(|pl| pl.proc < platform.processors())
    {
        prop_assert_eq!(
            bits(&s.domain_peaks(tree, platform)),
            bits(&reference_domain_peaks(s, tree, platform)),
            "{}: domain_peaks",
            what
        );
    }
    Ok(valid_on.is_ok())
}

proptest! {
    #![proptest_config(ProptestConfig::default())]

    #[test]
    fn the_evaluator_matches_the_sort_based_oracle(
        n in 1usize..64,
        which in 0usize..5,
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = Mix(seed);
        let tree = random_tree(n, &mut rng);
        let (shape, platform) = platforms().swap_remove(which);
        let registry = SchedulerRegistry::standard();
        let mut scratch = Scratch::new();
        for entry in registry.iter() {
            // a scheduler that cannot serve the platform shape says so;
            // a schedule it built must always validate
            let out = match entry
                .scheduler()
                .schedule(&Request::new(&tree, platform.clone()), &mut scratch)
            {
                Ok(out) => out,
                Err(e @ SchedError::InvalidSchedule { .. }) => {
                    return Err(TestCaseError::fail(format!("{}: {e}", entry.name())))
                }
                Err(_) => continue,
            };
            let what = format!("{} on {shape}, n={n}", entry.name());
            prop_assert!(check(&what, &out.schedule, &tree, &platform)?, "{}: valid", what);
            prop_assert_eq!(
                (out.eval.makespan.to_bits(), out.eval.peak_memory.to_bits()),
                (
                    reference_makespan(&out.schedule).to_bits(),
                    reference_peak_memory(&out.schedule, &tree).to_bits()
                ),
                "{}: outcome",
                what
            );
            let domains = if platform.is_flat() {
                Vec::new()
            } else {
                reference_domain_peaks(&out.schedule, &tree, &platform)
            };
            prop_assert_eq!(bits(&out.domain_peaks), bits(&domains), "{}: outcome domains", what);
            for (k, m) in mutants(&out.schedule, &tree, &platform, &mut rng)
                .iter()
                .enumerate()
            {
                check(&format!("{what}, mutant {k}"), m, &tree, &platform)?;
            }
            let mut short = out.schedule.clone();
            short.placements.pop();
            check(&format!("{what}, short"), &short, &tree, &platform)?;
            let mut long = out.schedule.clone();
            long.placements.push(long.placements[0]);
            check(&format!("{what}, long"), &long, &tree, &platform)?;
        }
    }
}

/// Hand-built schedules whose equal-instant orders the random cases hit
/// only by chance: several frees and starts at one instant across two
/// domains, zero-work tasks, and overlaps on two processors at once.
#[test]
fn equal_instant_corner_cases_match_the_oracle() {
    // root 0 <- {1, 2, 3}; 3 <- {4, 5}: every task finishes at 2 or 3
    let tree = TaskTree::from_parents(
        &[None, Some(0), Some(0), Some(0), Some(3), Some(3)],
        &[1.0, 2.0, 0.0, 1.0, 2.0, 2.0],
        &[0.1, 0.3, 1e6, 2.5, 0.1, 1e-3],
        &[7.0, 0.3, 0.1, 1e-3, 2.5, 0.1],
    )
    .unwrap();
    let platform = Platform::heterogeneous(vec![ProcClass::new(2, 1.0), ProcClass::new(2, 1.0)])
        .with_domain(1e12, &[0])
        .with_domain(1e12, &[1]);
    let at = |proc: u32, start: f64, w: f64| Placement {
        proc,
        start,
        finish: start + w,
    };
    let valid = Schedule {
        processors: 4,
        placements: vec![
            at(0, 4.0, 1.0),
            at(1, 0.0, 2.0),
            at(2, 2.0, 0.0),
            at(3, 2.0, 1.0),
            at(0, 0.0, 2.0),
            at(2, 0.0, 2.0),
        ],
    };
    assert!(check("corner", &valid, &tree, &platform).unwrap());
    // an overlap on processor 0 (at 1.5); the zero-work task moved to 0.5
    // on processor 2 lies inside task 5's run there but holds nothing, so
    // it overlaps nothing
    let mut both = valid.clone();
    both.placements[1] = at(0, 1.5, 2.0);
    both.placements[2] = at(2, 0.5, 0.0);
    assert_eq!(
        both.validate_on(&tree, &platform),
        Err(ScheduleError::Overlap {
            a: NodeId(4),
            b: NodeId(1),
            proc: 0
        })
    );
    assert!(!check("two overlaps", &both, &tree, &platform).unwrap());
}

/// The medium corpus (96 trees, mean ~1,300 nodes) under the paper's four
/// heuristics at p ∈ {2, 4, 8}, on one warm `Scratch`: schedules long
/// enough that the orders the schedulers hand the evaluator arrive as long
/// runs, which the random trees above never produce. Every outcome must
/// match the reference passes bit for bit.
#[test]
fn the_medium_corpus_evaluates_like_the_oracle() {
    let registry = SchedulerRegistry::standard();
    let mut scratch = Scratch::new();
    for entry in assembly_corpus(Scale::Medium) {
        let tree = &entry.tree;
        for heuristic in registry.iter().filter(|e| e.in_campaign()) {
            for p in [2, 4, 8] {
                let req = Request::new(tree, Platform::new(p));
                let out = heuristic.scheduler().schedule(&req, &mut scratch).unwrap();
                let what = format!("{} on {}, p={p}", heuristic.name(), entry.name);
                assert_eq!(reference_validate(&out.schedule, tree), Ok(()), "{what}");
                assert_eq!(
                    (out.eval.makespan.to_bits(), out.eval.peak_memory.to_bits()),
                    (
                        reference_makespan(&out.schedule).to_bits(),
                        reference_peak_memory(&out.schedule, tree).to_bits()
                    ),
                    "{what}"
                );
            }
        }
    }
}
