//! Failure injection: corrupted schedules must be rejected by the
//! validator, malformed inputs must fail cleanly across the stack.

use treesched::core::{Placement, Platform, Request, Schedule, ScheduleError, SchedulerRegistry};
use treesched::gen::{assembly_corpus, random_attachment, Scale, WeightRange};
use treesched::model::{io, NodeId, TaskTree};

/// The registry scheduler `name`'s schedule of `tree` on `p` processors.
fn schedule(name: &str, tree: &TaskTree, p: u32) -> Schedule {
    let req = Request::new(tree, Platform::new(p));
    let registry = SchedulerRegistry::standard();
    registry
        .get(name)
        .unwrap()
        .schedule_once(&req)
        .unwrap()
        .schedule
}

#[test]
fn validator_catches_shifted_start() {
    // pull a non-leaf task earlier than its child's finish
    let t = random_attachment(30, WeightRange::MIXED, 7);
    let mut s = schedule("ParDeepestFirst", &t, 4);
    assert!(s.validate(&t).is_ok());
    let victim = t
        .ids()
        .find(|&i| !t.is_leaf(i))
        .expect("tree has inner nodes");
    let child = t.children(victim)[0];
    let child_finish = s.placement(child).finish;
    let pl = &mut s.placements[victim.index()];
    let w = pl.finish - pl.start;
    pl.start = (child_finish - 0.5).max(0.0);
    pl.finish = pl.start + w;
    assert!(matches!(
        s.validate(&t),
        Err(ScheduleError::DependencyViolated { .. }) | Err(ScheduleError::Overlap { .. })
    ));
}

#[test]
fn validator_catches_truncated_and_stretched_intervals() {
    let t = random_attachment(20, WeightRange::MIXED, 9);
    let base = schedule("ParSubtrees", &t, 2);

    // truncated placement table
    let mut short = base.clone();
    short.placements.pop();
    assert!(matches!(
        short.validate(&t),
        Err(ScheduleError::WrongLength { .. })
    ));

    // interval not matching the work
    let mut stretched = base.clone();
    stretched.placements[0].finish += 1.0;
    assert!(matches!(
        stretched.validate(&t),
        Err(ScheduleError::BadInterval { .. })
    ));

    // NaN start
    let mut nan = base.clone();
    nan.placements[0].start = f64::NAN;
    assert!(matches!(
        nan.validate(&t),
        Err(ScheduleError::BadInterval { .. })
    ));

    // negative start
    let mut neg = base;
    neg.placements[0] = Placement {
        proc: 0,
        start: -1.0,
        finish: -1.0 + t.work(NodeId(0)),
    };
    assert!(matches!(
        neg.validate(&t),
        Err(ScheduleError::BadInterval { .. })
    ));
}

#[test]
fn validator_catches_double_booking() {
    let t = random_attachment(25, WeightRange::MIXED, 11);
    let mut s = schedule("ParInnerFirst", &t, 4);
    // force two concurrent tasks onto one processor
    let mut by_start: Vec<NodeId> = t.ids().collect();
    by_start.sort_by(|&a, &b| s.placement(a).start.total_cmp(&s.placement(b).start));
    // find two overlapping-in-time tasks on different procs
    let mut moved = false;
    'outer: for (i, &a) in by_start.iter().enumerate() {
        for &b in &by_start[i + 1..] {
            let (pa, pb) = (s.placement(a), s.placement(b));
            if pa.proc != pb.proc && pb.start < pa.finish - 1e-9 {
                s.placements[b.index()].proc = pa.proc;
                moved = true;
                break 'outer;
            }
        }
    }
    if moved {
        assert!(s.validate(&t).is_err());
    }
}

#[test]
fn corrupted_tree_files_fail_cleanly() {
    let t = random_attachment(15, WeightRange::MIXED, 3);
    let good = io::to_text(&t);

    // bit-flip style corruptions of the text form
    let corruptions = [
        good.replace("0 -1", "0 7"),        // root points at a child
        good.replacen("1 0", "1 1", 1),     // self-loop
        good.replace(' ', ""),              // mangled separators
        good[..good.len() / 2].to_string(), // truncation mid-line
    ];
    for (k, bad) in corruptions.iter().enumerate() {
        if bad == &good {
            continue;
        }
        let parsed = io::from_text(bad);
        if let Ok(tree) = parsed {
            // if it still parses it must still be a *valid tree* (e.g. the
            // truncation may fall on a line boundary)
            use treesched::model::ValidateExt;
            assert!(
                tree.validate().is_ok(),
                "corruption {k} produced a broken tree"
            );
        }
    }
}

#[test]
fn heuristics_are_deterministic_across_runs() {
    let corpus = assembly_corpus(Scale::Small);
    for e in corpus.iter().take(4) {
        for h in SchedulerRegistry::standard().campaign() {
            let a = schedule(h.name(), &e.tree, 4);
            let b = schedule(h.name(), &e.tree, 4);
            assert_eq!(a, b, "{} {}", e.name, h.name());
        }
    }
}
