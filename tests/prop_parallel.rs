//! Property-based integration tests of every registered scheduler on
//! random trees: schedule validity, lower-bound respect, approximation
//! guarantees, and the memory-capped scheduler's safety theorem.

use proptest::prelude::*;
use treesched::core::{
    makespan_lower_bound, mem_bounded_schedule, memory_lower_bound_exact, memory_reference,
    Admission, Outcome, Platform, Request, SchedulerRegistry,
};
use treesched::model::TaskTree;
use treesched::seq::best_postorder;

/// The registry's list schedulers, which inherit Graham's `(2 − 1/p)`
/// bound (the memory-capped ones may idle while a task is ready).
const LIST_SCHEDULERS: [&str; 5] = [
    "ParInnerFirst",
    "ParDeepestFirst",
    "CpList",
    "FifoList",
    "RandomList",
];

/// Schedules `t` with the registry entry `name` on `p` processors sharing
/// one memory capped at the sequential reference (the cap only matters to
/// the memory-capped schedulers).
fn run(name: &str, t: &TaskTree, p: u32) -> Outcome {
    let req = Request::new(t, Platform::new(p).with_memory_cap(memory_reference(t)));
    SchedulerRegistry::standard()
        .get(name)
        .unwrap()
        .schedule_once(&req)
        .unwrap_or_else(|e| panic!("{name} p={p}: {e}"))
}

/// Random tree strategy: parent vector with `parents[i] < i`, strictly
/// positive works (the memory ≥ sequential-optimum theorem needs `w > 0`).
fn arb_tree(max_nodes: usize) -> impl Strategy<Value = TaskTree> {
    (2..=max_nodes)
        .prop_flat_map(move |n| {
            let parents: Vec<BoxedStrategy<usize>> = (1..n).map(|i| (0..i).boxed()).collect();
            let weights = proptest::collection::vec((1u32..=9, 0u32..=9, 0u32..=6), n);
            (parents, weights)
        })
        .prop_map(|(parents, weights)| {
            let n = parents.len() + 1;
            let pvec: Vec<Option<usize>> = std::iter::once(None)
                .chain(parents.into_iter().map(Some))
                .collect();
            let work: Vec<f64> = (0..n).map(|i| weights[i].0 as f64).collect();
            let output: Vec<f64> = (0..n).map(|i| weights[i].1 as f64).collect();
            let exec: Vec<f64> = (0..n).map(|i| weights[i].2 as f64).collect();
            TaskTree::from_parents(&pvec, &work, &output, &exec).expect("valid tree")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn heuristics_produce_valid_bounded_schedules(
        t in arb_tree(40),
        p in 1u32..=9,
    ) {
        let mem_lb = memory_lower_bound_exact(&t);
        let ms_lb = makespan_lower_bound(&t, p);
        for h in SchedulerRegistry::standard().names() {
            let Outcome { schedule: s, eval: ev, .. } = run(h, &t, p);
            prop_assert!(s.validate(&t).is_ok(), "{h}: invalid schedule");
            prop_assert!(s.max_concurrency() <= p as usize, "{h}: too many procs");
            prop_assert!(ev.makespan >= ms_lb - 1e-9, "{h}: below makespan LB");
            prop_assert!(
                ev.peak_memory >= mem_lb - 1e-9,
                "{h}: memory {} below sequential optimum {}",
                ev.peak_memory, mem_lb
            );
        }
    }

    #[test]
    fn par_subtrees_memory_bound(t in arb_tree(40), p in 1u32..=8) {
        let mseq = memory_reference(&t);
        let ev = run("ParSubtrees", &t, p).eval;
        prop_assert!(
            ev.peak_memory <= (p as f64 + 1.0) * mseq + 1e-9,
            "{} > (p+1)·{}", ev.peak_memory, mseq
        );
    }

    #[test]
    fn list_schedulers_graham_bound(t in arb_tree(40), p in 2u32..=8) {
        let bound = t.total_work() / p as f64
            + t.critical_path() * (1.0 - 1.0 / p as f64);
        for h in LIST_SCHEDULERS {
            let ev = run(h, &t, p).eval;
            prop_assert!(ev.makespan <= bound + 1e-9, "{h}: {} > {}", ev.makespan, bound);
        }
    }

    #[test]
    fn par_subtrees_makespan_equals_predicted_cost(t in arb_tree(40), p in 1u32..=8) {
        let split = treesched::core::split_subtrees(&t, p as usize);
        let ev = run("ParSubtrees", &t, p).eval;
        prop_assert!(
            (ev.makespan - split.cost).abs() <= 1e-9 * (1.0 + split.cost),
            "realized {} vs predicted {}", ev.makespan, split.cost
        );
    }

    #[test]
    fn membound_sequential_policy_safety(t in arb_tree(36), p in 1u32..=8) {
        let seq = best_postorder(&t);
        let run = mem_bounded_schedule(&t, p, &seq.order, seq.peak, Admission::SequentialOrder);
        prop_assert_eq!(run.violations, 0, "cap = M_seq must be honored");
        prop_assert!(run.peak_memory <= seq.peak + 1e-9);
        prop_assert!(run.schedule.validate(&t).is_ok());
        prop_assert_eq!(run.peak_memory, run.schedule.peak_memory(&t));
    }

    #[test]
    fn membound_peak_matches_sweep(t in arb_tree(30), p in 1u32..=6) {
        // the incremental resident accounting inside the capped scheduler
        // must agree with the independent event sweep, at any cap
        let seq = best_postorder(&t);
        for cap in [f64::INFINITY, seq.peak * 1.5, seq.peak * 0.5] {
            for policy in [Admission::SequentialOrder, Admission::Greedy] {
                let run = mem_bounded_schedule(&t, p, &seq.order, cap, policy);
                prop_assert!(
                    (run.peak_memory - run.schedule.peak_memory(&t)).abs() < 1e-6,
                    "{policy:?} cap={cap}: {} vs {}",
                    run.peak_memory, run.schedule.peak_memory(&t)
                );
            }
        }
    }

    #[test]
    fn sequentialization_theorem(t in arb_tree(40), p in 2u32..=8) {
        // ordering any parallel schedule's tasks by start time yields a
        // sequential traversal whose peak is at most the parallel peak —
        // the argument behind "more processors never need less memory than
        // the sequential optimum" (requires w > 0, which arb_tree ensures)
        for h in SchedulerRegistry::standard().names() {
            let s = run(h, &t, p).schedule;
            let mut order: Vec<_> = t.ids().collect();
            order.sort_by(|&a, &b| {
                s.placement(a).start.total_cmp(&s.placement(b).start).then(a.cmp(&b))
            });
            let seq_peak = treesched::seq::peak_of_order(&t, &order)
                .expect("start-time order is topological");
            prop_assert!(
                seq_peak <= s.peak_memory(&t) + 1e-9,
                "{h}: sequentialized {} > parallel {}",
                seq_peak, s.peak_memory(&t)
            );
        }
    }

    #[test]
    fn more_processors_never_hurt_par_subtrees_makespan(t in arb_tree(40)) {
        let mut prev = f64::INFINITY;
        for p in [1u32, 2, 4, 8, 16] {
            let ev = run("ParSubtrees", &t, p).eval;
            prop_assert!(ev.makespan <= prev + 1e-9, "p={p}: {} > {}", ev.makespan, prev);
            prev = ev.makespan;
        }
    }
}
