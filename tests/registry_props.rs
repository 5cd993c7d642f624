//! Registry-driven property suite: **every** scheduler in the standard
//! registry — paper heuristics, baselines, memory-capped wrappers, present
//! and future — must, on random trees and assembly corpus trees,
//!
//! * produce a schedule that validates (checked by the API itself and
//!   re-checked here),
//! * meet the makespan lower bound `max(W/p, CP)`,
//! * meet the exact sequential memory lower bound (Liu's algorithm),
//!
//! and every canonical name must round-trip through the registry. Because
//! the suite iterates the registry, a newly registered scheduler is
//! covered automatically with zero test changes.

use treesched::core::api::{Platform, ProcClass, Request, SchedError, SchedulerRegistry, Scratch};
use treesched::core::{
    makespan_lower_bound, makespan_lower_bound_on, memory_lower_bound_exact, memory_reference,
};
use treesched::gen::{assembly_corpus, caterpillar, random_attachment, spider, Scale, WeightRange};
use treesched::model::TaskTree;

const EPS: f64 = 1e-9;

/// A deterministic mixed bag of tree shapes, small enough for the `O(n²)`
/// exact memory bound.
fn tree_zoo() -> Vec<(String, TaskTree)> {
    let mut zoo: Vec<(String, TaskTree)> = vec![
        ("fork".into(), TaskTree::fork(13, 1.0, 1.0, 0.0)),
        ("chain".into(), TaskTree::chain(21, 2.0, 1.0, 0.5)),
        ("complete".into(), TaskTree::complete(3, 4, 1.0, 2.0, 0.5)),
        ("spider".into(), spider(6, 5)),
        ("caterpillar".into(), caterpillar(12, 3)),
    ];
    for seed in [1u64, 7, 42] {
        zoo.push((
            format!("random-{seed}"),
            random_attachment(300, WeightRange::MIXED, seed),
        ));
    }
    for e in assembly_corpus(Scale::Small).into_iter().step_by(5) {
        if e.tree.len() <= 2500 {
            zoo.push((e.name, e.tree));
        }
    }
    zoo
}

#[test]
fn every_registered_scheduler_respects_both_lower_bounds() {
    let registry = SchedulerRegistry::standard();
    let mut scratch = Scratch::new();
    for (name, tree) in tree_zoo() {
        let ms_lbs: Vec<(u32, f64)> = [1u32, 2, 4, 8]
            .iter()
            .map(|&p| (p, makespan_lower_bound(&tree, p)))
            .collect();
        let mem_lb = memory_lower_bound_exact(&tree);
        // a cap at the sequential reference keeps the capped schedulers
        // honest and is ignored by the uncapped ones
        let cap = memory_reference(&tree);
        for entry in registry.iter() {
            for &(p, ms_lb) in &ms_lbs {
                let req = Request::new(&tree, Platform::new(p).with_memory_cap(cap));
                let out = entry
                    .scheduler()
                    .schedule(&req, &mut scratch)
                    .unwrap_or_else(|e| panic!("{}: {name} p={p}: {e}", entry.name()));
                assert!(
                    out.schedule.validate(&tree).is_ok(),
                    "{}: {name} p={p}: invalid schedule",
                    entry.name()
                );
                assert!(
                    out.eval.makespan >= ms_lb - EPS,
                    "{}: {name} p={p}: makespan {} < lower bound {ms_lb}",
                    entry.name(),
                    out.eval.makespan
                );
                assert!(
                    out.eval.peak_memory >= mem_lb - EPS,
                    "{}: {name} p={p}: memory {} < exact lower bound {mem_lb}",
                    entry.name(),
                    out.eval.peak_memory
                );
            }
        }
    }
}

#[test]
fn campaign_schedulers_work_without_a_memory_cap() {
    let registry = SchedulerRegistry::standard();
    let mut scratch = Scratch::new();
    let tree = random_attachment(200, WeightRange::PEBBLE, 3);
    for entry in registry.campaign() {
        let req = Request::new(&tree, Platform::new(4));
        let out = entry.scheduler().schedule(&req, &mut scratch).unwrap();
        assert!(out.eval.makespan > 0.0, "{}", entry.name());
        assert_eq!(
            out.diagnostics.seq_peak,
            Some(memory_reference(&tree)),
            "{}: diagnostics carry the memory reference",
            entry.name()
        );
    }
}

/// The backward-compatibility pin of the heterogeneous-platform redesign:
/// a platform of all-1.0 speeds split across two classes with one
/// all-covering memory domain must drive **every campaign scheduler** to
/// the exact same [`treesched::core::Schedule`] as the homogeneous
/// spelling, on the whole tree zoo.
#[test]
fn campaign_on_uniform_heterogeneous_platform_matches_homogeneous_exactly() {
    let registry = SchedulerRegistry::standard();
    let mut scratch = Scratch::new();
    for (name, tree) in tree_zoo() {
        let cap = memory_reference(&tree);
        for p in [2u32, 4, 8] {
            let uniform =
                Platform::heterogeneous(vec![ProcClass::new(1, 1.0), ProcClass::new(p - 1, 1.0)])
                    .with_domain(cap, &[0, 1]);
            assert_eq!(
                makespan_lower_bound_on(&tree, &uniform),
                makespan_lower_bound(&tree, p),
                "{name} p={p}: bounds must agree on uniform platforms"
            );
            let flat = Platform::new(p).with_memory_cap(cap);
            for entry in registry.campaign() {
                let het = entry
                    .scheduler()
                    .schedule(&Request::new(&tree, uniform.clone()), &mut scratch)
                    .unwrap_or_else(|e| panic!("{}: {name} p={p}: {e}", entry.name()));
                let hom = entry
                    .scheduler()
                    .schedule(&Request::new(&tree, flat.clone()), &mut scratch)
                    .unwrap();
                assert_eq!(het.schedule, hom.schedule, "{}: {name} p={p}", entry.name());
                assert_eq!(het.eval, hom.eval, "{}: {name} p={p}", entry.name());
            }
        }
    }
}

/// Every registered scheduler must handle a genuinely heterogeneous
/// platform (2 fast + 2 slow processors, two memory domains): a schedule
/// that validates speed-aware, respects the speed-aware makespan bound,
/// and reports one peak per domain — no scheduler refuses comm-free
/// heterogeneous platforms anymore. With transfer costs on top, each
/// scheduler either serves comm-aware or surfaces a typed
/// [`SchedError::UnsupportedPlatform`] — never a panic, never a silently
/// mis-scheduled result.
#[test]
fn every_registered_scheduler_handles_heterogeneous_platforms_or_refuses() {
    let registry = SchedulerRegistry::standard();
    let mut scratch = Scratch::new();
    let mut comm_supported = 0usize;
    let mut comm_refused = 0usize;
    for (name, tree) in tree_zoo() {
        let cap = memory_reference(&tree);
        let platform =
            Platform::heterogeneous(vec![ProcClass::new(2, 2.0), ProcClass::new(2, 1.0)])
                .with_domain(2.0 * cap, &[0])
                .with_domain(2.0 * cap, &[1]);
        let ms_lb = makespan_lower_bound_on(&tree, &platform);
        let mem_lb = memory_lower_bound_exact(&tree);
        for entry in registry.iter() {
            let req = Request::new(&tree, platform.clone());
            let out = entry
                .scheduler()
                .schedule(&req, &mut scratch)
                .unwrap_or_else(|e| panic!("{}: {name}: {e}", entry.name()));
            assert!(
                out.schedule.validate_on(&tree, &platform).is_ok(),
                "{}: {name}: invalid heterogeneous schedule",
                entry.name()
            );
            assert!(
                out.eval.makespan >= ms_lb - EPS,
                "{}: {name}: makespan {} < speed-aware bound {ms_lb}",
                entry.name(),
                out.eval.makespan
            );
            assert!(
                out.eval.peak_memory >= mem_lb - EPS,
                "{}: {name}: memory below the sequential optimum",
                entry.name()
            );
            assert_eq!(
                out.domain_peaks.len(),
                2,
                "{}: {name}: one peak per domain",
                entry.name()
            );
        }
        // transfer costs split the registry: list schedulers delay
        // cross-domain dependencies, the subtree/capped families refuse
        let costly = platform.clone().with_comm(vec![0.0, 1.5, 1.5, 0.0]);
        let comm_lb = makespan_lower_bound_on(&tree, &costly);
        for entry in registry.iter() {
            let req = Request::new(&tree, costly.clone());
            match entry.scheduler().schedule(&req, &mut scratch) {
                Ok(out) => {
                    comm_supported += 1;
                    assert!(
                        out.schedule.validate_on(&tree, &costly).is_ok(),
                        "{}: {name}: schedule ignores transfer costs",
                        entry.name()
                    );
                    assert!(
                        out.eval.makespan >= comm_lb - EPS,
                        "{}: {name}: comm makespan below the bound",
                        entry.name()
                    );
                }
                Err(SchedError::UnsupportedPlatform { .. }) => comm_refused += 1,
                Err(e) => panic!("{}: {name}: unexpected error {e}", entry.name()),
            }
        }
    }
    assert!(
        comm_supported > 0,
        "the list schedulers must serve transfer costs"
    );
    assert!(
        comm_refused > 0,
        "subtree/capped schedulers must refuse transfer costs, typed"
    );
}

/// The compatibility pin of the communication-cost redesign: an all-zero
/// comm matrix is the same machine as no matrix at all, so **every**
/// registered scheduler must produce the byte-identical schedule and
/// evaluation for both spellings, across the whole tree zoo.
#[test]
fn zero_comm_matrix_is_byte_identical_across_the_registry() {
    let registry = SchedulerRegistry::standard();
    let mut scratch = Scratch::new();
    for (name, tree) in tree_zoo() {
        let cap = memory_reference(&tree);
        let bare = Platform::heterogeneous(vec![ProcClass::new(2, 2.0), ProcClass::new(2, 1.0)])
            .with_domain(2.0 * cap, &[0])
            .with_domain(2.0 * cap, &[1]);
        let zeroed = bare.clone().with_comm(vec![0.0; 4]);
        assert!(!zeroed.has_comm(), "all-zero matrix means free transfers");
        for entry in registry.iter() {
            let with = entry
                .scheduler()
                .schedule(&Request::new(&tree, zeroed.clone()), &mut scratch)
                .unwrap_or_else(|e| panic!("{}: {name}: {e}", entry.name()));
            let without = entry
                .scheduler()
                .schedule(&Request::new(&tree, bare.clone()), &mut scratch)
                .unwrap();
            assert_eq!(
                with.schedule,
                without.schedule,
                "{}: {name}: zero comm matrix changed the schedule",
                entry.name()
            );
            assert_eq!(with.eval, without.eval, "{}: {name}", entry.name());
        }
    }
}

#[test]
fn registry_names_round_trip() {
    let registry = SchedulerRegistry::standard();
    for entry in registry.iter() {
        assert_eq!(registry.get(entry.name()).unwrap().name(), entry.name());
        for alias in entry.aliases() {
            assert_eq!(registry.get(alias).unwrap().name(), entry.name());
        }
    }
}

/// Every scheduler registered with `campaign = true` must appear in a
/// minimal default-selection [`treesched::bench::CampaignRunner`] run —
/// the registry flag *is* the membership mechanism of Table 1 / Figs. 6–8,
/// so a campaign scheduler that the runner skips would silently drop out
/// of every table and figure. Heterogeneous platform points must either
/// serve (with one peak per domain) or surface
/// [`SchedError::UnsupportedPlatform`] as typed error *records* — never
/// panic, never abort the run.
#[test]
fn every_campaign_scheduler_appears_in_a_minimal_campaign_run() {
    use treesched::bench::{CampaignRunner, CampaignSpec, PlatformPoint};
    use treesched::core::api::Platform;

    let spec = CampaignSpec::new("minimal")
        .with_tree("complete", TaskTree::complete(2, 4, 1.0, 2.0, 0.5))
        .with_procs(&[2])
        .with_platform(PlatformPoint::new(
            Platform::parse_flags("1x2.0,1x1.0", Some("1e9@0,1e9@1"), None).unwrap(),
        ));
    let mut runner = CampaignRunner::new(2);
    let campaign = runner.run(&spec).expect("default selection resolves");

    let registry = SchedulerRegistry::standard();
    let members: Vec<&str> = registry.campaign().map(|e| e.name()).collect();
    assert!(!members.is_empty());
    for name in &members {
        // flat point: every campaign member serves and succeeds
        let flat = campaign
            .records
            .iter()
            .find(|r| r.scheduler == *name && r.point == "p2")
            .unwrap_or_else(|| panic!("{name}: campaign member missing from the run"));
        assert!(flat.outcome.is_ok(), "{name}: flat scenario must serve");
        // hetero point: present, and either serves or refuses typed
        let het = campaign
            .records
            .iter()
            .find(|r| r.scheduler == *name && r.point != "p2")
            .unwrap_or_else(|| panic!("{name}: member missing from the hetero point"));
        match &het.outcome {
            Ok(out) => {
                assert_eq!(
                    out.domain_peaks.len(),
                    2,
                    "{name}: one peak per declared domain"
                );
                assert!(out.makespan >= out.ms_lb - EPS, "{name}");
            }
            Err(SchedError::UnsupportedPlatform { .. }) => {}
            Err(e) => panic!("{name}: hetero point must serve or refuse typed, got {e}"),
        }
    }
    // exactly the campaign set, nothing else, in registry order per point
    let first_point: Vec<&str> = campaign
        .records
        .iter()
        .filter(|r| r.point == "p2")
        .map(|r| r.scheduler.as_str())
        .collect();
    assert_eq!(first_point, members);
    // the JSONL stream renders both shapes without panicking
    let jsonl = campaign.to_jsonl();
    assert_eq!(jsonl.lines().count(), campaign.records.len());
}
