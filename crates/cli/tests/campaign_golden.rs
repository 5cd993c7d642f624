//! Golden-file and determinism tests for the campaign JSONL schema.
//!
//! Each paper report's stream (`treesched campaign --preset NAME`) is
//! pinned byte-for-byte against
//! `crates/bench/tests/data/<preset>.golden.jsonl` on the small corpus:
//! any change to field names, field order, number formatting, or record
//! composition shows up as a diff. Regenerate deliberately with
//! `UPDATE_GOLDEN=1 cargo test -p treesched_cli --test campaign_golden`
//! after an intentional schema change (same workflow as the serve
//! protocol goldens).
//!
//! The worker-count determinism pin lives at the runner level — the
//! presets pick their worker count automatically precisely because the
//! JSONL is byte-identical at 1, 2, and 4 workers.

use std::process::{Command, Output};
use treesched_bench::{CampaignRunner, CampaignSpec, PlatformPoint};
use treesched_core::{Metric, PlatformSpec, SeqAlgo};
use treesched_model::TaskTree;

fn campaign(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_treesched"))
        .arg("campaign")
        .args(args)
        .output()
        .expect("spawn treesched binary")
}

/// Runs `campaign --preset NAME` with `args`, requires exit 0 and the
/// report's `title` on stderr, and returns stdout.
fn preset(name: &str, args: &[&str], title: &str) -> String {
    let out = campaign(&[&["--preset", name], args].concat());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{name} {args:?} failed:\n{stderr}");
    assert!(stderr.contains(title), "{name}: no `{title}` in\n{stderr}");
    String::from_utf8(out.stdout).expect("campaign emits UTF-8")
}

fn check_golden(got: &str, golden_file: &str) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../bench/tests/data");
    let path = format!("{dir}/{golden_file}");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(path, got).unwrap();
        return;
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {path} (UPDATE_GOLDEN=1 generates): {e}"));
    assert_eq!(
        got, golden,
        "campaign JSONL schema drifted from {golden_file} \
         (UPDATE_GOLDEN=1 regenerates after an intentional change)"
    );
    // every line of every golden stream is one valid JSON object
    for line in got.lines() {
        treesched_serve::jsonl::parse_object(line)
            .unwrap_or_else(|e| panic!("{golden_file}: invalid record {line}: {e}"));
    }
}

/// The flags of the pinned runs: a small deterministic slice of the grid.
const GRID: &[&str] = &[
    "--scale",
    "small",
    "--procs",
    "2",
    "--schedulers",
    "subtrees,deepest",
];

#[test]
fn table1_json_matches_the_golden_schema() {
    check_golden(&preset("table1", GRID, "Table 1 —"), "table1.golden.jsonl");
}

#[test]
fn fig6_json_matches_the_golden_schema() {
    check_golden(&preset("fig6", GRID, "Figure 6 —"), "fig6.golden.jsonl");
}

#[test]
fn fig7_json_matches_the_golden_schema() {
    check_golden(&preset("fig7", GRID, "Figure 7 —"), "fig7.golden.jsonl");
}

#[test]
fn fig8_json_matches_the_golden_schema() {
    // fig8 force-adds its ParInnerFirst baseline to the selection
    check_golden(&preset("fig8", GRID, "Figure 8 —"), "fig8.golden.jsonl");
}

#[test]
fn scaling_json_matches_the_golden_schema() {
    check_golden(
        &preset("scaling", GRID, "Strong scaling over"),
        "scaling.golden.jsonl",
    );
}

#[test]
fn ablation_json_matches_the_golden_schema() {
    check_golden(
        &preset("ablation", &["--scale", "small"], "Ablation 1 —"),
        "ablation.golden.jsonl",
    );
}

#[test]
fn corpus_json_matches_the_golden_schema() {
    check_golden(
        &preset("corpus", GRID, "(paper §6.2: 608 trees"),
        "corpus.golden.jsonl",
    );
}

#[test]
fn seqgap_json_matches_the_golden_schema() {
    check_golden(
        &preset("seqgap", &["--scale", "small"], "Sequential traversal gap"),
        "seqgap.golden.jsonl",
    );
}

/// Usage errors exit 2 with the message on stderr and nothing on stdout.
fn usage_error(args: &[&str]) -> String {
    let out = campaign(args);
    assert_eq!(out.status.code(), Some(2), "{args:?}");
    assert!(out.stdout.is_empty(), "{args:?}");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn presets_default_to_the_medium_corpus_and_the_paper_procs() {
    let out = preset("corpus", &[], "(paper §6.2: 608 trees");
    let summary = out.lines().last().expect("a summary record");
    let trees = treesched_gen::assembly_corpus(treesched_gen::Scale::Medium).len();
    assert!(
        summary.contains(&format!("\"trees\":{trees},")),
        "{summary}"
    );
    assert!(summary.contains("\"points\":5,"), "{summary}");
}

#[test]
fn unknown_presets_list_the_valid_names() {
    let e = usage_error(&["--preset", "table2"]);
    assert!(e.contains("unknown preset `table2`"), "{e}");
    assert!(
        e.contains("table1, fig6, fig7, fig8, scaling, ablation, corpus, seqgap"),
        "{e}"
    );
}

#[test]
fn presets_refuse_spec_compare_name_and_scale_only_grid_flags() {
    for (args, flag) in [
        (&["--preset", "table1", "--spec", "x.json"][..], "--spec"),
        (
            &["--preset", "fig6", "--compare", "a", "b"][..],
            "--compare",
        ),
        (&["--preset", "table1", "--name", "x"][..], "--name"),
        (&["--preset", "ablation", "--procs", "2"][..], "--procs"),
        (&["--preset", "seqgap", "--procs", "2"][..], "--procs"),
        (
            &["--scale", "small", "--preset", "seqgap", "--workers", "2"][..],
            "--workers",
        ),
    ] {
        let e = usage_error(args);
        assert!(
            e.contains(&format!("cannot be combined with {flag}")),
            "{args:?}: {e}"
        );
    }
}

/// The grid of the worker-count pin: the table/figure grid plus a
/// heterogeneous point and a cap point, over a couple of explicit trees —
/// everything that can influence record bytes.
fn pinned_spec() -> CampaignSpec {
    CampaignSpec::new("pin")
        .with_tree("fork", TaskTree::fork(8, 1.0, 1.0, 0.0))
        .with_tree("complete", TaskTree::complete(2, 5, 1.0, 2.0, 0.5))
        .with_tree("chain", TaskTree::chain(15, 2.0, 1.0, 0.5))
        .with_procs(&[2, 4])
        .with_platform(PlatformPoint::flat(4).with_cap_factor(1.5))
        .with_platform(PlatformPoint::from_spec(
            PlatformSpec::parse_flags("2x2.0,2x1.0", Some("1e9@0,1e9@1"), None).unwrap(),
        ))
        .with_platform(PlatformPoint::from_spec(
            PlatformSpec::parse_flags("2x2.0,2x1.0", Some("1e9@0,1e9@1"), Some("0-1:2")).unwrap(),
        ))
        .with_schedulers(vec![
            "subtrees".into(),
            "deepest".into(),
            "membound".into(),
            "random".into(),
        ])
        .with_seqs(vec![SeqAlgo::BestPostorder, SeqAlgo::LiuExact])
        .with_seed(42)
        .with_metrics(vec![
            Metric::Speedup,
            Metric::Utilization,
            Metric::MaxDomainPeak,
        ])
}

#[test]
fn campaign_jsonl_is_byte_identical_at_1_2_and_4_workers() {
    let spec = pinned_spec();
    let reference = CampaignRunner::new(1).run(&spec).unwrap().to_jsonl();
    // the pinned grid exercises successes, cap records, hetero records,
    // and typed error records
    assert!(reference.contains("\"error\""), "pin covers error records");
    assert!(reference.contains("\"domain_peaks\""), "pin covers hetero");
    assert!(reference.contains("\"cap\":"), "pin covers caps");
    for workers in [2usize, 4] {
        let got = CampaignRunner::new(workers).run(&spec).unwrap().to_jsonl();
        assert_eq!(got, reference, "workers = {workers}");
    }
}
