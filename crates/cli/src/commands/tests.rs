//! Unit tests of the subcommands, driven through [`crate::dispatch`].

use crate::{dispatch, serve_jsonl, CliError};
use std::fmt::Write as _;
use treesched_core::SchedulerRegistry;
use treesched_model::io as tree_io;

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
        costly
            .contains("platform: speeds 1x1 + 1x1; domains 1000000000@0, 1000000000@1; comm 0-1:3"),
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
