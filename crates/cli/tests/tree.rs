//! End-to-end tests of the `tree` toolbox subcommands: fixture ingest,
//! conversion through `schedule`, and a golden pin of `tree to-requests`
//! output run through the real `serve` binary (the satellite contract:
//! to-requests output is accepted verbatim).

use std::io::Write as _;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use treesched_cli::{dispatch, serve_jsonl, CliError};

const BIN: &str = env!("CARGO_BIN_EXE_treesched");
const RESPONSES_GOLDEN: &str = include_str!("data/tree_to_requests_responses.golden.jsonl");

fn run(args: &[&str]) -> Result<String, CliError> {
    let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    dispatch(&v)
}

fn ok(args: &[&str]) -> String {
    run(args).expect("command succeeds")
}

/// Path of a fixture in the trees crate's corpus (shared with its unit
/// tests and the CI campaign point).
fn fixture(name: &str) -> String {
    let p = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../trees/tests/data")
        .join(name);
    p.to_string_lossy().into_owned()
}

/// A fresh scratch directory private to the test `name`: tests run in
/// parallel, so no two may write into the same one.
fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("treesched-tree-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn stat_reads_every_fixture_format() {
    let out = ok(&[
        "tree",
        "stat",
        &fixture("fork.nwk"),
        &fixture("plain.nwk"),
        &fixture("band8.mtx"),
        "--ordering",
        "natural",
    ]);
    let lines: Vec<&str> = out.lines().collect();
    assert_eq!(lines.len(), 3);
    assert!(lines[0].contains("[newick]: nodes=6"), "{}", lines[0]);
    assert!(lines[2].contains("[mm]: nodes=8"), "{}", lines[2]);
}

#[test]
fn convert_newick_fixture_is_byte_stable() {
    // fork.nwk is written in the canonical writer form: converting to
    // newick must reproduce the file exactly
    let out = ok(&["tree", "convert", &fixture("fork.nwk"), "--to", "newick"]);
    let original = std::fs::read_to_string(fixture("fork.nwk")).unwrap();
    assert_eq!(out, original);
}

#[test]
fn converted_mtx_schedules_like_any_tree() {
    let dir = temp_dir("convert-mtx");
    let tree = dir.join("band8.tree");
    let tree = tree.to_string_lossy();
    let wrote = ok(&[
        "tree",
        "convert",
        &fixture("band8.mtx"),
        "--ordering",
        "natural",
        "-o",
        &tree,
    ]);
    assert_eq!(wrote, format!("wrote {tree}\n"));
    let out = ok(&["schedule", &tree, "-p", "2", "--scheduler", "deepest"]);
    assert!(out.contains("scheduler: ParDeepestFirst"), "{out}");
    assert!(out.contains("makespan: 19.333333333333332"), "{out}");
}

#[test]
fn prune_and_subtree_compose() {
    // prune node 3 of the fork fixture, then take the subtree at the root
    let pruned = ok(&["tree", "prune", &fixture("fork.nwk"), "3", "--to", "newick"]);
    assert_eq!(
        pruned,
        "(1[&work=2,output=1,exec=0],2[&work=3,output=2,exec=1])0[&work=5,output=0,exec=3];\n"
    );
    let sub = ok(&[
        "tree",
        "subtree",
        &fixture("fork.nwk"),
        "3",
        "--to",
        "newick",
    ]);
    assert_eq!(
        sub,
        "(1[&work=1,output=0.5,exec=0],2[&work=1,output=0.5,exec=0])0[&work=4,output=2,exec=2];\n"
    );
    // typed op errors surface with their wording
    let e = run(&["tree", "prune", &fixture("fork.nwk"), "0"]).unwrap_err();
    assert_eq!(e.message, "cannot prune the root");
    let e = run(&["tree", "subtree", &fixture("fork.nwk"), "11"]).unwrap_err();
    assert_eq!(e.message, "node 11 out of range (tree has 6 node(s))");
}

#[test]
fn to_dot_styles_nodes_and_edges() {
    let out = ok(&["tree", "to-dot", &fixture("weighted.nwk")]);
    assert!(out.starts_with("digraph"), "{out}");
    assert!(out.contains("style=filled"), "{out}");
    assert!(out.contains("penwidth="), "{out}");
    let bare = ok(&["tree", "to-dot", &fixture("weighted.nwk"), "--bare"]);
    assert!(!bare.contains("w="), "{bare}");
}

#[test]
fn ingest_errors_carry_path_and_position() {
    let dir = temp_dir("ingest-errors");
    let bad = dir.join("bad.nwk");
    std::fs::write(&bad, "(a,b); extra").unwrap();
    let bad = bad.to_string_lossy();
    let e = run(&["tree", "stat", &bad]).unwrap_err();
    assert_eq!(
        e.message,
        format!("cannot parse {bad}: line 1, col 8: trailing text after the tree")
    );
    let e = run(&["tree", "convert", "/nonexistent.nwk"]).unwrap_err();
    assert!(e.message.starts_with("cannot read /nonexistent.nwk: "));
    // non-v1 input without --tree-out is a guided usage error
    let e = run(&[
        "tree",
        "to-requests",
        &fixture("fork.nwk"),
        "--procs",
        "1,2",
    ])
    .unwrap_err();
    assert!(e.message.contains("needs --tree-out"), "{}", e.message);
}

/// The satellite contract: `tree to-requests` output is accepted verbatim
/// by `serve` — run through the real binary and pinned against a golden
/// response stream (responses don't echo the tree path, so the golden is
/// machine-independent).
#[test]
fn to_requests_through_real_serve_binary_matches_golden() {
    let dir = temp_dir("to-requests");
    let tree = dir.join("star9.tree").to_string_lossy().into_owned();
    let requests = ok(&[
        "tree",
        "to-requests",
        &fixture("star9.mtx"),
        "--tree-out",
        &tree,
        "--procs",
        "1,2,4",
        "--scheduler",
        "deepest",
        "--prefix",
        "star9",
    ]);
    // every line is a valid request of the wire protocol
    for line in requests.lines() {
        treesched_serve::RequestRecord::parse(line).expect("verbatim acceptance");
    }

    let mut child = Command::new(BIN)
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("serve spawns");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(requests.as_bytes())
        .expect("requests written");
    let out = child.wait_with_output().expect("serve exits");
    assert!(out.status.success(), "serve failed: {out:?}");
    let got = String::from_utf8(out.stdout).expect("utf8");

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = format!(
            "{}/tests/data/tree_to_requests_responses.golden.jsonl",
            env!("CARGO_MANIFEST_DIR")
        );
        std::fs::write(path, &got).unwrap();
        return;
    }
    assert_eq!(
        got, RESPONSES_GOLDEN,
        "serve responses for tree to-requests drifted \
         (UPDATE_GOLDEN=1 regenerates after an intentional change)"
    );

    // worker-count independence of the same stream via the library path
    let one = serve_jsonl(&requests, 1, None);
    let two = serve_jsonl(&requests, 2, None);
    let four = serve_jsonl(&requests, 4, None);
    assert_eq!(one, two);
    assert_eq!(two, four);
    assert_eq!(one, got, "binary and library serve outputs diverged");
}

#[test]
fn reroot_rehangs_the_tree_with_typed_errors() {
    // hang the fork fixture from node 3: the old root becomes a child,
    // the path edge reverses and its weight travels with it
    let out = ok(&[
        "tree",
        "reroot",
        &fixture("fork.nwk"),
        "3",
        "--to",
        "newick",
    ]);
    assert_eq!(
        out,
        "((1[&work=2,output=1,exec=0],2[&work=3,output=2,exec=1])\
         0[&work=5,output=2,exec=3],4[&work=1,output=0.5,exec=0],\
         5[&work=1,output=0.5,exec=0])3[&work=4,output=0,exec=2];\n"
    );
    // rerooting at the current root is the identity
    let same = ok(&[
        "tree",
        "reroot",
        &fixture("fork.nwk"),
        "0",
        "--to",
        "newick",
    ]);
    let original = std::fs::read_to_string(fixture("fork.nwk")).unwrap();
    assert_eq!(same, original);
    // typed op errors surface with their wording
    let e = run(&["tree", "reroot", &fixture("fork.nwk"), "11"]).unwrap_err();
    assert_eq!(e.message, "node 11 out of range (tree has 6 node(s))");
}

/// `schedule` ingests any toolbox format directly — no `tree convert`
/// round-trip needed — and `--ordering` steers MatrixMarket elimination.
#[test]
fn schedule_ingests_toolbox_formats_directly() {
    // the one-step path matches the two-step convert-then-schedule path
    let direct = ok(&[
        "schedule",
        &fixture("band8.mtx"),
        "--ordering",
        "natural",
        "-p",
        "2",
        "--scheduler",
        "deepest",
    ]);
    assert!(direct.contains("makespan: 19.333333333333332"), "{direct}");

    // amd ordering is accepted and schedules the same fixture
    let amd = ok(&[
        "schedule",
        &fixture("band8.mtx"),
        "--ordering",
        "amd",
        "-p",
        "2",
        "--scheduler",
        "deepest",
    ]);
    assert!(amd.contains("scheduler: ParDeepestFirst"), "{amd}");
    assert!(amd.contains("peak memory:"), "{amd}");

    // newick input schedules without conversion too
    let nwk = ok(&["schedule", &fixture("fork.nwk"), "-p", "2"]);
    assert!(nwk.contains("makespan:"), "{nwk}");

    // a bad ordering name is a usage error with the accepted set
    let e = run(&["schedule", &fixture("band8.mtx"), "--ordering", "bogus"]).unwrap_err();
    assert_eq!(
        e.message,
        "unknown ordering `bogus` (expected natural, amd or rcm)"
    );
}

/// Every file the CLI writes (`gen -o`, `tree … -o`, `--tree-out`,
/// `--metrics-out`) goes through a temporary file renamed into place: the
/// bytes are exactly what stdout would carry, an existing file is replaced
/// whole, and no temporary file is left behind — on success or failure.
#[test]
fn file_outputs_are_renamed_into_place_without_leftovers() {
    let dir = temp_dir("atomic-writes");
    let at = |name: &str| dir.join(name).to_string_lossy().into_owned();
    let listing = || {
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };

    let fork = at("fork.tree");
    ok(&["gen", "fork", "3", "4", "-o", &fork]);
    assert_eq!(read(&fork), ok(&["gen", "fork", "3", "4"]));
    // a second write replaces the file whole
    ok(&["gen", "chain", "5", "-o", &fork]);
    assert_eq!(read(&fork), ok(&["gen", "chain", "5"]));

    let nwk = at("band8.nwk");
    let stdout = ok(&["tree", "convert", &fixture("band8.mtx"), "--to", "newick"]);
    ok(&[
        "tree",
        "convert",
        &fixture("band8.mtx"),
        "--to",
        "newick",
        "-o",
        &nwk,
    ]);
    assert_eq!(read(&nwk), stdout);

    let star = at("star9.tree");
    let to_requests = ["tree", "to-requests", &fixture("star9.mtx"), "--procs", "2"];
    let stdout = ok(&[&to_requests[..], &["--tree-out", &star]].concat());
    let star_requests = at("star9.jsonl");
    ok(&[
        &to_requests[..],
        &["--tree-out", &star, "-o", &star_requests],
    ]
    .concat());
    assert_eq!(read(&star_requests), stdout);
    assert_eq!(
        read(&star),
        ok(&["tree", "convert", &fixture("star9.mtx"), "--to", "v1"])
    );

    let requests = at("requests.jsonl");
    std::fs::write(
        &requests,
        format!("{{\"tree\":\"{fork}\",\"scheduler\":\"deepest\",\"processors\":2}}\n"),
    )
    .unwrap();
    let metrics = at("metrics.json");
    ok(&["serve", &requests, "--metrics-out", &metrics]);
    assert!(read(&metrics).starts_with("{\"op\":\"metrics\","));

    let missing = at("no-such-dir/out.tree");
    let err = run(&["gen", "fork", "3", "4", "-o", &missing]).unwrap_err();
    assert!(err.to_string().starts_with("cannot write"), "{err}");

    assert_eq!(
        listing(),
        [
            "band8.nwk",
            "fork.tree",
            "metrics.json",
            "requests.jsonl",
            "star9.jsonl",
            "star9.tree"
        ]
    );
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap()
}
