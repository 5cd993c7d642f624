//! CLI smoke tests: every subcommand's help and error paths through
//! [`treesched_cli::dispatch`], plus true process-level exit codes via the
//! compiled `treesched` binary.

use treesched_cli::{dispatch, CliError, USAGE};

fn run(args: &[&str]) -> Result<String, CliError> {
    let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    dispatch(&v)
}

fn err(args: &[&str]) -> CliError {
    match run(args) {
        Ok(out) => panic!("expected `{}` to fail, got: {out}", args.join(" ")),
        Err(e) => e,
    }
}

#[test]
fn no_args_is_usage_error() {
    let e = err(&[]);
    assert_eq!(e.code, 2);
    assert!(e.message.contains("usage:"));
}

#[test]
fn help_succeeds_for_all_spellings() {
    for flag in ["--help", "-h", "help"] {
        let out = run(&[flag]).unwrap_or_else(|e| panic!("{flag}: {e}"));
        assert_eq!(out, USAGE);
    }
}

#[test]
fn unknown_command_mentions_itself_and_usage() {
    let e = err(&["frobnicate"]);
    assert_eq!(e.code, 2);
    assert!(e.message.contains("unknown command `frobnicate`"));
    assert!(e.message.contains("usage:"));
}

#[test]
fn every_subcommand_rejects_missing_args() {
    // each file-taking subcommand must fail cleanly with exit code 2 when
    // called without its required arguments
    for cmd in ["gen", "stats", "sketch", "seq", "schedule", "pareto", "dot"] {
        let e = err(&[cmd]);
        assert_eq!(e.code, 2, "{cmd}: wrong exit code");
        assert!(!e.message.is_empty(), "{cmd}: empty error message");
    }
}

/// The name→scheduler→name round trip the CLI relies on: every canonical
/// name and alias printed by `treesched schedulers` resolves back to its
/// canonical scheduler. The bench harness runs the same check on its side
/// (`crates/bench/src/harness.rs`), so CLI and bench can never drift apart
/// on scheduler naming.
#[test]
fn scheduler_names_round_trip_through_the_registry() {
    let registry = treesched_core::SchedulerRegistry::standard();
    let listing = run(&["schedulers"]).unwrap();
    for e in registry.iter() {
        assert!(listing.contains(e.name()), "listing misses {}", e.name());
        assert_eq!(registry.get(e.name()).unwrap().name(), e.name());
        for alias in e.aliases() {
            assert_eq!(
                registry.get(alias).unwrap().name(),
                e.name(),
                "alias {alias}"
            );
            assert_eq!(
                registry.get(&alias.to_uppercase()).unwrap().name(),
                e.name(),
                "case-insensitive alias {alias}"
            );
        }
    }
}

#[test]
fn gen_help_lists_all_generators() {
    let e = err(&["gen"]);
    for kind in [
        "fork",
        "chain",
        "complete",
        "random",
        "deep",
        "caterpillar",
        "spider",
        "inapprox",
        "gadget",
        "longchain",
        "assembly",
    ] {
        assert!(e.message.contains(kind), "gen usage missing `{kind}`");
    }
}

#[test]
fn file_commands_report_missing_files() {
    for cmd in ["stats", "sketch", "seq", "dot"] {
        let e = err(&[cmd, "/nonexistent/treesched-smoke.tree"]);
        assert_eq!(e.code, 2, "{cmd}");
        assert!(e.message.contains("cannot read"), "{cmd}: {}", e.message);
    }
    let e = err(&["schedule", "/nonexistent/treesched-smoke.tree", "-p", "2"]);
    assert!(e.message.contains("cannot read"));
    let e = err(&["pareto", "/nonexistent/treesched-smoke.tree", "-p", "2"]);
    assert!(e.message.contains("cannot read"));
}

#[test]
fn malformed_flags_fail_cleanly() {
    assert_eq!(err(&["gen", "fork", "2", "3", "-o"]).code, 2); // -o needs a path
    assert_eq!(err(&["schedule", "x.tree", "-p"]).code, 2); // -p needs N
    assert_eq!(err(&["seq", "x.tree", "--algo"]).code, 2); // wrong arity
    assert_eq!(err(&["sketch", "x.tree", "--max"]).code, 2); // wrong arity
    assert_eq!(err(&["pareto", "x.tree"]).code, 2); // missing -p
}

/// Every value flag of every subcommand, given last with its value
/// missing, and every subcommand given an unknown flag (`--bogus`): each
/// is a usage error (exit 2) whose message names the offending argument.
/// `F` stands for a missing tree file.
#[test]
fn usage_errors_name_the_offending_argument() {
    let missing = [
        ("gen fork 2 3", "-o"),
        ("sketch F", "--max"),
        ("seq F", "--algo"),
        ("schedule F", "-p --speeds"),
        (
            "schedule F -p 2",
            "--scheduler --heuristic --seq --seed --cap --domains --comm --ordering --amalg",
        ),
        (
            "serve",
            "--workers --speeds --domains --comm --metrics-out --listen",
        ),
        ("serve --stdio", "--accept --inflight"),
        ("pareto F", "-p --speeds"),
        ("pareto F -p 2", "--domains"),
        (
            "campaign",
            "--spec --preset --name --scale --trees --trees-file --procs --schedulers \
             --cap-factor --seq --seed --metrics --time-reps --compare --tolerance \
             --speeds --domains --comm --workers",
        ),
        ("tree stat F", "--ordering --amalg"),
        ("tree convert F", "-o --to"),
        ("tree prune F 1", "--to"),
        ("tree subtree F 1", "--to"),
        ("tree reroot F 1", "--to"),
        ("tree to-dot F", "-o"),
        (
            "tree to-requests F",
            "--procs --tree-out --scheduler --seq --seed --cap --prefix",
        ),
    ];
    // each head also takes an unknown flag, as do the subcommands that
    // declare no value flag
    let cases = missing
        .iter()
        .flat_map(|(head, flags)| {
            let flags = flags.split_whitespace().chain(["--bogus"]);
            flags.map(move |f| (*head, f))
        })
        .chain(["stats", "schedulers", "connect F", "metrics", "dot"].map(|h| (h, "--bogus")));
    for (head, flag) in cases {
        let line = format!("{} {flag}", head.replace('F', "/nonexistent/usage.tree"));
        let args: Vec<&str> = line.split_whitespace().collect();
        let e = err(&args);
        assert_eq!(e.code, 2, "{args:?}: {}", e.message);
        assert!(e.message.contains(flag), "{args:?}: {}", e.message);
    }
}

/// End-to-end through the real binary: process exit codes and stdio routing.
mod process {
    use std::process::Command;

    fn treesched(args: &[&str]) -> std::process::Output {
        Command::new(env!("CARGO_BIN_EXE_treesched"))
            .args(args)
            .output()
            .expect("spawn treesched binary")
    }

    #[test]
    fn help_exits_zero_on_stdout() {
        let out = treesched(&["--help"]);
        assert!(out.status.success());
        assert!(String::from_utf8_lossy(&out.stdout).contains("usage:"));
        assert!(out.stderr.is_empty());
    }

    #[test]
    fn errors_exit_two_on_stderr() {
        for args in [
            &["frobnicate"][..],
            &[][..],
            &["stats", "/nonexistent/x.tree"][..],
            &["gen", "fork", "2"][..],
        ] {
            let out = treesched(args);
            assert_eq!(out.status.code(), Some(2), "{args:?}");
            assert!(out.stdout.is_empty(), "{args:?}: error leaked to stdout");
            assert!(!out.stderr.is_empty(), "{args:?}: empty stderr");
        }
    }

    /// Every generator one below each parameter's minimum is a usage
    /// error naming the parameter (exit 2, never a panic's 101); at the
    /// minimum it generates a tree.
    #[test]
    fn gen_checks_every_generator_minimum() {
        for (below, at, param) in [
            ("chain 0", "chain 1", "N"),
            ("complete 0 2", "complete 1 0", "ARITY"),
            ("random 0 1", "random 1 1", "N"),
            ("deep 0 1", "deep 1 1", "N"),
            ("caterpillar 0 2", "caterpillar 1 0", "SPINE"),
            ("spider 0 3", "spider 1 1", "LEGS"),
            ("spider 1 0", "spider 1 1", "LEN"),
            ("inapprox 0 2", "inapprox 1 2", "N"),
            ("inapprox 1 1", "inapprox 1 2", "DELTA"),
            ("gadget 1 2", "gadget 2 2", "P"),
            ("gadget 2 1", "gadget 2 2", "K"),
            ("longchain 0 1", "longchain 1 1", "C"),
            ("longchain 1 0", "longchain 1 1", "LEN"),
            ("assembly rand 1 1", "assembly rand 2 1", "SIZE"),
            ("assembly grid2d 0 1", "assembly grid2d 1 1", "SIZE"),
            ("assembly grid3d 0 1", "assembly grid3d 1 1", "SIZE"),
            ("assembly band 0 1", "assembly band 1 1", "SIZE"),
            ("assembly rand 5 0", "assembly rand 5 1", "AMALG"),
        ] {
            let gen =
                |params: &str| treesched(&format!("gen {params}").split(' ').collect::<Vec<_>>());
            let out = gen(below);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{below}: {stderr}");
            assert!(stderr.contains(param), "{below}: {stderr}");
            assert_eq!(gen(at).status.code(), Some(0), "{at}");
        }
        // the fork has no minimum
        assert!(treesched(&["gen", "fork", "0", "0"]).status.success());
    }

    #[test]
    fn scheduling_failures_exit_one() {
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("treesched-smoke");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("exit1.tree");
        let path = file.to_str().unwrap();
        assert!(treesched(&["gen", "chain", "4", "-o", path])
            .status
            .success());

        // typed scheduling errors (not usage errors) exit with code 1
        for args in [
            &["schedule", path, "-p", "0"][..],
            &["schedule", path, "-p", "2", "--scheduler", "membound"][..],
        ] {
            let out = treesched(args);
            assert_eq!(out.status.code(), Some(1), "{args:?}");
            assert!(out.stdout.is_empty(), "{args:?}");
            assert!(!out.stderr.is_empty(), "{args:?}");
        }
    }

    #[test]
    fn gen_pipes_into_schedule_via_file() {
        let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("treesched-smoke");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("fork.tree");
        let path = file.to_str().unwrap();

        let gen = treesched(&["gen", "fork", "2", "4", "-o", path]);
        assert!(gen.status.success());

        let sched = treesched(&["schedule", path, "-p", "2", "--heuristic", "deepest"]);
        assert!(sched.status.success());
        let text = String::from_utf8_lossy(&sched.stdout).into_owned();
        assert!(text.contains("makespan:"), "{text}");
        assert!(text.contains("peak memory:"), "{text}");
    }
}
