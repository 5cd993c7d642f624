//! End-to-end daemon test over real processes: one `serve --listen`
//! daemon, two concurrent `connect` client processes, every response
//! byte-identical to the one-shot batch `serve` output.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;
use treesched_cli::{dispatch, serve_jsonl};

const BIN: &str = env!("CARGO_BIN_EXE_treesched");

/// Generates the fixture trees in a fresh directory private to the test
/// `name` and returns it: tests run in parallel and rewrite their
/// fixtures, so no two may share a directory.
fn fixture_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("treesched-daemon-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let gen = |args: &[&str]| {
        let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        dispatch(&v).expect("gen succeeds");
    };
    let d = dir.to_string_lossy();
    gen(&["gen", "fork", "3", "2", "-o", &format!("{d}/fork.tree")]);
    gen(&["gen", "chain", "7", "-o", &format!("{d}/chain.tree")]);
    dir
}

/// A small mixed request stream, including one malformed line so the
/// typed line-numbered record crosses the socket too.
fn request_stream(dir: &Path, tag: &str) -> String {
    let d = dir.to_string_lossy();
    let mut input = String::new();
    for (k, (tree, scheduler, p)) in [
        ("fork.tree", "deepest", 2),
        ("chain.tree", "subtrees", 2),
        ("fork.tree", "inner", 3),
        ("chain.tree", "deepest", 4),
    ]
    .iter()
    .enumerate()
    {
        input.push_str(&format!(
            "{{\"id\":\"{tag}{k}\",\"tree\":\"{d}/{tree}\",\
             \"processors\":{p},\"scheduler\":\"{scheduler}\"}}\n"
        ));
    }
    input.push_str("oops not json\n");
    input
}

/// Spawns a `connect` client with `input` piped to its stdin.
fn spawn_client(socket: &Path, input: &str) -> Child {
    let mut child = Command::new(BIN)
        .arg("connect")
        .arg(socket)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("connect client spawns");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("request stream fits the pipe");
    // dropping the handle closes the pipe: the daemon sees EOF
    child
}

#[test]
fn socket_daemon_serves_two_client_processes_batch_identically() {
    let dir = fixture_dir("two-clients");
    let socket = dir.join(format!("daemon-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let input_a = request_stream(&dir, "a");
    let input_b = request_stream(&dir, "b");
    // the acceptance reference: the one-shot batch front-end
    let expected_a = serve_jsonl(&input_a, 2, None);
    let expected_b = serve_jsonl(&input_b, 2, None);

    let daemon = Command::new(BIN)
        .args(["serve", "--listen"])
        .arg(&socket)
        .args(["--accept", "2", "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    // the socket file appears when the listener has bound
    for _ in 0..500 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(socket.exists(), "daemon never bound {}", socket.display());

    let client_a = spawn_client(&socket, &input_a);
    let client_b = spawn_client(&socket, &input_b);
    for (client, expected, tag) in [(client_a, &expected_a, "a"), (client_b, &expected_b, "b")] {
        let out = client.wait_with_output().expect("client exits");
        assert!(
            out.status.success(),
            "client {tag} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        assert_eq!(
            String::from_utf8(out.stdout).unwrap(),
            *expected,
            "client {tag}: socket stream is not batch-identical"
        );
    }

    // --accept 2 bounds the daemon's lifetime: it exits by itself
    let out = daemon.wait_with_output().expect("daemon exits");
    assert!(
        out.status.success(),
        "daemon failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        "served 2 connections\n"
    );
    assert!(!socket.exists(), "daemon removes its socket file");
}

#[test]
fn stdio_daemon_round_trips_through_the_real_binary() {
    let dir = fixture_dir("stdio");
    let input = request_stream(&dir, "s");
    let expected = serve_jsonl(&input, 2, None);
    let mut child = Command::new(BIN)
        .args(["serve", "--stdio", "--workers", "2"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("stdio daemon spawns");
    child
        .stdin
        .take()
        .unwrap()
        .write_all(input.as_bytes())
        .unwrap();
    let out = child.wait_with_output().expect("daemon exits at EOF");
    assert!(
        out.status.success(),
        "stdio daemon failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let framed = String::from_utf8(out.stdout).unwrap();
    let got = treesched_transport::reorder(framed.lines()).expect("framed stream");
    assert_eq!(got, expected, "sorted stdio stream is the batch stream");
}

/// A second client asking `{"op":"metrics"}` mid-session gets a live
/// snapshot whose counters conserve: everything submitted was answered
/// and no worker died. The `metrics` subcommand is the transport.
#[test]
fn metrics_subcommand_reads_a_conserving_live_snapshot() {
    let dir = fixture_dir("metrics");
    let socket = dir.join(format!("metrics-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let input = request_stream(&dir, "m");

    let daemon = Command::new(BIN)
        .args(["serve", "--listen"])
        .arg(&socket)
        .args(["--accept", "2", "--workers", "2"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    for _ in 0..500 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(socket.exists(), "daemon never bound {}", socket.display());

    // connection 1: real traffic, run to completion so the engine
    // counters have settled before the snapshot
    let out = spawn_client(&socket, &input)
        .wait_with_output()
        .expect("client exits");
    assert!(out.status.success());

    // connection 2: the metrics subcommand
    let snap = Command::new(BIN)
        .arg("metrics")
        .arg(&socket)
        .output()
        .expect("metrics subcommand runs");
    assert!(
        snap.status.success(),
        "metrics failed: {}",
        String::from_utf8_lossy(&snap.stderr)
    );
    let record = String::from_utf8(snap.stdout).unwrap();
    assert!(record.starts_with("{\"op\":\"metrics\","), "{record}");

    let count = |key: &str| -> u64 {
        let tail = &record[record
            .find(key)
            .unwrap_or_else(|| panic!("{key} in {record}"))
            + key.len()..];
        tail.trim_start_matches(':')
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .expect("counter value")
    };
    // conservation: 5 lines submitted (4 requests + 1 malformed), every
    // one answered, plus this very metrics request counted in-band
    assert_eq!(count("\"requests_total\""), 6, "{record}");
    assert_eq!(count("\"responses_total\""), 6, "{record}");
    assert_eq!(count("\"worker_lost_total\""), 0, "{record}");
    assert_eq!(count("\"engine_requests_total\""), 4, "{record}");
    assert!(record.contains("\"malformed_total\":1"), "{record}");
    // one latency sample per answered traffic line (4 requests + 1
    // malformed); the in-band metrics answer is not yet sent when sampled
    assert!(
        record.contains("\"response_latency_us\":{\"count\":5"),
        "{record}"
    );

    let out = daemon.wait_with_output().expect("daemon exits");
    assert!(out.status.success());
}

/// SIGTERM is a graceful drain: the daemon stops accepting, answers the
/// in-flight connection, flushes `--metrics-out`, and exits 0.
#[cfg(unix)]
#[test]
fn sigterm_drains_the_listening_daemon_and_flushes_metrics() {
    let dir = fixture_dir("sigterm");
    let socket = dir.join(format!("sigterm-{}.sock", std::process::id()));
    let metrics_file = dir.join(format!("sigterm-{}.metrics.json", std::process::id()));
    let _ = std::fs::remove_file(&socket);
    let _ = std::fs::remove_file(&metrics_file);
    let input = request_stream(&dir, "t");
    let expected = serve_jsonl(&input, 2, None);

    // no --accept: without the signal this daemon would serve forever
    let daemon = Command::new(BIN)
        .args(["serve", "--listen"])
        .arg(&socket)
        .args(["--workers", "2", "--metrics-out"])
        .arg(&metrics_file)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    for _ in 0..500 {
        if socket.exists() {
            break;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(socket.exists(), "daemon never bound {}", socket.display());

    // one client runs to completion first — its work must survive the drain
    let out = spawn_client(&socket, &input)
        .wait_with_output()
        .expect("client exits");
    assert!(out.status.success());
    assert_eq!(String::from_utf8(out.stdout).unwrap(), expected);

    let term = Command::new("kill")
        .args(["-TERM", &daemon.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(term.success());

    let out = daemon.wait_with_output().expect("daemon drains and exits");
    assert!(
        out.status.success(),
        "daemon exit after SIGTERM: {:?}, stderr: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(
        String::from_utf8(out.stdout).unwrap(),
        "served 1 connections\n"
    );
    assert!(!socket.exists(), "drained daemon removes its socket file");

    // the final snapshot reached the file and conserves: the connection
    // submitted 5 lines (4 requests + 1 malformed), all were answered
    let record = std::fs::read_to_string(&metrics_file).expect("metrics flushed");
    assert!(record.starts_with("{\"op\":\"metrics\","), "{record}");
    assert!(record.contains("\"requests_total\":5"), "{record}");
    assert!(record.contains("\"responses_total\":5"), "{record}");
    assert!(record.contains("\"worker_lost_total\":0"), "{record}");
}

/// SIGTERM drains `serve --stdio` while its stdin stays open: the reader
/// stops at a line boundary, every submitted line is answered, the
/// `--metrics-out` snapshot flushes and conserves, and the process exits 0.
#[cfg(unix)]
#[test]
fn sigterm_drains_the_stdio_daemon_with_stdin_open() {
    use std::io::{BufRead as _, BufReader, Read as _};
    let dir = fixture_dir("sigterm-stdio");
    let metrics_file = dir.join("stdio.metrics.json");
    let input = request_stream(&dir, "u");
    let expected = serve_jsonl(&input, 2, None);

    let mut daemon = Command::new(BIN)
        .args(["serve", "--stdio", "--workers", "2", "--metrics-out"])
        .arg(&metrics_file)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("stdio daemon spawns");
    // the write end stays open until the end of the test: no EOF reaches
    // the daemon, so only the signal can end the serve
    let mut stdin = daemon.stdin.take().expect("piped stdin");
    stdin.write_all(input.as_bytes()).unwrap();
    stdin.flush().unwrap();
    let mut stdout = BufReader::new(daemon.stdout.take().expect("piped stdout"));
    let mut framed = String::new();
    for _ in input.lines() {
        stdout.read_line(&mut framed).expect("framed answer");
    }

    let term = Command::new("kill")
        .args(["-TERM", &daemon.id().to_string()])
        .status()
        .expect("kill runs");
    assert!(term.success());
    // bounded wait: a drain that ignores the signal fails, never hangs
    let status = (0..1000)
        .find_map(|_| {
            std::thread::sleep(Duration::from_millis(10));
            daemon.try_wait().expect("daemon status")
        })
        .unwrap_or_else(|| {
            let _ = daemon.kill();
            panic!("stdio daemon ignored SIGTERM with stdin open")
        });
    let mut stderr = String::new();
    let mut pipe = daemon.stderr.take().unwrap();
    pipe.read_to_string(&mut stderr).unwrap();
    assert!(status.success(), "exit after SIGTERM: {status:?}, {stderr}");
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).unwrap();
    assert_eq!(rest, "", "no answer beyond one per submitted line");
    let got = treesched_transport::reorder(framed.lines()).expect("framed stream");
    assert_eq!(got, expected, "sorted stdio stream is the batch stream");

    // the final snapshot conserves: 5 lines (4 requests + 1 malformed)
    // submitted, all 5 answered
    let record = std::fs::read_to_string(&metrics_file).expect("metrics flushed");
    assert!(record.contains("\"requests_total\":5,"), "{record}");
    assert!(record.contains("\"responses_total\":5,"), "{record}");
    assert!(record.contains("\"worker_lost_total\":0"), "{record}");
    drop(stdin);
}
