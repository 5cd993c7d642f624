//! Golden-file and determinism tests for the JSONL serving protocol.
//!
//! The golden files pin the request/response schema byte-for-byte: any
//! change to field names, field order, number formatting, or error wording
//! shows up as a diff against `tests/data/serve_responses.golden.jsonl`
//! (flat legacy platforms — success records must never change; the
//! malformed-line error record last changed deliberately when it became a
//! typed line-numbered record) and
//! `tests/data/serve_hetero_responses.golden.jsonl` (heterogeneous
//! `platform` objects) and
//! `tests/data/serve_comm_responses.golden.jsonl` (communication-cost
//! matrices: comm-aware list scheduling, the `comm` echo — present only
//! when some cost is non-zero — and the typed refusals and matrix
//! validation errors). Regenerate deliberately with `UPDATE_GOLDEN=1
//! cargo test -p treesched_cli --test serve` after an intentional protocol
//! change.

use treesched_cli::{dispatch, serve_jsonl};

/// Request stream templates; `{DIR}` is replaced with the tree directory.
const REQUESTS_IN: &str = include_str!("data/serve_requests.jsonl.in");
const RESPONSES_GOLDEN: &str = include_str!("data/serve_responses.golden.jsonl");
const HETERO_REQUESTS_IN: &str = include_str!("data/serve_hetero_requests.jsonl.in");
const HETERO_RESPONSES_GOLDEN: &str = include_str!("data/serve_hetero_responses.golden.jsonl");
const COMM_REQUESTS_IN: &str = include_str!("data/serve_comm_requests.jsonl.in");
const COMM_RESPONSES_GOLDEN: &str = include_str!("data/serve_comm_responses.golden.jsonl");

fn run(args: &[&str]) -> String {
    let v: Vec<String> = args.iter().map(|s| s.to_string()).collect();
    dispatch(&v).expect("command succeeds")
}

/// Generates the fixture trees in a fresh directory private to the test
/// `name` and returns that directory: tests run in parallel and rewrite
/// their fixtures, so no two may share one.
fn fixtures(name: &str) -> String {
    let dir = std::env::temp_dir().join(format!("treesched-serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let dir = dir.to_string_lossy().into_owned();
    run(&["gen", "fork", "2", "3", "-o", &format!("{dir}/fork.tree")]);
    run(&[
        "gen",
        "spider",
        "4",
        "3",
        "-o",
        &format!("{dir}/spider.tree"),
    ]);
    dir
}

/// The request stream `template` over the test's own fixture trees.
fn requests(template: &str, test: &str) -> String {
    template.replace("{DIR}", &fixtures(test))
}

fn check_golden(got: &str, golden: &str, golden_file: &str) {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        let path = format!("{}/tests/data/{golden_file}", env!("CARGO_MANIFEST_DIR"));
        std::fs::write(path, got).unwrap();
        return;
    }
    assert_eq!(
        got, golden,
        "JSONL response schema drifted from {golden_file} \
         (UPDATE_GOLDEN=1 regenerates after an intentional change)"
    );
}

#[test]
fn serve_responses_match_the_golden_schema() {
    let got = serve_jsonl(&requests(REQUESTS_IN, "flat-golden"), 2, None);
    check_golden(&got, RESPONSES_GOLDEN, "serve_responses.golden.jsonl");
}

#[test]
fn hetero_serve_responses_match_the_golden_schema() {
    let got = serve_jsonl(&requests(HETERO_REQUESTS_IN, "hetero-golden"), 2, None);
    check_golden(
        &got,
        HETERO_RESPONSES_GOLDEN,
        "serve_hetero_responses.golden.jsonl",
    );
}

#[test]
fn comm_serve_responses_match_the_golden_schema() {
    let got = serve_jsonl(&requests(COMM_REQUESTS_IN, "comm-golden"), 2, None);
    check_golden(
        &got,
        COMM_RESPONSES_GOLDEN,
        "serve_comm_responses.golden.jsonl",
    );
}

/// The daemon acceptance pin: a streamed stdio session, stable-sorted by
/// its frame index client-side, must reproduce the batch golden files
/// byte-for-byte — for both the flat and the heterogeneous protocol.
#[test]
fn daemon_stdio_stream_reordered_matches_the_batch_goldens() {
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        return; // goldens regenerate through the batch tests above
    }
    use treesched_transport::{reorder, serve_stdio, Daemon, DaemonConfig};
    for (template, golden) in [
        (REQUESTS_IN, RESPONSES_GOLDEN),
        (HETERO_REQUESTS_IN, HETERO_RESPONSES_GOLDEN),
        (COMM_REQUESTS_IN, COMM_RESPONSES_GOLDEN),
    ] {
        let input = requests(template, "daemon-stdio");
        let daemon = Daemon::new(
            treesched_core::SchedulerRegistry::standard(),
            DaemonConfig::default(),
        );
        static NEVER: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);
        let pipe = std::io::Cursor::new(input.clone().into_bytes());
        let (delivered, framed) =
            serve_stdio(&daemon, pipe, Vec::new(), true, &NEVER).expect("pipe serves");
        let framed = String::from_utf8(framed).unwrap();
        assert_eq!(delivered as usize, framed.lines().count());
        let got = reorder(framed.lines()).expect("every streamed line is framed");
        assert_eq!(
            got, golden,
            "sorted daemon stream drifted from the batch golden"
        );
    }
}

#[test]
fn serve_output_is_byte_identical_across_worker_counts() {
    for template in [REQUESTS_IN, HETERO_REQUESTS_IN, COMM_REQUESTS_IN] {
        let input = requests(template, "worker-counts");
        let reference = serve_jsonl(&input, 1, None);
        for workers in [2usize, 4] {
            assert_eq!(
                serve_jsonl(&input, workers, None),
                reference,
                "serve output depends on the worker count (workers={workers})"
            );
        }
    }
}

#[test]
fn hetero_responses_round_trip_through_the_request_parser() {
    // every heterogeneous response line must itself be parseable JSON of
    // the shared record shape, and the echoed platform object must parse
    // back into the platform that was requested (comm matrices included —
    // an all-zero matrix round-trips as the matrix-free platform it is)
    for template in [HETERO_REQUESTS_IN, COMM_REQUESTS_IN] {
        check_round_trip(&requests(template, "round-trip"));
    }
}

fn check_round_trip(input: &str) {
    for (req_line, resp_line) in input.lines().zip(serve_jsonl(input, 2, None).lines()) {
        let resp = treesched_serve::jsonl::parse_object(resp_line)
            .unwrap_or_else(|e| panic!("unparseable response {resp_line}: {e}"));
        if resp.iter().any(|(k, _)| k == "error") {
            continue;
        }
        let req = treesched_serve::RequestRecord::parse(req_line).expect("fixture parses");
        if let Some(requested) = req.platform {
            if !requested.is_flat() {
                let echoed = resp
                    .iter()
                    .find(|(k, _)| k == "platform")
                    .map(|(_, v)| treesched_serve::platform_from_value(v).unwrap())
                    .expect("non-flat response carries its platform");
                // canonical-form equality: an all-zero requested matrix
                // echoes (and parses back) as the matrix-free platform
                assert_eq!(
                    treesched_serve::platform_json(&echoed),
                    treesched_serve::platform_json(&requested),
                    "{resp_line}"
                );
                // one domain peak per declared domain, each within the
                // global peak
                let n_domains = requested.domains().len();
                if n_domains > 0 {
                    let peaks = resp
                        .iter()
                        .find(|(k, _)| k == "domain_peaks")
                        .expect("domain platforms report per-domain peaks");
                    match &peaks.1 {
                        treesched_serve::jsonl::Value::Arr(items) => {
                            assert_eq!(items.len(), n_domains, "{resp_line}")
                        }
                        other => panic!("domain_peaks not an array: {other:?}"),
                    }
                }
            }
        }
    }
}

/// The observability contract: metering a serve run must never perturb
/// the response stream. `serve_jsonl` and the snapshot-returning variant
/// are exercised over generated request mixes (valid lines across both
/// fixture trees, malformed lines, unknown schedulers, blanks) at several
/// worker counts, and the streams must match byte-for-byte.
mod metrics_identity {
    use super::*;
    use proptest::prelude::*;
    use treesched_cli::serve_jsonl_with_metrics;

    /// Renders one request line from its generated code.
    fn line(dir: &str, code: usize, k: usize) -> String {
        match code {
            0 => format!(
                "{{\"id\":\"g{k}\",\"tree\":\"{dir}/fork.tree\",\
                 \"processors\":2,\"scheduler\":\"deepest\"}}"
            ),
            1 => format!(
                "{{\"id\":\"g{k}\",\"tree\":\"{dir}/spider.tree\",\
                 \"processors\":3,\"scheduler\":\"subtrees\"}}"
            ),
            2 => format!(
                "{{\"id\":\"g{k}\",\"tree\":\"{dir}/fork.tree\",\
                 \"processors\":4,\"scheduler\":\"inner\"}}"
            ),
            3 => "oops not json".to_string(),
            4 => format!(
                "{{\"id\":\"g{k}\",\"tree\":\"{dir}/fork.tree\",\
                 \"processors\":2,\"scheduler\":\"nosuch\"}}"
            ),
            _ => String::new(), // blank line
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn metrics_never_perturb_the_response_stream(
            codes in proptest::collection::vec(0usize..6, 1..20),
            workers in 1usize..4,
        ) {
            let dir = fixtures("metrics-identity");
            let input: String = codes
                .iter()
                .enumerate()
                .map(|(k, &c)| format!("{}\n", line(&dir, c, k)))
                .collect();
            let plain = serve_jsonl(&input, workers, None);
            let (metered, snapshot) = serve_jsonl_with_metrics(&input, workers, None);
            prop_assert_eq!(&plain, &metered, "metrics perturbed the stream");
            // the snapshot is a well-formed metrics record, outside the
            // response stream
            prop_assert!(snapshot.starts_with("{\"op\":\"metrics\","), "{}", snapshot);
            prop_assert!(snapshot.ends_with("}\n"), "{}", snapshot);
            // everything that parses reaches the engine — unknown
            // schedulers error *there* and still count; only malformed
            // JSON (3) and blank lines (5) stay outside
            let scheduled = codes.iter().filter(|&&c| c != 3 && c != 5).count() as u64;
            prop_assert!(
                snapshot.contains(&format!("\"engine_requests_total\":{scheduled}")),
                "want {} scheduled in {}", scheduled, snapshot
            );
            prop_assert!(snapshot.contains("\"schedule_time_us\":{\"count\":"), "{}", snapshot);
            prop_assert!(snapshot.contains("\"span_parse\":"), "{}", snapshot);
            prop_assert!(snapshot.contains("\"span_drain\":"), "{}", snapshot);
        }
    }
}

/// `serve --metrics-out` in batch mode: the response stream is untouched
/// and the snapshot lands in the file with the engine counters filled.
#[test]
fn serve_metrics_out_writes_the_snapshot_beside_identical_output() {
    let dir = std::path::PathBuf::from(fixtures("metrics-out"));
    let input = REQUESTS_IN.replace("{DIR}", &dir.to_string_lossy());
    let req_file = dir.join("metrics_requests.jsonl");
    std::fs::write(&req_file, &input).unwrap();
    let metrics_file = dir.join("metrics_snapshot.json");
    let out = run(&[
        "serve",
        req_file.to_str().unwrap(),
        "--workers",
        "2",
        "--metrics-out",
        metrics_file.to_str().unwrap(),
    ]);
    assert_eq!(out, serve_jsonl(&input, 2, None), "responses drifted");
    let snapshot = std::fs::read_to_string(&metrics_file).expect("snapshot written");
    assert!(snapshot.starts_with("{\"op\":\"metrics\","), "{snapshot}");
    // every line that parses is an engine request (unknown schedulers
    // error inside the engine and still count); only the malformed line
    // is answered by the parser itself
    let scheduled = out
        .lines()
        .filter(|l| !l.contains("\"error\":\"bad request on line"))
        .count();
    assert!(
        snapshot.contains(&format!("\"engine_requests_total\":{scheduled}")),
        "{snapshot}"
    );
    // every scheduled request left exactly one latency sample
    assert!(
        snapshot.contains(&format!("\"schedule_time_us\":{{\"count\":{scheduled}")),
        "{snapshot}"
    );
}
