//! Serve-wire request emission.
//!
//! Builds the JSONL request stream that `serve` (batch or daemon) and
//! `connect` consume, one line per requested processor count. The lines
//! are rendered through `treesched_serve`'s own [`RequestRecord`] — the
//! exact type the engine parses back — so `tree to-requests` output is
//! accepted verbatim by construction, not by convention.

use treesched_core::{Platform, SeqAlgo};
use treesched_serve::RequestRecord;

/// What to put on each emitted request line (besides the tree path).
#[derive(Clone, Debug)]
pub struct RequestOptions {
    /// Request ids are `{prefix}-p{P}` for processor count `P`.
    pub prefix: String,
    /// Scheduler registry name; omitted lines get the engine default.
    pub scheduler: Option<String>,
    /// One request per processor count, in this order.
    pub processors: Vec<u32>,
    /// Shared memory cap forwarded as the flat `cap` field.
    pub cap: Option<f64>,
    /// Sequential sub-algorithm.
    pub seq: Option<SeqAlgo>,
    /// Seed for randomized schedulers.
    pub seed: Option<u64>,
}

impl Default for RequestOptions {
    fn default() -> RequestOptions {
        RequestOptions {
            prefix: "t".into(),
            scheduler: None,
            processors: vec![1, 2, 4],
            cap: None,
            seq: None,
            seed: None,
        }
    }
}

/// Renders the request stream for `tree_path`: one line per processor
/// count in [`RequestOptions::processors`], each ending in `\n`.
pub fn to_requests(tree_path: &str, opts: &RequestOptions) -> String {
    let mut out = String::new();
    for &p in &opts.processors {
        let rec = RequestRecord {
            id: Some(format!("{}-p{p}", opts.prefix)),
            tree: tree_path.to_string(),
            scheduler: opts.scheduler.clone(),
            platform: Some(match opts.cap {
                Some(cap) => Platform::new(p).with_memory_cap(cap),
                None => Platform::new(p),
            }),
            seq: opts.seq,
            seed: opts.seed,
        };
        out.push_str(&rec.to_json());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lines_parse_back_identically() {
        let opts = RequestOptions {
            prefix: "fork".into(),
            scheduler: Some("deepest".into()),
            processors: vec![1, 2, 4],
            cap: Some(64.0),
            seq: SeqAlgo::by_name("liu"),
            seed: Some(7),
        };
        let text = to_requests("data/fork.tree", &opts);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[1],
            "{\"id\":\"fork-p2\",\"tree\":\"data/fork.tree\",\
             \"scheduler\":\"deepest\",\"processors\":2,\"cap\":64,\
             \"seq\":\"liu\",\"seed\":7}"
        );
        for (line, p) in lines.iter().zip([1u32, 2, 4]) {
            let rec = RequestRecord::parse(line).expect("verbatim acceptance");
            assert_eq!(rec.id.as_deref(), Some(format!("fork-p{p}").as_str()));
            assert_eq!(rec.platform, Some(Platform::new(p).with_memory_cap(64.0)));
        }
    }

    #[test]
    fn defaults_stay_minimal() {
        let text = to_requests("x.tree", &RequestOptions::default());
        assert_eq!(
            text.lines().next().unwrap(),
            "{\"id\":\"t-p1\",\"tree\":\"x.tree\",\"processors\":1}"
        );
    }
}
