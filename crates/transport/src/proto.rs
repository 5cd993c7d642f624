//! The shared per-line request front-end: one JSONL request line in, one
//! [`ServeRequest`] (or one finished error record) out.
//!
//! The daemon's engine loop builds every engine request through this one
//! type, and the one-shot batch `serve` command is that loop run in place
//! ([`crate::serve_batch`]). That is what makes the acceptance guarantee
//! *structural* rather than aspirational: a streamed response stream,
//! stable-sorted by submission index, is byte-identical to the batch
//! output because both paths parse, resolve, default, and render through
//! exactly the same code.
//!
//! Resolution per line, in order:
//!
//! 1. [`RequestRecord::parse`] — a malformed line becomes a typed
//!    [`malformed_json`] record carrying the 1-based line number;
//! 2. tree lookup through the parser's cache (one load per distinct path
//!    for the parser's lifetime — the daemon keeps one parser, so every
//!    client shares the warm cache); equal trees from different paths
//!    share one allocation, and with it one memo of per-tree facts;
//! 3. platform: the request's own spec, else the front-end default, else
//!    an error record;
//! 4. scheduler: the request's own name, else the platform-aware
//!    [`default_scheduler`].

use std::collections::HashMap;
use std::sync::Arc;
use treesched_core::Platform;
use treesched_model::{io as tree_io, TaskTree};
use treesched_serve::{error_json, malformed_json, RequestRecord, ServeRequest};

/// Default scheduler when a request names none, shared by `schedule`,
/// batch `serve`, and the daemon: a comm-bearing platform gets the
/// comm-aware `ParDeepestFirst` (subtree and capped schedulers refuse
/// transfer costs), a platform with a shared cap gets the safe
/// memory-capped scheduler, an uncapped equal-speed one the paper's
/// `ParSubtrees`, and a mixed-speed one the speed-aware `ParDeepestFirst`.
/// A capped *mixed-speed* platform still resolves to `MemBoundedSeq` so
/// per-domain caps are enforced rather than silently ignored.
pub fn default_scheduler(platform: &Platform) -> &'static str {
    if platform.has_comm() {
        "ParDeepestFirst"
    } else if platform.memory_cap().is_some() || !platform.domains().is_empty() {
        "MemBoundedSeq"
    } else if platform.uniform_speed().is_some() {
        "ParSubtrees"
    } else {
        "ParDeepestFirst"
    }
}

/// Stateful request front-end: tree cache plus the front-end's default
/// platform for requests that spell none of their own.
pub struct RequestParser {
    trees: HashMap<String, Arc<TaskTree>>,
    /// The distinct trees loaded so far, by fingerprint; a hash only
    /// nominates candidates, equality decides.
    interned: HashMap<u64, Vec<Arc<TaskTree>>>,
    default_platform: Option<Platform>,
}

impl RequestParser {
    /// A parser with an empty tree cache.
    pub fn new(default_platform: Option<Platform>) -> RequestParser {
        RequestParser {
            trees: HashMap::new(),
            interned: HashMap::new(),
            default_platform,
        }
    }

    /// The shared allocation of a tree equal to `tree`, or `tree` itself
    /// when no loaded tree equals it.
    fn intern(&mut self, tree: TaskTree) -> Arc<TaskTree> {
        let equal = self.interned.entry(tree.fingerprint()).or_default();
        if let Some(shared) = equal.iter().find(|t| ***t == tree) {
            return Arc::clone(shared);
        }
        let tree = Arc::new(tree);
        equal.push(Arc::clone(&tree));
        tree
    }

    /// Builds the engine request for one non-empty request line.
    ///
    /// `lineno` is the 1-based input line number of the client's stream —
    /// it only surfaces in the typed malformed-line record. The `Err`
    /// variant is a **finished response record** (newline included), ready
    /// to take the line's slot in the output stream.
    pub fn build(&mut self, lineno: usize, line: &str) -> Result<ServeRequest, String> {
        let record = match RequestRecord::parse(line) {
            Ok(r) => r,
            Err(e) => return Err(malformed_json(lineno, &e)),
        };
        let id = record.id;
        let tree = match self.trees.get(&record.tree) {
            Some(t) => Arc::clone(t),
            None => match load_tree(&record.tree) {
                Ok(t) => {
                    let t = self.intern(t);
                    self.trees.insert(record.tree, Arc::clone(&t));
                    t
                }
                Err(e) => return Err(error_json(id.as_deref(), &e)),
            },
        };
        let platform = match (record.platform, &self.default_platform) {
            (Some(platform), _) => platform,
            (None, Some(default)) => default.clone(),
            (None, None) => {
                return Err(error_json(
                    id.as_deref(),
                    "request needs `processors` or a `platform` object",
                ))
            }
        };
        let scheduler = record
            .scheduler
            .unwrap_or_else(|| default_scheduler(&platform).to_string());
        let mut request = ServeRequest::new(tree, scheduler, platform);
        if let Some(seq) = record.seq {
            request = request.with_seq(seq);
        }
        if let Some(seed) = record.seed {
            request = request.with_seed(seed);
        }
        if let Some(id) = id {
            request = request.with_id(id);
        }
        Ok(request)
    }

    /// Number of distinct tree paths loaded so far.
    pub fn cached_trees(&self) -> usize {
        self.trees.len()
    }
}

/// Loads a tree file with the CLI's exact error wording — these strings
/// are part of the response protocol (they travel in `error` fields and
/// are pinned by the golden files).
fn load_tree(path: &str) -> Result<TaskTree, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    tree_io::from_text(&text).map_err(|e| format!("cannot parse {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree_file(name: &str, tree: &TaskTree) -> String {
        let dir = std::env::temp_dir().join("treesched-transport-proto");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, tree_io::to_text(tree)).unwrap();
        path.to_string_lossy().into_owned()
    }

    #[test]
    fn well_formed_lines_build_requests_and_cache_trees() {
        let path = tree_file("fork.tree", &TaskTree::fork(4, 1.0, 1.0, 0.0));
        let mut parser = RequestParser::new(None);
        let line = format!("{{\"id\":\"a\",\"tree\":\"{path}\",\"processors\":2}}");
        let req = parser.build(1, &line).expect("builds");
        assert_eq!(req.id.as_deref(), Some("a"));
        assert_eq!(req.scheduler, "ParSubtrees", "platform-aware default");
        let req2 = parser.build(2, &line).expect("builds again");
        assert!(
            Arc::ptr_eq(&req.problem.tree, &req2.problem.tree),
            "second hit shares the cached Arc"
        );
        assert_eq!(parser.cached_trees(), 1);
    }

    #[test]
    fn equal_trees_from_different_paths_share_one_arc() {
        let fork = TaskTree::fork(4, 1.0, 1.0, 0.0);
        let mut heavier = fork.clone();
        heavier.set_work(heavier.root(), 2.0);
        let paths = [
            tree_file("intern-a.tree", &fork),
            tree_file("intern-b.tree", &fork),
            tree_file("intern-c.tree", &heavier),
        ];
        let mut parser = RequestParser::new(None);
        let trees: Vec<Arc<TaskTree>> = paths
            .iter()
            .enumerate()
            .map(|(k, path)| {
                let line = format!("{{\"tree\":\"{path}\",\"processors\":2}}");
                parser.build(k + 1, &line).expect("builds").problem.tree
            })
            .collect();
        assert!(Arc::ptr_eq(&trees[0], &trees[1]), "equal content, one Arc");
        assert!(
            !Arc::ptr_eq(&trees[0], &trees[2]),
            "unequal trees stay apart"
        );
        assert_eq!(*trees[2], heavier);
        assert_eq!(parser.cached_trees(), 3, "paths are still counted");
    }

    #[test]
    fn error_lines_render_the_batch_records_byte_for_byte() {
        let mut parser = RequestParser::new(None);
        // malformed JSON: typed record with the 1-based line number
        let err = parser.build(9, "not json").unwrap_err();
        assert_eq!(err, malformed_json(9, "expected `{` at byte 0"));
        // unreadable tree: the CLI's exact `cannot read` wording
        let err = parser
            .build(
                1,
                "{\"id\":\"x\",\"tree\":\"/nope/missing.tree\",\"processors\":2}",
            )
            .unwrap_err();
        assert!(err.starts_with("{\"id\":\"x\",\"error\":\"cannot read /nope/missing.tree:"));
        // platform-less request without a front-end default
        let path = tree_file("chain.tree", &TaskTree::chain(3, 1.0, 1.0, 0.0));
        let err = parser
            .build(2, &format!("{{\"tree\":\"{path}\"}}"))
            .unwrap_err();
        assert_eq!(
            err,
            error_json(None, "request needs `processors` or a `platform` object")
        );
        // ...and with one, the default platform applies
        let mut parser = RequestParser::new(Some(Platform::new(3)));
        let req = parser
            .build(2, &format!("{{\"tree\":\"{path}\"}}"))
            .expect("defaulted");
        assert_eq!(req.problem.platform, Platform::new(3));
    }

    #[test]
    fn default_scheduler_is_platform_aware() {
        assert_eq!(default_scheduler(&Platform::new(2)), "ParSubtrees");
        assert_eq!(
            default_scheduler(&Platform::new(2).with_memory_cap(8.0)),
            "MemBoundedSeq"
        );
        let mixed = Platform::heterogeneous(vec![
            treesched_core::ProcClass::new(1, 2.0),
            treesched_core::ProcClass::new(1, 1.0),
        ]);
        assert_eq!(default_scheduler(&mixed), "ParDeepestFirst");
        // split memory defaults to the domain-enforcing capped scheduler
        let split = mixed.clone().with_domain(8.0, &[0]).with_domain(8.0, &[1]);
        assert_eq!(default_scheduler(&split), "MemBoundedSeq");
        // ...unless transfers cost something — then only the comm-aware
        // list schedulers apply
        let comm = split.with_comm(vec![0.0, 1.0, 1.0, 0.0]);
        assert_eq!(default_scheduler(&comm), "ParDeepestFirst");
    }
}
