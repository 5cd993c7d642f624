//! Workload inputs: the medium corpus written to disk and the seeded
//! request streams over it. The program under test sees only these files
//! and lines; the seed decides the order and mix of requests, never the
//! corpus itself.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use treesched_core::tree_fingerprint;
use treesched_gen::{assembly_corpus, Scale};
use treesched_model::{io as tree_io, TaskTree};
use treesched_sparse::{generate, SparsePattern};
use treesched_trees::{IngestOptions, OrderingKind};

/// The paper's four heuristics: registry name and metric suffix.
pub const HEURISTICS: [(&str, &str); 4] = [
    ("ParSubtrees", "subtrees"),
    ("ParSubtreesOptim", "optim"),
    ("ParInnerFirst", "inner"),
    ("ParDeepestFirst", "deepest"),
];

/// The memory-capped scheduler of the `stream` mix.
pub const MEMBOUND: (&str, &str) = ("MemBoundedSeq", "membound");

/// Processor counts of the `batch` and `stream` requests.
pub const PROCS: [u32; 3] = [2, 4, 8];

/// `stream` memory cap as a multiple of each tree's sequential peak.
pub const CAP_FACTOR: f64 = 1.5;

/// Relaxed-amalgamation limit of the `ingest` MatrixMarket loads.
pub const INGEST_AMALG: u32 = 4;

/// SplitMix64: the benchmark's only source of randomness.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform on `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform on `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for k in (1..items.len()).rev() {
            items.swap(k, self.below(k + 1));
        }
    }
}

/// A scratch directory for one run's files, removed when dropped.
pub struct Workdir(PathBuf);

impl Workdir {
    /// `.bench_work/<pid>` under the current directory.
    pub fn create() -> std::io::Result<Workdir> {
        let dir = Path::new(".bench_work").join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        Ok(Workdir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // leaves `.bench_work` itself only while another run uses it
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// Generates the medium assembly corpus (96 trees) and writes every tree
/// to `dir` as `t<k>.<ext>`, rendered by `render`. Returns each file's
/// path with its tree; callers keep only what they need, so no corpus
/// tree stays alive through a measured phase.
pub fn write_corpus(
    dir: &Path,
    ext: &str,
    render: fn(&TaskTree) -> String,
) -> std::io::Result<Vec<(String, TaskTree)>> {
    assembly_corpus(Scale::Medium)
        .into_iter()
        .enumerate()
        .map(|(k, entry)| {
            let path = dir.join(format!("t{k:02}.{ext}"));
            std::fs::write(&path, render(&entry.tree))?;
            Ok((path.to_string_lossy().into_owned(), entry.tree))
        })
        .collect()
}

/// Writes the corpus as v1 tree files (the serve protocol's tree format).
pub fn write_v1_corpus(dir: &Path) -> std::io::Result<Vec<(String, TaskTree)>> {
    write_corpus(dir, "tree", tree_io::to_text)
}

fn request_line(id: &str, path: &str, scheduler: &str, p: u32, cap: Option<f64>) -> String {
    let mut line = format!(
        "{{\"id\":\"{id}\",\"tree\":\"{path}\",\"scheduler\":\"{scheduler}\",\"processors\":{p}"
    );
    if let Some(cap) = cap {
        let _ = write!(line, ",\"cap\":{cap}");
    }
    line.push('}');
    line
}

/// The `batch` request lines: every tree × the four heuristics × every
/// processor count, p-major and then heuristic-major, so consecutive
/// lines switch trees. The seed shuffles the tree order of each p block.
pub fn batch_lines(paths: &[String], seed: u64) -> Vec<String> {
    let mut rng = Rng::new(seed);
    let mut lines = Vec::with_capacity(paths.len() * HEURISTICS.len() * PROCS.len());
    for p in PROCS {
        let mut order: Vec<usize> = (0..paths.len()).collect();
        rng.shuffle(&mut order);
        for (name, tag) in HEURISTICS {
            for &t in &order {
                lines.push(request_line(
                    &format!("p{p}.{tag}.t{t}"),
                    &paths[t],
                    name,
                    p,
                    None,
                ));
            }
        }
    }
    lines
}

/// The `stream` arrivals: due times (seconds from the start of the phase)
/// of a Poisson process at `rate` over `seconds`, each with a request for
/// a random tree, one of the four heuristics or the capped scheduler (cap
/// `CAP_FACTOR` × the tree's sequential peak), and a random processor
/// count.
pub fn stream_plan(
    paths: &[String],
    seq_peaks: &[f64],
    seed: u64,
    rate: f64,
    seconds: f64,
) -> (Vec<String>, Vec<f64>) {
    let mut rng = Rng::new(seed);
    let (mut lines, mut due) = (Vec::new(), Vec::new());
    let mut at = -rng.unit().ln() / rate;
    while at < seconds {
        let t = rng.below(paths.len());
        let s = rng.below(HEURISTICS.len() + 1);
        let p = PROCS[rng.below(PROCS.len())];
        let (name, cap) = match HEURISTICS.get(s) {
            Some(&(name, _)) => (name, None),
            None => (MEMBOUND.0, Some(CAP_FACTOR * seq_peaks[t])),
        };
        lines.push(request_line(
            &format!("s{}", lines.len()),
            &paths[t],
            name,
            p,
            cap,
        ));
        due.push(at);
        at += -rng.unit().ln() / rate;
    }
    (lines, due)
}

/// One line per tree, for warming the daemon's tree cache.
pub fn warm_lines(paths: &[String]) -> String {
    paths
        .iter()
        .enumerate()
        .map(|(k, path)| request_line(&format!("w{k}"), path, HEURISTICS[0].0, 2, None) + "\n")
        .collect()
}

/// What an `ingest` file is and how it is loaded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ItemKind {
    /// A MatrixMarket file loaded under AMD ordering.
    Amd,
    /// A MatrixMarket file loaded under RCM ordering.
    Rcm,
    /// A Newick export of a corpus tree.
    Newick,
}

/// One `ingest` load: a file, its ingest options, and for Newick exports
/// the fingerprint of the source tree they must round-trip to.
pub struct IngestItem {
    pub kind: ItemKind,
    pub path: String,
    pub opts: IngestOptions,
    pub bytes: usize,
    pub source_fingerprint: Option<u64>,
}

/// The twelve matrices behind the medium assembly corpus.
pub fn medium_matrices() -> Vec<(String, SparsePattern)> {
    use generate::Stencil::{Box as BoxS, Star};
    vec![
        ("grid2d-40x40".into(), generate::grid2d(40, 40, Star)),
        ("grid2d-60x30".into(), generate::grid2d(60, 30, Star)),
        ("grid2d9p-30x30".into(), generate::grid2d(30, 30, BoxS)),
        ("grid3d-10x10x10".into(), generate::grid3d(10, 10, 10, Star)),
        ("grid3d-14x8x8".into(), generate::grid3d(14, 8, 8, Star)),
        (
            "rand-3000-d3".into(),
            generate::random_symmetric(3000, 3.0, 1),
        ),
        (
            "rand-2000-d5".into(),
            generate::random_symmetric(2000, 5.0, 2),
        ),
        (
            "rand-4000-d2.5".into(),
            generate::random_symmetric(4000, 2.5, 3),
        ),
        ("band-3000-bw8".into(), generate::band(3000, 8)),
        ("band-2000-bw20".into(), generate::band(2000, 20)),
        ("arrow-2000-h1".into(), generate::arrow(2000, 1)),
        ("arrow-1500-h3".into(), generate::arrow(1500, 3)),
    ]
}

/// A symmetric coordinate-pattern MatrixMarket rendering of `p`: the
/// diagonal plus the lower triangle, 1-based.
pub fn to_matrix_market(p: &SparsePattern) -> String {
    let mut entries = String::new();
    let mut nnz = 0usize;
    for i in 0..p.n() {
        let _ = writeln!(entries, "{} {}", i + 1, i + 1);
        nnz += 1;
        for &j in p.neighbors(i).iter().filter(|&&j| (j as usize) < i) {
            let _ = writeln!(entries, "{} {}", i + 1, j + 1);
            nnz += 1;
        }
    }
    format!(
        "%%MatrixMarket matrix coordinate pattern symmetric\n{n} {n} {nnz}\n{entries}",
        n = p.n()
    )
}

/// Writes the `ingest` files: every medium matrix as `.mtx` (loaded
/// twice, under AMD and under RCM) and every corpus tree as Newick.
pub fn write_ingest_items(dir: &Path) -> std::io::Result<Vec<IngestItem>> {
    let mut items = Vec::new();
    for (k, (_, pattern)) in medium_matrices().iter().enumerate() {
        let path = dir.join(format!("m{k:02}.mtx"));
        let text = to_matrix_market(pattern);
        std::fs::write(&path, &text)?;
        for (kind, ordering) in [
            (ItemKind::Amd, OrderingKind::MinDegree),
            (ItemKind::Rcm, OrderingKind::Rcm),
        ] {
            items.push(IngestItem {
                kind,
                path: path.to_string_lossy().into_owned(),
                opts: IngestOptions {
                    ordering,
                    amalg: INGEST_AMALG,
                },
                bytes: text.len(),
                source_fingerprint: None,
            });
        }
    }
    for (path, tree) in write_corpus(dir, "nwk", treesched_trees::to_newick)? {
        items.push(IngestItem {
            kind: ItemKind::Newick,
            bytes: std::fs::metadata(&path)?.len() as usize,
            path,
            opts: IngestOptions::default(),
            source_fingerprint: Some(tree_fingerprint(&tree)),
        });
    }
    Ok(items)
}

/// The `ingest` request order, in rounds: every round loads every item
/// once, in one fixed interleaved order (so the allocation pattern, and
/// with it the peak resident memory, does not depend on the seed). The
/// seed deals each item a permutation of the four heuristics over the
/// rounds, so the rounds together serve every (item, heuristic) pair
/// exactly once.
pub fn ingest_order(items: usize, seed: u64) -> Vec<Vec<(usize, usize)>> {
    let mut order: Vec<usize> = (0..items).collect();
    Rng::new(0).shuffle(&mut order);
    let mut rng = Rng::new(seed);
    let deals: Vec<Vec<usize>> = (0..items)
        .map(|_| {
            let mut deal: Vec<usize> = (0..HEURISTICS.len()).collect();
            rng.shuffle(&mut deal);
            deal
        })
        .collect();
    (0..HEURISTICS.len())
        .map(|round| order.iter().map(|&i| (i, deals[i][round])).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paths() -> Vec<String> {
        (0..10).map(|k| format!("d/t{k}.tree")).collect()
    }

    #[test]
    fn batch_stream_is_a_function_of_the_seed() {
        let a = batch_lines(&paths(), 7);
        assert_eq!(a, batch_lines(&paths(), 7));
        assert_ne!(a, batch_lines(&paths(), 8));
        assert_eq!(a.len(), 10 * 4 * 3);
        // the same request set under every seed: only the order moves
        let (mut x, mut y) = (a.clone(), batch_lines(&paths(), 8));
        x.sort();
        y.sort();
        assert_eq!(x, y);
    }

    #[test]
    fn stream_plan_is_a_function_of_the_seed() {
        let peaks = vec![10.0; 10];
        let a = stream_plan(&paths(), &peaks, 7, 200.0, 5.0);
        let b = stream_plan(&paths(), &peaks, 7, 200.0, 5.0);
        assert_eq!(a.0.join("\n").as_bytes(), b.0.join("\n").as_bytes());
        assert_eq!(a.1, b.1);
        assert_ne!(a.0, stream_plan(&paths(), &peaks, 8, 200.0, 5.0).0);
        // Poisson at 200/s over 5 s: about 1000 arrivals, in due order
        assert!((800..1200).contains(&a.0.len()), "{}", a.0.len());
        assert!(a.1.windows(2).all(|w| w[0] <= w[1]) && a.1[a.1.len() - 1] < 5.0);
        assert!(a.0.iter().any(|l| l.contains("\"cap\":15")));
    }

    #[test]
    fn ingest_order_is_a_function_of_the_seed() {
        let a = ingest_order(30, 7);
        assert_eq!(a, ingest_order(30, 7));
        assert_ne!(a, ingest_order(30, 8));
        // every round loads every item once; all rounds cover every pair
        for round in &a {
            let mut items: Vec<usize> = round.iter().map(|&(i, _)| i).collect();
            items.sort();
            assert_eq!(items, (0..30).collect::<Vec<_>>());
        }
        let mut pairs: Vec<(usize, usize)> = a.concat();
        pairs.sort();
        pairs.dedup();
        assert_eq!(pairs.len(), 30 * 4);
    }

    #[test]
    fn request_lines_parse_as_serve_requests() {
        let peaks = vec![10.0; 10];
        let (lines, _) = stream_plan(&paths(), &peaks, 1, 100.0, 1.0);
        for line in batch_lines(&paths(), 1).iter().chain(&lines) {
            treesched_serve::RequestRecord::parse(line).expect("valid request line");
        }
    }

    #[test]
    fn matrix_market_rendering_round_trips_the_pattern() {
        let p = generate::grid2d(5, 4, generate::Stencil::Star);
        let back = treesched_trees::parse_pattern(&to_matrix_market(&p)).unwrap();
        assert_eq!(back.n(), p.n());
        for i in 0..p.n() {
            assert_eq!(back.neighbors(i), p.neighbors(i));
        }
    }
}
