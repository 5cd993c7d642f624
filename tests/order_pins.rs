//! Bit-exact pins of the minimum-degree orders behind the assembly corpus.
//!
//! Every corpus matrix is ordered by `ordering::min_degree` and the order is
//! folded into one hash; the `md`, `nd`, `rcm` and `nat` corpus trees of the
//! same matrix fold their `tree_fingerprint`s into a second hash. Both are
//! constants, so any change to a single pivot of the ordering — and so to
//! any corpus tree, campaign golden or schedule pin built on it — fails
//! here first. Rewrites of the ordering must keep these pins unchanged.
//!
//! The Large scale is `#[ignore]`d for time; run it with
//! `cargo test --release --test order_pins -- --ignored --nocapture`,
//! which also prints the Large corpus build time.
//!
//! On a mismatch the panic message prints the whole table of actual
//! hashes in the layout of the expected constants.

use std::time::Instant;
use treesched::core::api::tree_fingerprint;
use treesched::gen::{assembly_corpus, Scale};
use treesched::sparse::generate::{self, Stencil};
use treesched::sparse::{ordering, SparsePattern};

/// FNV-1a over the little-endian bytes of each `u64`.
fn fold(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in values {
        for b in v.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn order_hash(p: &SparsePattern) -> u64 {
    let o = ordering::min_degree(p);
    assert!(o.is_permutation_of(p.n()));
    fold(o.order.iter().map(|&v| v as u64))
}

/// The corpus matrices, in the order and with the names `assembly_corpus`
/// gives them (checked against the corpus itself below).
fn matrices(scale: Scale) -> Vec<(String, SparsePattern)> {
    fn grid2d(nx: usize, ny: usize, s: Stencil) -> (String, SparsePattern) {
        let tag = if s == Stencil::Star {
            "grid2d"
        } else {
            "grid2d9p"
        };
        (format!("{tag}-{nx}x{ny}"), generate::grid2d(nx, ny, s))
    }
    fn grid3d(nx: usize, ny: usize, nz: usize) -> (String, SparsePattern) {
        let p = generate::grid3d(nx, ny, nz, Stencil::Star);
        (format!("grid3d-{nx}x{ny}x{nz}"), p)
    }
    fn rand(n: usize, deg: f64, seed: u64) -> (String, SparsePattern) {
        let p = generate::random_symmetric(n, deg, seed);
        (format!("rand-{n}-d{deg}"), p)
    }
    fn band(n: usize, bw: usize) -> (String, SparsePattern) {
        (format!("band-{n}-bw{bw}"), generate::band(n, bw))
    }
    fn arrow(n: usize, hubs: usize) -> (String, SparsePattern) {
        (format!("arrow-{n}-h{hubs}"), generate::arrow(n, hubs))
    }
    use Stencil::{Box as BoxS, Star};
    match scale {
        Scale::Small => vec![
            grid2d(8, 8, Star),
            grid3d(4, 4, 4),
            rand(120, 3.0, 11),
            band(100, 4),
            arrow(150, 1),
        ],
        Scale::Medium => vec![
            grid2d(40, 40, Star),
            grid2d(60, 30, Star),
            grid2d(30, 30, BoxS),
            grid3d(10, 10, 10),
            grid3d(14, 8, 8),
            rand(3000, 3.0, 1),
            rand(2000, 5.0, 2),
            rand(4000, 2.5, 3),
            band(3000, 8),
            band(2000, 20),
            arrow(2000, 1),
            arrow(1500, 3),
        ],
        Scale::Large => vec![
            grid2d(80, 80, Star),
            grid2d(120, 60, Star),
            grid2d(100, 100, Star),
            grid2d(60, 60, BoxS),
            grid2d(50, 40, BoxS),
            grid3d(16, 16, 16),
            grid3d(20, 12, 12),
            grid3d(24, 10, 8),
            rand(10000, 3.0, 1),
            rand(8000, 4.0, 2),
            rand(6000, 6.0, 3),
            rand(15000, 2.5, 4),
            band(10000, 8),
            band(6000, 25),
            band(4000, 50),
            arrow(8000, 1),
            arrow(5000, 4),
            arrow(3000, 16),
        ],
    }
}

/// `(matrix, order hash, corpus-tree hash)` for every matrix at `scale`.
fn actual(scale: Scale) -> Vec<(String, u64, u64)> {
    let started = Instant::now();
    let corpus = assembly_corpus(scale);
    eprintln!(
        "{scale:?} corpus: {} trees built in {:.2} s",
        corpus.len(),
        started.elapsed().as_secs_f64()
    );
    let mats = matrices(scale);
    let mut names: Vec<&str> = corpus
        .iter()
        .map(|e| e.name.split('/').next().unwrap())
        .collect();
    names.dedup();
    let expected_names: Vec<&str> = mats.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, expected_names, "the pinned matrix list drifted");
    mats.iter()
        .map(|(name, p)| {
            let prefix = format!("{name}/");
            let trees = fold(
                corpus
                    .iter()
                    .filter(|e| e.name.starts_with(&prefix))
                    .map(|e| tree_fingerprint(&e.tree)),
            );
            (name.clone(), order_hash(p), trees)
        })
        .collect()
}

fn check(actual: &[(String, u64, u64)], expected: &[(&str, u64, u64)]) {
    let same = actual.len() == expected.len()
        && actual
            .iter()
            .zip(expected)
            .all(|(a, e)| a.0 == e.0 && a.1 == e.1 && a.2 == e.2);
    if !same {
        let mut table = String::new();
        for (name, order, trees) in actual {
            table.push_str(&format!(
                "    (\"{name}\", {order:#018x}, {trees:#018x}),\n"
            ));
        }
        panic!("minimum-degree pins changed; actual table:\n{table}");
    }
}

const SMALL: &[(&str, u64, u64)] = &[
    ("grid2d-8x8", 0xac6b3d746f4c0965, 0xcf87905a8a9b766d),
    ("grid3d-4x4x4", 0xc2c4e77c7e6d0925, 0x1351175c0432a1c2),
    ("rand-120-d3", 0x1beb584ad78bc025, 0x63c03c5e6dd76f5c),
    ("band-100-bw4", 0x610b068d99808fe5, 0xf858c19577619325),
    ("arrow-150-h1", 0x5ffc829afee5e344, 0xb7a6cd17832db305),
];

const MEDIUM: &[(&str, u64, u64)] = &[
    ("grid2d-40x40", 0x301367953ba00555, 0xc52fdad786d9f8b8),
    ("grid2d-60x30", 0xfce7fb5edf6ae591, 0xed81069866398b21),
    ("grid2d9p-30x30", 0xf333dc05274f9dd1, 0x2e9e8cff0160da50),
    ("grid3d-10x10x10", 0x09826550368c61e9, 0x9453283da50b1315),
    ("grid3d-14x8x8", 0xbfc504948c9120ed, 0xc74acfa499f28e49),
    ("rand-3000-d3", 0x0c0014a9fda69a09, 0xd970c49373435c2a),
    ("rand-2000-d5", 0x6e61910dcede8739, 0xcfb8c8044955ef9a),
    ("rand-4000-d2.5", 0x0d0aa814f1563565, 0xc01588aa163445bf),
    ("band-3000-bw8", 0x167d4741a77083f5, 0x4e795b4a2121532d),
    ("band-2000-bw20", 0x8f09755907cc5a05, 0x7fc24261ee8075c5),
    ("arrow-2000-h1", 0x8f09755907cc5a05, 0x5c4f81367ce60a65),
    ("arrow-1500-h3", 0x31f46db691a95111, 0x397cef6346cd79d5),
];

const LARGE: &[(&str, u64, u64)] = &[
    ("grid2d-80x80", 0xb1a24dde00804ce1, 0xba9965f0e191460a),
    ("grid2d-120x60", 0xd9aa0724bb411609, 0x9d470a6e9b6c5999),
    ("grid2d-100x100", 0xe36104003e23897d, 0xff166dca959406d9),
    ("grid2d9p-60x60", 0x1cc42e71083eaaa9, 0x9f6d58a81b6818da),
    ("grid2d9p-50x40", 0x523ad8d813488401, 0x7d159ef85dc14c9d),
    ("grid3d-16x16x16", 0x6dc543bf04e6dc29, 0xa42db32f74ee8b05),
    ("grid3d-20x12x12", 0x984ef5822a26548d, 0x80c17cdf99fff530),
    ("grid3d-24x10x8", 0x79e2809ecdd31075, 0xcc753e7d3b5380ad),
    ("rand-10000-d3", 0x3fc84f9df2448bc1, 0x646a2f4dedda19b5),
    ("rand-8000-d4", 0xe2a377b98ae274e9, 0xc8aa709857a6dcc8),
    ("rand-6000-d6", 0x76cd2b3c1ec8ea15, 0x2fd7f8f847ba7109),
    ("rand-15000-d2.5", 0xad52512337606b21, 0xd877007044ef3573),
    ("band-10000-bw8", 0x6b2550cdd2d22645, 0xe764a4e3546942dd),
    ("band-6000-bw25", 0x359419c09d0051c5, 0xada1a8526cc17765),
    ("band-4000-bw50", 0xa8c2b09146be03a5, 0x51f69a5298a487a9),
    ("arrow-8000-h1", 0x216fdbcbdb9d54a5, 0xe43adc3a649b5ed5),
    ("arrow-5000-h4", 0xe6f7be3b885ab295, 0x526c5b2c210cbb51),
    ("arrow-3000-h16", 0x167d4741a77083f5, 0xd4b85796af8a3475),
];

/// The MatrixMarket fixtures of the `trees` crate, by order hash.
const FIXTURES: &[(&str, u64)] = &[
    ("star9.mtx", 0xf76a6b53bdd736cd),
    ("band8.mtx", 0xb0099f969b546f25),
];

#[test]
fn small_corpus_orders_and_trees_are_pinned() {
    check(&actual(Scale::Small), SMALL);
}

#[test]
fn medium_corpus_orders_and_trees_are_pinned() {
    check(&actual(Scale::Medium), MEDIUM);
}

#[test]
#[ignore = "the Large corpus takes tens of seconds; run with --release -- --ignored"]
fn large_corpus_orders_and_trees_are_pinned() {
    check(&actual(Scale::Large), LARGE);
}

#[test]
fn trees_fixture_orders_are_pinned() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/trees/tests/data");
    let actual: Vec<(&str, u64)> = ["star9.mtx", "band8.mtx"]
        .into_iter()
        .map(|file| {
            let text = std::fs::read_to_string(format!("{dir}/{file}")).unwrap();
            let p = treesched::trees::parse_pattern(&text).unwrap();
            (file, order_hash(&p))
        })
        .collect();
    assert_eq!(actual, FIXTURES, "minimum-degree fixture pins changed");
}
