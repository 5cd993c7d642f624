//! Bit-exact pins of every schedule the standard registry produces.
//!
//! For each platform case and each registry entry, every placement of every
//! tree — processor, start bits, finish bits — is folded into one hash, and
//! typed refusals fold in their message instead. The expected hashes are
//! constants, so any change to a scheduler's decisions, down to the last
//! bit of one start time or the index of one processor, fails this test.
//! Refactors of the scheduling code must keep it passing unchanged.
//!
//! On a mismatch the panic message prints the whole table of actual
//! hashes in the layout of [`EXPECTED`].

use treesched::core::api::{Platform, ProcClass, Request, SchedulerRegistry, Scratch};
use treesched::core::{memory_reference, SeqAlgo};
use treesched::gen::{assembly_corpus, caterpillar, random_attachment, spider, Scale, WeightRange};
use treesched::model::TaskTree;

/// The trees: the whole small assembly corpus plus a few synthetic shapes.
fn trees() -> Vec<TaskTree> {
    let mut trees: Vec<TaskTree> = assembly_corpus(Scale::Small)
        .into_iter()
        .map(|e| e.tree)
        .collect();
    trees.extend([
        TaskTree::fork(13, 1.0, 1.0, 0.0),
        TaskTree::chain(21, 2.0, 1.0, 0.5),
        TaskTree::complete(3, 4, 1.0, 2.0, 0.5),
        spider(6, 5),
        caterpillar(12, 3),
        random_attachment(200, WeightRange::MIXED, 7),
    ]);
    trees
}

/// One platform case: a name and the request it builds for a tree whose
/// sequential memory reference is `cap`.
type Case = (&'static str, fn(&TaskTree, f64) -> Request<'_>);

fn flat(p: u32, cap: f64) -> Platform {
    Platform::new(p).with_memory_cap(cap)
}

fn mixed_two_domains(cap: f64) -> Platform {
    Platform::heterogeneous(vec![ProcClass::new(2, 3.0), ProcClass::new(2, 1.0)])
        .with_domain(cap, &[0])
        .with_domain(cap, &[1])
}

const CASES: [Case; 15] = [
    ("flat-1", |t, cap| Request::new(t, flat(1, cap))),
    ("flat-2", |t, cap| Request::new(t, flat(2, cap))),
    ("flat-3", |t, cap| Request::new(t, flat(3, cap))),
    ("flat-5", |t, cap| Request::new(t, flat(5, cap))),
    ("flat-8", |t, cap| Request::new(t, flat(8, cap))),
    ("flat-4-uncapped", |t, _| Request::new(t, Platform::new(4))),
    ("flat-3-liu", |t, cap| {
        Request::new(t, flat(3, cap)).with_seq(SeqAlgo::LiuExact)
    }),
    ("flat-3-naive-seed7", |t, cap| {
        Request::new(t, flat(3, cap))
            .with_seq(SeqAlgo::NaivePostorder)
            .with_seed(7)
    }),
    ("equal-2.0", |t, cap| {
        let platform = Platform::heterogeneous(vec![ProcClass::new(4, 2.0)]);
        Request::new(t, platform.with_memory_cap(cap))
    }),
    ("equal-3.0", |t, cap| {
        let platform =
            Platform::heterogeneous(vec![ProcClass::new(2, 3.0), ProcClass::new(3, 3.0)]);
        Request::new(t, platform.with_memory_cap(cap))
    }),
    ("mixed", |t, cap| {
        let platform =
            Platform::heterogeneous(vec![ProcClass::new(2, 2.0), ProcClass::new(3, 1.0)]);
        Request::new(t, platform.with_memory_cap(cap))
    }),
    ("mixed-unsorted", |t, _| {
        let platform = Platform::heterogeneous(vec![
            ProcClass::new(1, 1.0),
            ProcClass::new(2, 2.5),
            ProcClass::new(2, 1.5),
        ]);
        Request::new(t, platform)
    }),
    ("mixed-2-domains", |t, cap| {
        Request::new(t, mixed_two_domains(cap))
    }),
    ("comm-unit", |t, cap| {
        let platform =
            Platform::heterogeneous(vec![ProcClass::new(2, 1.0), ProcClass::new(2, 1.0)])
                .with_domain(cap, &[0])
                .with_domain(cap, &[1])
                .with_comm(vec![0.0, 0.5, 0.5, 0.0]);
        Request::new(t, platform)
    }),
    ("comm-mixed", |t, cap| {
        Request::new(
            t,
            mixed_two_domains(cap).with_comm(vec![0.0, 1.5, 1.5, 0.0]),
        )
    }),
];

/// Registry entries in registration order, as the columns of [`EXPECTED`].
const ENTRIES: [&str; 9] = [
    "ParSubtrees",
    "ParSubtreesOptim",
    "ParInnerFirst",
    "ParDeepestFirst",
    "CpList",
    "FifoList",
    "RandomList",
    "MemBoundedSeq",
    "MemBoundedGreedy",
];

/// Recorded hashes, one row per [`CASES`] entry, one column per
/// [`ENTRIES`] entry.
const EXPECTED: &[(&str, [u64; 9])] = &[
    (
        "flat-1",
        [
            0x18e9543b27389c6d,
            0x8a3369df42b7ee2f,
            0x34b7f7123952a604,
            0xdf3ed44be4845f87,
            0x3d75a4fa10e25e9c,
            0x3c113a6861a044f3,
            0xbd59b8ad2e075439,
            0x34b7f7123952a604,
            0x34b7f7123952a604,
        ],
    ),
    (
        "flat-2",
        [
            0x0c1d6695fc40263a,
            0x2f0ab1ec4ff08676,
            0xcfd6a0ba56d75f58,
            0x662d3c3b6d5cf602,
            0x6dd50a965748995c,
            0xfffbd2db49310cb2,
            0x8354a17be10f6cee,
            0xde28231583405fad,
            0x690413637b5c9397,
        ],
    ),
    (
        "flat-3",
        [
            0xaaf2fd2a53baf858,
            0x1b4795cc8410167b,
            0xe59e95437eb83c24,
            0xfed83c82ddf0d34a,
            0x35a241a0ce66a143,
            0xef46b47b4992e31a,
            0x1291c2a2a1885695,
            0xc4f77ddfae80fb9a,
            0x61e31df5215a38e7,
        ],
    ),
    (
        "flat-5",
        [
            0x8b4f3cd6c91774ee,
            0x709462a690646c51,
            0x5790b6de0ea8bad7,
            0x69d9a5f4b3205323,
            0xf3596b5ad1840929,
            0xe88028e65a2d45ce,
            0x0a0d4713a824f444,
            0xa7ee4cdad65fcd97,
            0xacb28e78daba89b8,
        ],
    ),
    (
        "flat-8",
        [
            0xee61d56ec60d6f5a,
            0xdbc7d39cf1c04b12,
            0x0438dcf0144e04f8,
            0xfd66f8ce32900047,
            0x9bd12bd36e2b2de9,
            0xd5fce15a4d333069,
            0x4d43f2cec895ac56,
            0x3309d04a06e970a9,
            0x284353ab84260747,
        ],
    ),
    (
        "flat-4-uncapped",
        [
            0x8139eea3b0fb2e43,
            0xdf0305f5dd341640,
            0x02d98938031e9f48,
            0x1c568318da8aac91,
            0x9b4226bf0775b1a1,
            0x444b5802ae92c50c,
            0x708e8426bbd594ad,
            0xa687b0eac10b872f,
            0xb3f0b7d2f7f7ab7a,
        ],
    ),
    (
        "flat-3-liu",
        [
            0x9d73a12a743dc598,
            0x8b6e080ab818e5c2,
            0xd352531a9a4e6542,
            0xf885b47f713f3e8c,
            0x35a241a0ce66a143,
            0xef46b47b4992e31a,
            0x1291c2a2a1885695,
            0x0aee62578e6c1006,
            0xa8a2858a574481c8,
        ],
    ),
    (
        "flat-3-naive-seed7",
        [
            0x4c00777df9f936c0,
            0x4e677d35d2591360,
            0x0b69dc725461439d,
            0xc357e7c7e9417ed7,
            0x35a241a0ce66a143,
            0xef46b47b4992e31a,
            0x1342db8e7b1992e0,
            0x2e7433c7465a3c17,
            0x301d2fb2064405a9,
        ],
    ),
    (
        "equal-2.0",
        [
            0x8aa98e35bd6427d3,
            0xc19c6c83f04cab64,
            0xa44434d7ffce6809,
            0x0b62629c28c9353c,
            0x3c5c3ca67bc2e66c,
            0x3647ee55a280c32c,
            0xb02da31604ca1347,
            0x52e06d1ba5b2a93d,
            0xdb06b8832fec04ed,
        ],
    ),
    (
        "equal-3.0",
        [
            0x7ed7a4eaf4d53a29,
            0xedd9631f1dc56dd5,
            0xfa70a49fbec255a7,
            0xd0835ca9d16871a5,
            0x4bff25fef16ec055,
            0x37dc1c8fc5a01046,
            0x6ad508b381d572e9,
            0x7c04607b0a2799ad,
            0x173935e527237ec0,
        ],
    ),
    (
        "mixed",
        [
            0xc59ecb3313a0d5cb,
            0xd49f3149096adf36,
            0x5336f62fc228769f,
            0x1aec4689ef11aae4,
            0x5f0be2a16393ba5d,
            0x9ed822a98b42c779,
            0x881451d85ac97435,
            0x149fbee926155a69,
            0x41e1d5f859572f7d,
        ],
    ),
    (
        "mixed-unsorted",
        [
            0xd5a3e6484cdf720c,
            0xf608bc11d93424fb,
            0x5edba24876297d71,
            0x684ab33c3aa2d218,
            0x54dd1fb787a55392,
            0x5f83925430a97e24,
            0xab947cc936b29d98,
            0xa687b0eac10b872f,
            0xb3f0b7d2f7f7ab7a,
        ],
    ),
    (
        "mixed-2-domains",
        [
            0x4dab8579c4213104,
            0x653a2387074bec53,
            0x7b043bf2834abd64,
            0xf0f277a0780a56fa,
            0x308d6a29d3eb696f,
            0xaad0463f0db12f18,
            0x552a7fb54cf3d489,
            0xb889cf723f642849,
            0x6e0c2009c09d44cc,
        ],
    ),
    (
        "comm-unit",
        [
            0x733b9fcd66dd2334,
            0x3bcfe35dfac0eb74,
            0xc8cbcaa007f79135,
            0x1f3fc0cc2ac0bc9a,
            0x87c61014876845bf,
            0xb91845bdf2ae3df1,
            0x77021e0561ae5e08,
            0x1b078df455e032a9,
            0x68c78533577a4b79,
        ],
    ),
    (
        "comm-mixed",
        [
            0x733b9fcd66dd2334,
            0x3bcfe35dfac0eb74,
            0x3cf7483a667a2d31,
            0xbf73e7f0b9d59982,
            0x0c65ee852aebfcce,
            0x059e2930ea0f1a66,
            0x8e021795fb647a6c,
            0x1b078df455e032a9,
            0x68c78533577a4b79,
        ],
    ),
];

fn mix(h: u64, v: u64) -> u64 {
    let mut z = h ^ v.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn actual_table() -> Vec<(&'static str, [u64; 9])> {
    let registry = SchedulerRegistry::standard();
    assert_eq!(registry.names(), ENTRIES, "columns follow the registry");
    let trees = trees();
    let mut scratch = Scratch::new();
    CASES
        .iter()
        .map(|&(case, request)| {
            let mut row = [0u64; 9];
            for (cell, entry) in row.iter_mut().zip(registry.iter()) {
                let mut h = 0u64;
                for tree in &trees {
                    let req = request(tree, memory_reference(tree));
                    match entry.scheduler().schedule(&req, &mut scratch) {
                        Ok(out) => {
                            for pl in &out.schedule.placements {
                                h = mix(h, pl.proc as u64);
                                h = mix(h, pl.start.to_bits());
                                h = mix(h, pl.finish.to_bits());
                            }
                        }
                        Err(e) => {
                            for b in e.to_string().bytes() {
                                h = mix(h, b as u64);
                            }
                        }
                    }
                }
                *cell = h;
            }
            (case, row)
        })
        .collect()
}

#[test]
fn every_registry_schedule_matches_its_recorded_pin() {
    let actual = actual_table();
    if actual != EXPECTED {
        let mut table = String::new();
        for (case, row) in &actual {
            table.push_str(&format!("    (\n        {case:?},\n        [\n"));
            for h in row {
                table.push_str(&format!("            0x{h:016x},\n"));
            }
            table.push_str("        ],\n    ),\n");
        }
        panic!("schedule pins changed; actual table:\n{table}");
    }
}
