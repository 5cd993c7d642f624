//! The two platform parsers against their renderers: the flag syntax
//! (`Platform::parse_flags` / `Platform::flag_strings`, read by the CLI
//! and campaign specs) and the wire object (`platform_from_value` /
//! `platform_json`, read by the serving protocol).
//!
//! Random valid platforms must round-trip through both, and through a
//! request line, to an equal `Platform`; an all-zero transfer-cost matrix
//! counts as no matrix, because neither renderer writes one. Arbitrary flag
//! strings and platform objects — renderings of valid platforms with a few
//! characters edited, and plain garbage — must never panic: they parse to
//! a typed error or to a platform that `validate` accepts or rejects with
//! a typed `SchedError`, and whatever validates round-trips too. Cases
//! derive from `PROPTEST_SEED`; `PROPTEST_CASES` raises the count.

use proptest::prelude::*;
use treesched_core::{Platform, ProcClass};
use treesched_serve::jsonl::parse_object;
use treesched_serve::{platform_from_value, platform_json, RequestRecord};

/// `platform` with an all-zero transfer-cost matrix dropped.
fn canonical(platform: &Platform) -> Platform {
    if platform.has_comm() {
        platform.clone()
    } else {
        platform.clone().with_comm(Vec::new())
    }
}

fn from_flags(platform: &Platform) -> Platform {
    let (speeds, domains, comm) = platform.flag_strings();
    Platform::parse_flags(&speeds, domains.as_deref(), comm.as_deref())
        .unwrap_or_else(|e| panic!("{speeds} {domains:?} {comm:?}: {e}"))
}

/// Parses `object` as the value of a request's `platform` key.
fn from_wire(object: &str) -> Option<Result<Platform, String>> {
    let pairs = parse_object(&format!("{{\"platform\":{object}}}")).ok()?;
    Some(platform_from_value(&pairs[0].1))
}

/// A valid platform: 1–4 classes of 1–64 processors at rational speeds,
/// each class in one of up to four domains or in none, and, when asked,
/// a symmetric cost matrix over the domains (possibly all zero).
fn arb_platform() -> impl Strategy<Value = Platform> {
    (1usize..5)
        .prop_flat_map(|classes| {
            (
                proptest::collection::vec((1u32..=64, 1u32..=1000, 1u32..=7, 0usize..=4), classes),
                proptest::collection::vec(0u32..=1_000_000, 4),
                proptest::collection::vec(0u32..=6, 6),
                0u32..3,
            )
        })
        .prop_map(|(classes, caps, costs, with_comm)| {
            let mut platform = Platform::heterogeneous(
                classes
                    .iter()
                    .map(|&(count, num, den, _)| {
                        ProcClass::new(count, f64::from(num) / f64::from(den))
                    })
                    .collect(),
            );
            for (slot, &cap) in caps.iter().enumerate() {
                let members: Vec<usize> = (0..classes.len())
                    .filter(|&k| classes[k].3 == slot)
                    .collect();
                if !members.is_empty() {
                    platform = platform.with_domain(f64::from(cap) / 4.0, &members);
                }
            }
            let d = platform.domains().len();
            if with_comm > 0 && d > 0 {
                let mut matrix = vec![0.0; d * d];
                let mut pair = 0;
                for src in 0..d {
                    for dst in src + 1..d {
                        let cost = f64::from(costs[pair]) / 2.0;
                        matrix[src * d + dst] = cost;
                        matrix[dst * d + src] = cost;
                        pair += 1;
                    }
                }
                platform = platform.with_comm(matrix);
            }
            platform
        })
}

/// Characters the edits insert: the flag syntax's separators and digits,
/// JSON punctuation, and a multibyte character.
#[rustfmt::skip]
const POOL: &[char] = &[
    '0', '1', '9', '-', '+', '.', 'e', 'x', ',', '@', ':', '"', '[', ']', '{', '}', ' ', 'é',
];

/// One to three single-character edits: (delete | replace | insert,
/// position, pool character), positions taken modulo the text length.
fn arb_edits() -> impl Strategy<Value = Vec<(u32, usize, usize)>> {
    proptest::collection::vec((0u32..3, 0usize..1000, 0usize..POOL.len()), 1..4)
}

fn edit(text: &str, edits: &[(u32, usize, usize)]) -> String {
    let mut chars: Vec<char> = text.chars().collect();
    for &(op, at, c) in edits {
        let at = at % (chars.len() + 1);
        match op {
            0 if at < chars.len() => drop(chars.remove(at)),
            1 if at < chars.len() => chars[at] = POOL[c],
            _ => chars.insert(at, POOL[c]),
        }
    }
    chars.into_iter().collect()
}

/// What any parsed platform must survive: the accessors and renderers
/// never panic, and a platform that validates round-trips.
fn check_parsed(platform: &Platform) -> Result<(), TestCaseError> {
    let _ = platform.processors();
    let rendered = platform_json(platform);
    if platform.validate().is_ok() {
        prop_assert_eq!(canonical(&from_flags(platform)), canonical(platform));
        let parsed = from_wire(&rendered).expect("rendered object is JSON");
        prop_assert_eq!(parsed.map(|p| canonical(&p)), Ok(canonical(platform)));
    } else {
        let _ = platform.flag_strings();
    }
    Ok(())
}

/// Parses a flag triple: a platform passes [`check_parsed`], an error
/// names an entry that exists in the flag it blames.
fn check_flags(
    speeds: &str,
    domains: Option<&str>,
    comm: Option<&str>,
) -> Result<(), TestCaseError> {
    match Platform::parse_flags(speeds, domains, comm) {
        Ok(platform) => check_parsed(&platform),
        Err(e) => {
            let text = match e.flag().flag() {
                "--speeds" => Some(speeds),
                "--domains" => domains,
                _ => comm,
            };
            let entries = text.map_or(0, |t| t.split(',').count());
            prop_assert!(
                e.entry() < entries,
                "{}: entry {} of {:?}",
                e,
                e.entry(),
                text
            );
            Ok(())
        }
    }
}

proptest! {
    #[test]
    fn valid_platforms_round_trip_through_flags_and_wire(platform in arb_platform()) {
        prop_assert!(platform.validate().is_ok(), "{:?}", platform);
        let expected = canonical(&platform);
        prop_assert_eq!(canonical(&from_flags(&platform)), expected.clone());
        let wire = from_wire(&platform_json(&platform)).expect("rendered object is JSON");
        prop_assert_eq!(wire.map(|p| canonical(&p)), Ok(expected.clone()));
        // a request line renders flat platforms as `processors`/`cap`
        let record = RequestRecord {
            id: None,
            tree: "t.tree".into(),
            scheduler: None,
            platform: Some(platform),
            seq: None,
            seed: None,
        };
        let parsed = RequestRecord::parse(&record.to_json()).expect("rendered line parses");
        prop_assert_eq!(parsed.platform.map(|p| canonical(&p)), Some(expected));
    }

    #[test]
    fn edited_flag_strings_parse_or_fail_typed(
        platform in arb_platform(),
        edits in arb_edits(),
        which in 0usize..3
    ) {
        let (speeds, domains, comm) = platform.flag_strings();
        let mut flags = [Some(speeds), domains, comm];
        flags[which] = Some(edit(flags[which].as_deref().unwrap_or(""), &edits));
        let [speeds, domains, comm] = flags;
        check_flags(&speeds.unwrap_or_default(), domains.as_deref(), comm.as_deref())?;
    }

    #[test]
    fn garbage_flag_strings_parse_or_fail_typed(speeds in "\\PC*", domains in "\\PC*", comm in "\\PC*") {
        check_flags(&speeds, None, None)?;
        check_flags(&speeds, Some(&domains), None)?;
        check_flags(&speeds, Some(&domains), Some(&comm))?;
    }

    #[test]
    fn edited_platform_objects_parse_or_fail_typed(platform in arb_platform(), edits in arb_edits()) {
        let object = edit(&platform_json(&platform), &edits);
        match from_wire(&object) {
            None => {} // not JSON: the line parser's error, not the platform's
            Some(Ok(platform)) => check_parsed(&platform)?,
            Some(Err(e)) => prop_assert!(!e.is_empty(), "{}", object),
        }
    }
}
