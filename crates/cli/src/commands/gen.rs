//! `gen` — the tree generators, to stdout or a file.
//!
//! Every parameter is checked against its generator's minimum before the
//! generator runs, so a too-small size is a usage error naming the
//! parameter, never a generator panic.

use super::{parse_num, write_file};
use crate::args::parse_common;
use crate::CliError;
use treesched_gen as g;
use treesched_model::{io as tree_io, TaskTree};

const GEN_USAGE: &str = "treesched gen — tree generators

  gen fork P K                 fork with P*K unit leaves (paper Fig. 3)
  gen chain N                  pebble chain of N tasks
  gen complete ARITY DEPTH     complete tree, pebble weights
  gen random N SEED            random attachment tree, mixed weights
  gen deep N SEED              depth-biased random tree, mixed weights
  gen caterpillar SPINE LEGS   caterpillar, pebble weights
  gen spider LEGS LEN          spider, pebble weights
  gen inapprox N DELTA         inapproximability tree (paper Fig. 2)
  gen gadget P K               ParInnerFirst gadget (paper Fig. 4)
  gen longchain C LEN          long-chain tree (paper Fig. 5)
  gen assembly KIND SIZE AMALG assembly tree: KIND = grid2d|grid3d|rand|band

append `-o FILE` to write the tree file (default: stdout).";

/// Each generator's parameters with their minimums, checked before the
/// generator runs (`assembly`'s pattern KIND is not a number; a random
/// pattern needs two rows).
const PARAMS: &[(&str, &[(&str, usize)])] = &[
    ("fork", &[("P", 0), ("K", 0)]),
    ("chain", &[("N", 1)]),
    ("complete", &[("ARITY", 1), ("DEPTH", 0)]),
    ("random", &[("N", 1), ("SEED", 0)]),
    ("deep", &[("N", 1), ("SEED", 0)]),
    ("caterpillar", &[("SPINE", 1), ("LEGS", 0)]),
    ("spider", &[("LEGS", 1), ("LEN", 1)]),
    ("inapprox", &[("N", 1), ("DELTA", 2)]),
    ("gadget", &[("P", 2), ("K", 2)]),
    ("longchain", &[("C", 1), ("LEN", 1)]),
    ("assembly", &[("KIND", 0), ("SIZE", 1), ("AMALG", 1)]),
];

pub(crate) fn execute(args: &[String]) -> Result<String, CliError> {
    // a leading flag other than -o is read as a generator name, so
    // `gen --help` lists the generators after naming itself unknown
    if let Some(first) = args.first().filter(|a| a.starts_with('-') && *a != "-o") {
        return Err(unknown_generator(first));
    }
    let common = parse_common(args, "-o", "", GEN_USAGE)?;
    let Some((kind, params)) = common.positional.split_first() else {
        return Err(CliError::new(GEN_USAGE));
    };
    let Some(&(_, spec)) = PARAMS.iter().find(|(k, _)| k == kind) else {
        return Err(unknown_generator(kind));
    };
    if params.len() != spec.len() {
        return Err(CliError::new(format!(
            "gen {kind} needs {} parameter(s)\n\n{GEN_USAGE}",
            spec.len()
        )));
    }
    let mut n = [0usize; 3];
    for (k, &(what, min)) in spec.iter().enumerate().filter(|(_, p)| p.0 != "KIND") {
        let min = if what == "SIZE" && params[0] == "rand" {
            2
        } else {
            min
        };
        n[k] = parse_num(&params[k], what)?;
        if n[k] < min {
            return Err(CliError::new(format!(
                "gen {kind} needs {what} >= {min} (got {})",
                n[k]
            )));
        }
    }
    let tree = match kind.as_str() {
        "fork" => g::fork_tree(n[0], n[1]),
        "chain" => TaskTree::chain(n[0], 1.0, 1.0, 0.0),
        "complete" => TaskTree::complete(n[0], n[1], 1.0, 1.0, 0.0),
        "random" => g::random_attachment(n[0], g::WeightRange::MIXED, n[1] as u64),
        "deep" => g::random_deep(n[0], 3, g::WeightRange::MIXED, n[1] as u64),
        "caterpillar" => g::caterpillar(n[0], n[1]),
        "spider" => g::spider(n[0], n[1]),
        "inapprox" => g::inapprox_tree(n[0], n[1]),
        "gadget" => g::inner_first_gadget(n[0], n[1]),
        "longchain" => g::long_chain_tree(n[0], n[1]),
        _ => {
            let amalg = u32::try_from(n[2])
                .map_err(|_| CliError::new(format!("cannot parse AMALG from `{}`", params[2])))?;
            gen_assembly(&params[0], n[1], amalg)?
        }
    };
    let text = tree_io::to_text(&tree);
    match common.value("-o") {
        Some(path) => {
            write_file(path, &text)?;
            Ok(format!("wrote {} tasks to {path}\n", tree.len()))
        }
        None => Ok(text),
    }
}

fn unknown_generator(kind: &str) -> CliError {
    CliError::new(format!("unknown generator `{kind}`\n\n{GEN_USAGE}"))
}

fn gen_assembly(kind: &str, size: usize, amalg: u32) -> Result<TaskTree, CliError> {
    use treesched_sparse::{assembly, generate, ordering};
    let (pattern, ord) = match kind {
        "grid2d" => {
            let p = generate::grid2d(size, size, generate::Stencil::Star);
            let o = ordering::nested_dissection_2d(size, size);
            (p, o)
        }
        "grid3d" => {
            let p = generate::grid3d(size, size, size, generate::Stencil::Star);
            let o = ordering::nested_dissection_3d(size, size, size);
            (p, o)
        }
        "rand" => {
            let p = generate::random_symmetric(size, 3.0, 42);
            let o = ordering::min_degree(&p);
            (p, o)
        }
        "band" => {
            let p = generate::band(size, 8.min(size.saturating_sub(1)).max(1));
            let o = ordering::min_degree(&p);
            (p, o)
        }
        other => return Err(CliError::new(format!("unknown assembly kind `{other}`"))),
    };
    assembly::assembly_tree_ordered(&pattern, &ord, amalg)
        .map_err(|e| CliError::new(format!("cannot build assembly tree: {e}")))
}
