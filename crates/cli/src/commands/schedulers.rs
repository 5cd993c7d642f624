//! `schedulers` — the registry's names, aliases and descriptions.

use crate::args::parse_common;
use crate::CliError;
use std::fmt::Write as _;
use treesched_core::SchedulerRegistry;

const USAGE: &str = "usage: treesched schedulers";

pub(crate) fn execute(args: &[String]) -> Result<String, CliError> {
    if !parse_common(args, "", "", USAGE)?.positional.is_empty() {
        return Err(CliError::new(USAGE));
    }
    let registry = SchedulerRegistry::standard();
    let mut out = String::from("registered schedulers (* = paper campaign):\n");
    for e in registry.iter() {
        let mark = if e.in_campaign() { "*" } else { " " };
        let _ = writeln!(
            out,
            "{mark} {:<18} {:<28} {}",
            e.name(),
            e.aliases().join(", "),
            e.description()
        );
    }
    out.push_str("\nmemory-capped schedulers need `schedule --cap X`.\n");
    Ok(out)
}
