//! The one argument reader of every subcommand.
//!
//! A subcommand declares the value flags (one value each) and switches it
//! takes, each list one space-separated string; [`parse_common`] returns
//! its positional arguments and the declared flags it was given. Anything else starting with `-` is an
//! unknown-flag error citing the subcommand's usage. The flags several
//! subcommands share are checked here, once, when a subcommand declares
//! them: `--ordering`/`--amalg` (MatrixMarket ingest), `--workers`, and
//! the `--speeds`/`--domains`/`--comm` platform group
//! ([`CommonArgs::platform`]).

use crate::commands::parse_num;
use crate::CliError;
use treesched_core::Platform;
use treesched_serve::MAX_WORKERS;
use treesched_trees::{IngestOptions, OrderingKind};

/// Everything one subcommand's argument list held.
pub(crate) struct CommonArgs {
    /// Positional arguments, flag-free (`-` counts as positional).
    pub positional: Vec<String>,
    /// MatrixMarket ingest options (`--ordering`, `--amalg`).
    pub ingest: IngestOptions,
    /// `--workers N`, checked against [`MAX_WORKERS`].
    pub workers: Option<usize>,
    /// The declared flags given, in order of appearance, with their
    /// values (`None` for a switch).
    given: Vec<(&'static str, Option<String>)>,
}

impl CommonArgs {
    /// The last value given for a declared value flag.
    pub(crate) fn value(&self, flag: &str) -> Option<&str> {
        self.last_of(&[flag])
    }

    /// The last value given for any of `flags` (a flag and its synonyms).
    pub(crate) fn last_of(&self, flags: &[&str]) -> Option<&str> {
        self.given
            .iter()
            .rev()
            .find(|(f, v)| v.is_some() && flags.contains(f))
            .and_then(|(_, v)| v.as_deref())
    }

    /// The last value given for a declared value flag, parsed as a number
    /// that its error calls `what`.
    pub(crate) fn num<T: std::str::FromStr>(
        &self,
        flag: &str,
        what: &str,
    ) -> Result<Option<T>, CliError> {
        self.value(flag).map(|v| parse_num(v, what)).transpose()
    }

    /// Every value given for a declared value flag, in order.
    pub(crate) fn values<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> {
        self.given
            .iter()
            .filter(move |(f, _)| *f == flag)
            .filter_map(|(_, v)| v.as_deref())
    }

    /// Whether a declared switch was present.
    pub(crate) fn switch(&self, flag: &str) -> bool {
        self.given.iter().any(|(f, v)| *f == flag && v.is_none())
    }

    /// The names of the declared flags given, in order of appearance.
    pub(crate) fn flags(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.given.iter().map(|(f, _)| *f)
    }

    /// Builds the platform of a command from `-p`/`--cap` and the
    /// `--speeds`/`--domains`/`--comm` flags and validates it (typed
    /// platform errors map to exit 1). The flag syntax is parsed by
    /// [`Platform::parse_flags`], which campaign specs use for the same
    /// spellings; its typed [`treesched_core::PlatformParseError`]
    /// renders here as the usage message.
    pub(crate) fn platform(&self, p: Option<u32>, cap: Option<f64>) -> Result<Platform, CliError> {
        let domains = self.value("--domains");
        let comm = self.value("--comm");
        if cap.is_some() && domains.is_some() {
            return Err(CliError::new(
                "--cap and --domains cannot be combined (--cap is the single shared domain)",
            ));
        }
        let parse = |speeds: &str| {
            Platform::parse_flags(speeds, domains, comm).map_err(|e| CliError::new(e.to_string()))
        };
        let mut platform = match self.value("--speeds") {
            Some(s) => {
                let platform = parse(s)?;
                let total = platform.processors();
                if let Some(p) = p.filter(|&p| p != total) {
                    return Err(CliError::new(format!(
                        "-p {p} contradicts --speeds ({total} processors)"
                    )));
                }
                platform
            }
            None => {
                let p = p.ok_or_else(|| CliError::new("need -p N (or --speeds)"))?;
                if domains.is_some() || comm.is_some() {
                    // flat processors with explicit domains: same parser, one
                    // implicit unit-speed class (a comm matrix without domains
                    // is its typed out-of-range error)
                    parse(&format!("{p}x1"))?
                } else {
                    Platform::new(p)
                }
            }
        };
        if let Some(cap) = cap {
            platform = platform.with_memory_cap(cap);
        }
        platform.validate().map_err(CliError::sched)?;
        Ok(platform)
    }
}

/// Parses one subcommand's argument list: positionals, the declared
/// `value_flags` (each taking one value) and `switch_flags` (boolean),
/// both space-separated. Anything else starting with `-` is an
/// unknown-flag error citing `usage`. A declared `--help`/`-h` ends the
/// list: nothing after it is read.
pub(crate) fn parse_common(
    args: &[String],
    value_flags: &'static str,
    switch_flags: &'static str,
    usage: &str,
) -> Result<CommonArgs, CliError> {
    let mut common = CommonArgs {
        positional: Vec::new(),
        ingest: IngestOptions::default(),
        workers: None,
        given: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if let Some(flag) = value_flags.split_whitespace().find(|f| f == a) {
            let v = it
                .next()
                .ok_or_else(|| CliError::new(format!("{flag} needs a value")))?;
            match flag {
                "--ordering" => {
                    common.ingest.ordering = OrderingKind::parse(v).ok_or_else(|| {
                        CliError::new(format!(
                            "unknown ordering `{v}` (expected natural, amd or rcm)"
                        ))
                    })?;
                }
                "--amalg" => {
                    common.ingest.amalg = parse_num(v, "--amalg")?;
                    if common.ingest.amalg == 0 {
                        return Err(CliError::new("--amalg must be at least 1"));
                    }
                }
                "--workers" => {
                    let workers: usize = parse_num(v, "--workers")?;
                    if workers == 0 {
                        return Err(CliError::new("--workers needs at least 1"));
                    }
                    if workers > MAX_WORKERS {
                        return Err(CliError::new(format!(
                            "--workers must be at most {MAX_WORKERS}"
                        )));
                    }
                    common.workers = Some(workers);
                }
                _ => {}
            }
            common.given.push((flag, Some(v.clone())));
        } else if let Some(flag) = switch_flags.split_whitespace().find(|f| f == a) {
            common.given.push((flag, None));
            if matches!(flag, "--help" | "-h") {
                break;
            }
        } else if a.starts_with('-') && a != "-" {
            return Err(CliError::new(format!("unknown flag `{a}`\n\n{usage}")));
        } else {
            common.positional.push(a.clone());
        }
    }
    Ok(common)
}
