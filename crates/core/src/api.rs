//! The unified scheduling API: one pluggable surface over every scheduler
//! in this crate.
//!
//! The paper evaluates its four heuristics (§5), textbook baselines, and a
//! memory-capped scheduler (§7) over a large `(tree, p)` campaign. This
//! module gives them all one shape so that front-ends (CLI, experiment
//! harness, user code) never dispatch on concrete scheduler types:
//!
//! * [`Scheduler`] — the trait: `name()` plus
//!   `schedule(&Request, &mut Scratch) -> Result<Outcome, SchedError>`;
//! * [`Platform`] — the machine: processor classes ([`ProcClass`]:
//!   `count` processors at a relative `speed`) and memory domains
//!   ([`MemDomain`]: a capacity shared by its classes). The paper's
//!   machine — `p` identical processors, one memory — is the flat
//!   special case built by [`Platform::new`]/[`Platform::with_memory_cap`]
//!   and stays bit-compatible;
//! * [`Request`] — a borrowed scheduling problem: tree + platform +
//!   sequential sub-algorithm choice;
//! * [`Outcome`] — the schedule, its validated evaluation, and diagnostics;
//! * [`SchedError`] — every failure mode as a typed error (no panics);
//! * [`Scratch`] — reusable ready-queue/placement/evaluator buffers, so
//!   campaigns of thousands of schedules do not re-allocate;
//! * [`SchedulerRegistry`] — name-based lookup (canonical names + aliases)
//!   over all built-in schedulers, open for user registration.
//!
//! ```
//! use treesched_core::api::{Platform, Request, Scratch, SchedulerRegistry};
//! use treesched_model::TaskTree;
//!
//! let registry = SchedulerRegistry::standard();
//! let tree = TaskTree::fork(8, 1.0, 1.0, 0.0);
//! let req = Request::new(&tree, Platform::new(4));
//! let mut scratch = Scratch::new();
//! let sched = registry.get("deepest").unwrap(); // alias of ParDeepestFirst
//! let out = sched.schedule(&req, &mut scratch).unwrap();
//! assert_eq!(sched.name(), "ParDeepestFirst");
//! assert!(out.eval.makespan >= treesched_core::makespan_lower_bound(&tree, 4));
//! ```

use crate::heuristics::{par_subtrees, par_subtrees_optim, SeqAlgo, SubtreeScratch};
use crate::listsched::{key_from_f64, list_schedule, CommCosts, Key3, ListScratch, Speeds};
use crate::membound::{mem_bounded_schedule, mem_bounded_schedule_domains, Admission, DomainCtx};
use crate::schedule::{EvalResult, EvalScratch, Schedule, ScheduleError};
use std::sync::Arc;
use treesched_model::{MemoTraversal, NodeId, TaskTree};

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a scheduling request failed. Every condition the schedulers used to
/// `panic!`/`expect` on is a variant here; front-ends map them to clean
/// process exits.
#[derive(Clone, Debug, PartialEq)]
pub enum SchedError {
    /// The platform has `processors == 0`.
    NoProcessors,
    /// The platform has more than [`Platform::MAX_PROCESSORS`] processors.
    TooManyProcessors {
        /// The requested processor total.
        processors: u64,
    },
    /// The task tree holds no tasks.
    EmptyTree,
    /// A memory cap or domain capacity is NaN or negative.
    InvalidMemoryCap {
        /// The offending cap value.
        cap: f64,
    },
    /// A processor class has a non-finite or non-positive speed.
    InvalidSpeed {
        /// Index of the offending class in [`Platform::classes`].
        class: usize,
        /// The offending speed value.
        speed: f64,
    },
    /// A processor class has `count == 0`.
    EmptyClass {
        /// Index of the offending class in [`Platform::classes`].
        class: usize,
    },
    /// A memory domain lists no processor classes.
    EmptyDomain {
        /// Index of the offending domain in [`Platform::domains`].
        domain: usize,
    },
    /// A processor class is claimed by more than one memory domain (or
    /// twice by the same domain).
    OverlappingDomains {
        /// Index of the doubly-claimed class.
        class: usize,
    },
    /// A memory domain references a class index outside
    /// [`Platform::classes`].
    UnknownClass {
        /// Index of the offending domain.
        domain: usize,
        /// The out-of-range class index it referenced.
        class: usize,
    },
    /// The communication-cost matrix is malformed: wrong dimension,
    /// asymmetric, a non-zero diagonal, non-finite or negative entries, or
    /// declared without memory domains to index it.
    InvalidCommMatrix {
        /// What the validation rejected.
        reason: &'static str,
    },
    /// A memory-capped scheduler was invoked without
    /// [`Platform::memory_cap`].
    MissingMemoryCap {
        /// Canonical name of the scheduler that needs the cap.
        scheduler: &'static str,
    },
    /// The scheduler cannot handle the requested platform shape (e.g.
    /// mixed-speed processors for a scheduler that places whole subtrees,
    /// or per-domain capacities for a scheduler that enforces one shared
    /// cap). Returned instead of silently mis-scheduling.
    UnsupportedPlatform {
        /// Canonical name of the scheduler that rejected the platform.
        scheduler: &'static str,
        /// What the scheduler cannot handle.
        reason: &'static str,
    },
    /// The scheduler produced a schedule that failed validation — an
    /// internal bug surfaced as data instead of a panic.
    InvalidSchedule {
        /// Canonical name of the offending scheduler.
        scheduler: String,
        /// What [`Schedule::validate`] found.
        error: ScheduleError,
    },
    /// No registered scheduler matches the requested name or alias.
    UnknownScheduler {
        /// The name that failed to resolve.
        name: String,
        /// Canonical names of all registered schedulers.
        known: Vec<String>,
    },
    /// A registration clashed with an existing canonical name or alias.
    DuplicateName {
        /// The already-taken name.
        name: String,
    },
    /// The worker thread serving the request died (a user scheduler
    /// panicked) before producing a result. The request was not served;
    /// the rest of the stream is unaffected.
    WorkerLost {
        /// Index of the dead worker thread.
        worker: usize,
    },
    /// A serving front-end refused the request because the client's
    /// bounded in-flight queue was full. The request was not served; the
    /// client may resubmit once earlier responses drain.
    Overloaded {
        /// The in-flight cap that was hit.
        limit: usize,
    },
    /// A serving front-end could not parse the request line. Carries the
    /// 1-based line number within the client's input stream.
    MalformedRequest {
        /// 1-based input line number.
        line: usize,
        /// What the JSONL parser rejected.
        reason: String,
    },
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::NoProcessors => write!(f, "platform needs at least one processor"),
            SchedError::TooManyProcessors { processors } => write!(
                f,
                "platform has {processors} processors, more than the supported {}",
                Platform::MAX_PROCESSORS
            ),
            SchedError::EmptyTree => write!(f, "cannot schedule an empty task tree"),
            SchedError::InvalidMemoryCap { cap } => {
                write!(
                    f,
                    "invalid memory cap {cap} (must be finite and non-negative)"
                )
            }
            SchedError::InvalidSpeed { class, speed } => {
                write!(
                    f,
                    "invalid speed {speed} for processor class {class} (must be finite and positive)"
                )
            }
            SchedError::EmptyClass { class } => {
                write!(f, "processor class {class} has no processors")
            }
            SchedError::EmptyDomain { domain } => {
                write!(f, "memory domain {domain} covers no processor classes")
            }
            SchedError::OverlappingDomains { class } => {
                write!(
                    f,
                    "processor class {class} belongs to more than one memory domain"
                )
            }
            SchedError::UnknownClass { domain, class } => {
                write!(
                    f,
                    "memory domain {domain} references unknown processor class {class}"
                )
            }
            SchedError::InvalidCommMatrix { reason } => {
                write!(f, "invalid communication-cost matrix: {reason}")
            }
            SchedError::MissingMemoryCap { scheduler } => {
                write!(f, "scheduler `{scheduler}` needs a platform memory cap")
            }
            SchedError::UnsupportedPlatform { scheduler, reason } => {
                write!(
                    f,
                    "scheduler `{scheduler}` does not support this platform: {reason}"
                )
            }
            SchedError::InvalidSchedule { scheduler, error } => {
                write!(
                    f,
                    "scheduler `{scheduler}` produced an invalid schedule: {error}"
                )
            }
            SchedError::UnknownScheduler { name, known } => {
                write!(
                    f,
                    "unknown scheduler `{name}` (known: {})",
                    known.join(", ")
                )
            }
            SchedError::DuplicateName { name } => {
                write!(f, "scheduler name or alias `{name}` is already registered")
            }
            SchedError::WorkerLost { worker } => {
                write!(f, "serve worker {worker} died before the request completed")
            }
            SchedError::Overloaded { limit } => {
                write!(
                    f,
                    "client queue overloaded: {limit} requests already in flight"
                )
            }
            SchedError::MalformedRequest { line, reason } => {
                write!(f, "bad request on line {line}: {reason}")
            }
        }
    }
}

impl std::error::Error for SchedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SchedError::InvalidSchedule { error, .. } => Some(error),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Platform / Request / Outcome
// ---------------------------------------------------------------------------

/// One class of identical processors of a [`Platform`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProcClass {
    /// Number of processors in this class.
    pub count: u32,
    /// Relative execution speed: a task of work `w` runs for `w / speed`
    /// on a processor of this class. The paper's model is speed `1.0`.
    pub speed: f64,
}

impl ProcClass {
    /// A class of `count` processors at `speed`.
    pub fn new(count: u32, speed: f64) -> ProcClass {
        ProcClass { count, speed }
    }
}

/// One memory domain of a [`Platform`]: a capacity shared by the
/// processors of the listed classes (NUMA-style).
#[derive(Clone, Debug, PartialEq)]
pub struct MemDomain {
    /// Memory capacity of the domain.
    pub capacity: f64,
    /// Indices into [`Platform::classes`] of the classes whose processors
    /// allocate from this domain. A class may belong to at most one domain;
    /// classes in no domain have unbounded memory.
    pub classes: Vec<usize>,
}

/// The target machine: a set of processor *classes* (`count` processors at
/// a relative `speed` each) and optional memory *domains* (a capacity
/// shared by the classes that belong to it).
///
/// The paper's model (§3.2) — `p` identical processors sharing one memory —
/// is the special case built by [`Platform::new`] /
/// [`Platform::with_memory_cap`], and stays the wire- and bit-compatible
/// default: one class at speed `1.0`, at most one domain covering it.
/// Schedulers that cannot handle a richer shape return
/// [`SchedError::UnsupportedPlatform`] instead of silently mis-scheduling.
///
/// ```
/// use treesched_core::api::{Platform, ProcClass};
///
/// // 2 fast + 2 slow processors, each pair with its own 64-unit memory
/// let platform = Platform::heterogeneous(vec![
///     ProcClass::new(2, 2.0),
///     ProcClass::new(2, 1.0),
/// ])
/// .with_domain(64.0, &[0])
/// .with_domain(64.0, &[1]);
/// assert_eq!(platform.processors(), 4);
/// assert_eq!(platform.speed_of(1), 2.0);
/// assert_eq!(platform.domain_of(3), Some(1));
/// assert!(platform.validate().is_ok());
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Platform {
    /// Processor classes, in declaration order. Processor indices `0..p`
    /// are assigned class by class: class 0's processors first.
    classes: Vec<ProcClass>,
    /// Memory domains; empty means unbounded shared memory.
    domains: Vec<MemDomain>,
    /// Flattened `domains × domains` cross-domain transfer-cost matrix,
    /// row-major; empty means free communication everywhere. Entry
    /// `[src * D + dst]` is the cost per unit of output data a child's
    /// result pays to cross from `src`'s memory into `dst`'s.
    comm: Vec<f64>,
}

impl Platform {
    /// The most processors [`Platform::validate`] accepts. Schedulers and
    /// the evaluator allocate per-processor state, so an absurd processor
    /// count would be an allocation failure rather than an error; the
    /// corpus and the tests use at most 32.
    pub const MAX_PROCESSORS: u32 = 1 << 16;

    /// An uncapped platform with `processors` identical unit-speed
    /// processors — the paper's machine.
    pub fn new(processors: u32) -> Platform {
        Platform::heterogeneous(vec![ProcClass::new(processors, 1.0)])
    }

    /// A platform from explicit processor classes, with unbounded memory.
    pub fn heterogeneous(classes: Vec<ProcClass>) -> Platform {
        Platform {
            classes,
            domains: Vec::new(),
            comm: Vec::new(),
        }
    }

    /// Returns the platform with a single shared-memory cap over **all**
    /// classes, replacing any previously declared domains (and dropping any
    /// communication-cost matrix, which was indexed by them).
    pub fn with_memory_cap(mut self, cap: f64) -> Platform {
        self.domains = vec![MemDomain {
            capacity: cap,
            classes: (0..self.classes.len()).collect(),
        }];
        self.comm = Vec::new();
        self
    }

    /// Returns the platform with an additional memory domain of `capacity`
    /// over the given class indices.
    pub fn with_domain(mut self, capacity: f64, classes: &[usize]) -> Platform {
        self.domains.push(MemDomain {
            capacity,
            classes: classes.to_vec(),
        });
        self
    }

    /// Returns the platform with the given flattened `domains × domains`
    /// row-major transfer-cost matrix (see [`Platform::comm_cost`]).
    pub fn with_comm(mut self, comm: Vec<f64>) -> Platform {
        self.comm = comm;
        self
    }

    /// Total processor count across all classes, saturating at
    /// `u32::MAX` ([`Platform::validate`] rejects totals above
    /// [`Platform::MAX_PROCESSORS`]).
    pub fn processors(&self) -> u32 {
        self.classes
            .iter()
            .fold(0u32, |total, c| total.saturating_add(c.count))
    }

    /// The processor classes.
    pub fn classes(&self) -> &[ProcClass] {
        &self.classes
    }

    /// The memory domains (empty = unbounded shared memory).
    pub fn domains(&self) -> &[MemDomain] {
        &self.domains
    }

    /// The flattened `domains × domains` row-major transfer-cost matrix
    /// (empty = free communication).
    pub fn comm(&self) -> &[f64] {
        &self.comm
    }

    /// Transfer cost per unit of output data crossing from memory domain
    /// `src` into `dst`. Zero on the diagonal, zero when the platform
    /// declares no matrix, and symmetric by construction
    /// ([`Platform::validate`] enforces it).
    pub fn comm_cost(&self, src: usize, dst: usize) -> f64 {
        if src == dst || self.comm.is_empty() {
            return 0.0;
        }
        self.comm[src * self.domains.len() + dst]
    }

    /// Whether any cross-domain transfer actually costs something. An
    /// all-zero matrix is equivalent to no matrix at all, and every
    /// scheduler treats the two spellings identically (pinned by the
    /// registry property tests).
    pub fn has_comm(&self) -> bool {
        self.comm.iter().any(|&c| c != 0.0)
    }

    /// The single shared-memory cap, when the platform has exactly one
    /// domain covering every class (the shape [`Platform::with_memory_cap`]
    /// builds). `None` for uncapped platforms **and** for genuinely
    /// multi-domain ones — schedulers that need one shared cap must treat
    /// the latter as [`SchedError::UnsupportedPlatform`], which
    /// [`Platform::has_shared_memory`] distinguishes.
    pub fn memory_cap(&self) -> Option<f64> {
        match self.domains.as_slice() {
            [d] if (0..self.classes.len()).all(|c| d.classes.contains(&c)) => Some(d.capacity),
            _ => None,
        }
    }

    /// Whether every processor allocates from one shared memory: no domains
    /// at all, or a single domain covering every class.
    pub fn has_shared_memory(&self) -> bool {
        self.domains.is_empty() || self.memory_cap().is_some()
    }

    /// Whether every processor runs at speed `1.0` (the paper's model).
    pub fn is_unit_speed(&self) -> bool {
        self.classes.iter().all(|c| c.speed == 1.0)
    }

    /// The common speed when all classes run equally fast, `None` when the
    /// platform mixes speeds.
    pub fn uniform_speed(&self) -> Option<f64> {
        let speed = self.classes.first().map_or(1.0, |c| c.speed);
        self.classes
            .iter()
            .all(|c| c.speed == speed)
            .then_some(speed)
    }

    /// Whether the platform is expressible in the flat legacy shape
    /// `(processors, optional cap)`: one unit-speed class and at most one
    /// all-covering domain. Flat platforms keep every record and schedule
    /// byte-identical to the homogeneous API.
    pub fn is_flat(&self) -> bool {
        self.classes.len() == 1 && self.is_unit_speed() && self.has_shared_memory()
    }

    /// Class index of processor `proc`.
    ///
    /// # Panics
    ///
    /// Panics when `proc >= self.processors()`.
    pub fn class_of(&self, proc: u32) -> usize {
        let mut first = 0;
        for (k, c) in self.classes.iter().enumerate() {
            first += c.count;
            if proc < first {
                return k;
            }
        }
        panic!("processor {proc} out of range (platform has {first})");
    }

    /// Speed of processor `proc`.
    ///
    /// # Panics
    ///
    /// Panics when `proc >= self.processors()`.
    pub fn speed_of(&self, proc: u32) -> f64 {
        self.classes[self.class_of(proc)].speed
    }

    /// Memory domain of processor `proc`, `None` when its class belongs to
    /// no domain (unbounded memory).
    ///
    /// # Panics
    ///
    /// Panics when `proc >= self.processors()`.
    pub fn domain_of(&self, proc: u32) -> Option<usize> {
        let class = self.class_of(proc);
        self.domains.iter().position(|d| d.classes.contains(&class))
    }

    /// Clears `out` and fills it with one speed per processor, in processor
    /// index order (`out.len() == self.processors()` afterwards).
    pub fn fill_speeds(&self, out: &mut Vec<f64>) {
        out.clear();
        for c in &self.classes {
            out.extend(std::iter::repeat(c.speed).take(c.count as usize));
        }
    }

    /// Clears `out` and fills it with one memory-domain index per processor,
    /// in processor index order; `u32::MAX` marks a processor whose class
    /// belongs to no domain (unbounded memory, free communication).
    pub fn fill_domains(&self, out: &mut Vec<u32>) {
        out.clear();
        for (k, c) in self.classes.iter().enumerate() {
            let domain = self
                .domains
                .iter()
                .position(|d| d.classes.contains(&k))
                .map_or(u32::MAX, |d| d as u32);
            out.extend(std::iter::repeat(domain).take(c.count as usize));
        }
    }

    /// Checks the platform invariants: between one and
    /// [`Platform::MAX_PROCESSORS`] processors, finite positive speeds,
    /// non-empty classes, and well-formed domains (finite non-negative
    /// capacity — "unbounded" is spelled by *absence* of a domain, and a
    /// non-finite capacity would corrupt the JSON wire records — at least
    /// one class each, no class in two domains, no dangling class index).
    pub fn validate(&self) -> Result<(), SchedError> {
        let total: u64 = self.classes.iter().map(|c| u64::from(c.count)).sum();
        if total == 0 {
            return Err(SchedError::NoProcessors);
        }
        if total > u64::from(Platform::MAX_PROCESSORS) {
            return Err(SchedError::TooManyProcessors { processors: total });
        }
        for (k, c) in self.classes.iter().enumerate() {
            if c.count == 0 {
                return Err(SchedError::EmptyClass { class: k });
            }
            if !c.speed.is_finite() || c.speed <= 0.0 {
                return Err(SchedError::InvalidSpeed {
                    class: k,
                    speed: c.speed,
                });
            }
        }
        let mut claimed = vec![false; self.classes.len()];
        for (k, d) in self.domains.iter().enumerate() {
            if !d.capacity.is_finite() || d.capacity < 0.0 {
                return Err(SchedError::InvalidMemoryCap { cap: d.capacity });
            }
            if d.classes.is_empty() {
                return Err(SchedError::EmptyDomain { domain: k });
            }
            for &c in &d.classes {
                if c >= self.classes.len() {
                    return Err(SchedError::UnknownClass {
                        domain: k,
                        class: c,
                    });
                }
                if claimed[c] {
                    return Err(SchedError::OverlappingDomains { class: c });
                }
                claimed[c] = true;
            }
        }
        if !self.comm.is_empty() {
            let d = self.domains.len();
            if d == 0 {
                return Err(SchedError::InvalidCommMatrix {
                    reason: "a comm matrix needs memory domains to index it",
                });
            }
            if self.comm.len() != d * d {
                return Err(SchedError::InvalidCommMatrix {
                    reason: "matrix length must be domains x domains",
                });
            }
            for (i, &c) in self.comm.iter().enumerate() {
                if !c.is_finite() || c < 0.0 {
                    return Err(SchedError::InvalidCommMatrix {
                        reason: "costs must be finite and non-negative",
                    });
                }
                if i / d == i % d && c != 0.0 {
                    return Err(SchedError::InvalidCommMatrix {
                        reason: "the diagonal (intra-domain cost) must be zero",
                    });
                }
                if self.comm[(i % d) * d + i / d] != c {
                    return Err(SchedError::InvalidCommMatrix {
                        reason: "the matrix must be symmetric",
                    });
                }
            }
        }
        Ok(())
    }
}

/// Which platform flag a [`PlatformParseError`] came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PlatformFlag {
    /// `--speeds COUNTxSPEED,..` (spec key `speeds`).
    Speeds,
    /// `--domains CAP@CLASSES,..` (spec key `domains`).
    Domains,
    /// `--comm SRC-DST:COST,..` (spec key `comm`).
    Comm,
}

impl PlatformFlag {
    /// The flag spelling used in error messages and usage strings.
    pub fn flag(self) -> &'static str {
        match self {
            PlatformFlag::Speeds => "--speeds",
            PlatformFlag::Domains => "--domains",
            PlatformFlag::Comm => "--comm",
        }
    }
}

/// Typed parse error of [`Platform::parse_flags`]: which flag, which
/// comma-separated entry (0-based), and what went wrong. `Display` renders
/// the exact messages the CLI has always printed, so front-ends keep their
/// wording by mapping through `to_string()`.
#[derive(Clone, Debug, PartialEq)]
pub enum PlatformParseError {
    /// A token inside one entry failed to parse as a number. `what` names
    /// the token as the usage strings spell it (e.g. `--speeds count`).
    BadToken {
        /// The flag the token came from.
        flag: PlatformFlag,
        /// Human name of the token (`--speeds count`, `--domains capacity`, …).
        what: &'static str,
        /// The offending token text.
        token: String,
        /// 0-based index of the comma-separated entry holding the token.
        entry: usize,
    },
    /// An entry was empty (a bare `,,` or an empty flag value).
    EmptyEntry {
        /// The flag with the empty entry.
        flag: PlatformFlag,
        /// 0-based index of the empty entry.
        entry: usize,
    },
    /// A `--comm` entry was not in `SRC-DST:COST` shape.
    MalformedCommEntry {
        /// The offending entry text.
        token: String,
        /// 0-based index of the offending entry.
        entry: usize,
    },
    /// A `--comm` entry referenced a domain index the `--domains` flag
    /// never declared.
    CommDomainOutOfRange {
        /// The out-of-range domain index.
        index: usize,
        /// Number of domains the spec declares.
        domains: usize,
        /// 0-based index of the offending entry.
        entry: usize,
    },
}

impl std::fmt::Display for PlatformParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlatformParseError::BadToken { what, token, .. } => {
                write!(f, "cannot parse {what} from `{token}`")
            }
            PlatformParseError::EmptyEntry { flag, .. } => match flag {
                PlatformFlag::Speeds => {
                    write!(f, "--speeds needs COUNTxSPEED entries (e.g. 2x2.0,2x1.0)")
                }
                PlatformFlag::Domains => {
                    write!(f, "--domains needs CAP@CLASSES entries (e.g. 64@0,32@1+2)")
                }
                PlatformFlag::Comm => {
                    write!(f, "--comm needs SRC-DST:COST entries (e.g. 0-1:2,0-2:0.5)")
                }
            },
            PlatformParseError::MalformedCommEntry { token, .. } => {
                write!(
                    f,
                    "cannot parse --comm entry from `{token}` (want SRC-DST:COST)"
                )
            }
            PlatformParseError::CommDomainOutOfRange { index, domains, .. } => {
                write!(
                    f,
                    "--comm references domain {index}, but only {domains} domains are declared"
                )
            }
        }
    }
}

impl std::error::Error for PlatformParseError {}

impl PlatformParseError {
    /// The flag the error came from.
    pub fn flag(&self) -> PlatformFlag {
        match self {
            PlatformParseError::BadToken { flag, .. } => *flag,
            PlatformParseError::EmptyEntry { flag, .. } => *flag,
            PlatformParseError::MalformedCommEntry { .. } => PlatformFlag::Comm,
            PlatformParseError::CommDomainOutOfRange { .. } => PlatformFlag::Comm,
        }
    }

    /// 0-based index of the comma-separated entry the error points at.
    pub fn entry(&self) -> usize {
        match self {
            PlatformParseError::BadToken { entry, .. } => *entry,
            PlatformParseError::EmptyEntry { entry, .. } => *entry,
            PlatformParseError::MalformedCommEntry { entry, .. } => *entry,
            PlatformParseError::CommDomainOutOfRange { entry, .. } => *entry,
        }
    }
}

impl Platform {
    /// Parses the CLI flag syntax shared by every front-end that spells
    /// platforms as text (the `treesched` CLI, campaign specs, JSON spec
    /// files): `speeds` is a comma-separated list of `COUNTxSPEED`
    /// processor classes (`2x2.0,2x1.0`; a bare `SPEED` means one
    /// processor), `domains` an optional comma-separated list of
    /// `CAP@CLASSES` memory domains with `+`-joined class indices
    /// (`64@0,32@1+2`; a bare `CAP` covers every class), and `comm` an
    /// optional comma-separated list of `SRC-DST:COST` symmetric
    /// cross-domain transfer costs (`0-1:2,0-2:0.5`; unlisted pairs cost
    /// 0). Parse errors only, typed and pointing at the offending flag,
    /// entry and token — invariant checking (positive speeds, domain
    /// shapes) stays with [`Platform::validate`]; the one semantic check
    /// done here is that `comm` entries reference declared domains,
    /// because only the parser still knows the flag that declared them.
    ///
    /// ```
    /// use treesched_core::api::Platform;
    ///
    /// let platform =
    ///     Platform::parse_flags("2x2.0,2x1.0", Some("64@0,32@1"), Some("1-0:0.5")).unwrap();
    /// assert_eq!(platform.processors(), 4);
    /// assert_eq!(platform.comm_cost(0, 1), 0.5); // symmetric
    /// assert!(platform.validate().is_ok());
    /// let (speeds, domains, comm) = platform.flag_strings();
    /// assert_eq!(speeds, "2x2,2x1");
    /// assert_eq!(domains.as_deref(), Some("64@0,32@1"));
    /// assert_eq!(comm.as_deref(), Some("0-1:0.5"));
    /// ```
    pub fn parse_flags(
        speeds: &str,
        domains: Option<&str>,
        comm: Option<&str>,
    ) -> Result<Platform, PlatformParseError> {
        fn num<T: std::str::FromStr>(
            s: &str,
            flag: PlatformFlag,
            what: &'static str,
            entry: usize,
        ) -> Result<T, PlatformParseError> {
            s.parse().map_err(|_| PlatformParseError::BadToken {
                flag,
                what,
                token: s.to_string(),
                entry,
            })
        }
        let mut classes = Vec::new();
        for (k, entry) in speeds.split(',').enumerate() {
            let entry = entry.trim();
            if entry.is_empty() {
                return Err(PlatformParseError::EmptyEntry {
                    flag: PlatformFlag::Speeds,
                    entry: k,
                });
            }
            let class = match entry.split_once(['x', 'X']) {
                Some((count, speed)) => ProcClass::new(
                    num(count.trim(), PlatformFlag::Speeds, "--speeds count", k)?,
                    num(speed.trim(), PlatformFlag::Speeds, "--speeds speed", k)?,
                ),
                None => ProcClass::new(1, num(entry, PlatformFlag::Speeds, "--speeds speed", k)?),
            };
            classes.push(class);
        }
        let mut platform = Platform::heterogeneous(classes);
        if let Some(domains) = domains {
            for (k, entry) in domains.split(',').enumerate() {
                let entry = entry.trim();
                if entry.is_empty() {
                    return Err(PlatformParseError::EmptyEntry {
                        flag: PlatformFlag::Domains,
                        entry: k,
                    });
                }
                let (cap, ids) = match entry.split_once('@') {
                    Some((cap, list)) => {
                        let mut ids = Vec::new();
                        for id in list.split('+') {
                            ids.push(num(
                                id.trim(),
                                PlatformFlag::Domains,
                                "--domains class index",
                                k,
                            )?);
                        }
                        (cap.trim(), ids)
                    }
                    None => (entry, (0..platform.classes.len()).collect()),
                };
                platform.domains.push(MemDomain {
                    capacity: num(cap, PlatformFlag::Domains, "--domains capacity", k)?,
                    classes: ids,
                });
            }
        }
        if let Some(comm) = comm {
            let d = platform.domains.len();
            let mut matrix = vec![0.0; d * d];
            for (k, entry) in comm.split(',').enumerate() {
                let entry = entry.trim();
                if entry.is_empty() {
                    return Err(PlatformParseError::EmptyEntry {
                        flag: PlatformFlag::Comm,
                        entry: k,
                    });
                }
                let malformed = || PlatformParseError::MalformedCommEntry {
                    token: entry.to_string(),
                    entry: k,
                };
                let (pair, cost) = entry.split_once(':').ok_or_else(malformed)?;
                let (src, dst) = pair.split_once('-').ok_or_else(malformed)?;
                let src: usize = num(src.trim(), PlatformFlag::Comm, "--comm domain index", k)?;
                let dst: usize = num(dst.trim(), PlatformFlag::Comm, "--comm domain index", k)?;
                let cost: f64 = num(cost.trim(), PlatformFlag::Comm, "--comm cost", k)?;
                for index in [src, dst] {
                    if index >= d {
                        return Err(PlatformParseError::CommDomainOutOfRange {
                            index,
                            domains: d,
                            entry: k,
                        });
                    }
                }
                matrix[src * d + dst] = cost;
                matrix[dst * d + src] = cost;
            }
            platform.comm = matrix;
        }
        Ok(platform)
    }

    /// Renders the platform in the flag syntax [`Platform::parse_flags`]
    /// reads, for labels and flag round trips: `(speeds, domains, comm)`,
    /// the last two `None` when the platform declares no domains or no
    /// non-zero transfer cost. Each domain pair's cost is listed once,
    /// lower index first, so `0-1:2` and `1-0:2` render alike.
    pub fn flag_strings(&self) -> (String, Option<String>, Option<String>) {
        let speeds: Vec<String> = self
            .classes
            .iter()
            .map(|c| format!("{}x{}", c.count, c.speed))
            .collect();
        let domains: Vec<String> = self
            .domains
            .iter()
            .map(|d| {
                let ids: Vec<String> = d.classes.iter().map(|c| c.to_string()).collect();
                format!("{}@{}", d.capacity, ids.join("+"))
            })
            .collect();
        let d = self.domains.len();
        let mut comm = Vec::new();
        for src in 0..d {
            for dst in src + 1..d {
                match self.comm.get(src * d + dst) {
                    Some(&cost) if cost != 0.0 => comm.push(format!("{src}-{dst}:{cost}")),
                    _ => {}
                }
            }
        }
        let joined = |parts: Vec<String>| (!parts.is_empty()).then(|| parts.join(","));
        (speeds.join(","), joined(domains), joined(comm))
    }
}

/// A borrowed scheduling problem: which tree, on which platform, with which
/// sequential sub-algorithm.
#[derive(Clone, Debug)]
pub struct Request<'a> {
    /// The task tree to schedule.
    pub tree: &'a TaskTree,
    /// The target platform.
    pub platform: Platform,
    /// Sequential memory-minimizing sub-algorithm used as the reference
    /// traversal (subtree phases, activation orders, leaf tie-breaks).
    pub seq: SeqAlgo,
    /// Seed for randomized schedulers (the `RandomList` baseline).
    pub seed: u64,
}

impl<'a> Request<'a> {
    /// A request with the default sequential sub-algorithm and seed.
    pub fn new(tree: &'a TaskTree, platform: Platform) -> Request<'a> {
        Request {
            tree,
            platform,
            seq: SeqAlgo::default(),
            seed: 42,
        }
    }

    /// Returns the request with a different sequential sub-algorithm.
    pub fn with_seq(mut self, seq: SeqAlgo) -> Request<'a> {
        self.seq = seq;
        self
    }

    /// Returns the request with a different randomization seed.
    pub fn with_seed(mut self, seed: u64) -> Request<'a> {
        self.seed = seed;
        self
    }

    /// Checks the request invariants shared by every scheduler.
    pub fn validate(&self) -> Result<(), SchedError> {
        self.platform.validate()?;
        if self.tree.is_empty() {
            return Err(SchedError::EmptyTree);
        }
        Ok(())
    }
}

/// An owned, thread-movable scheduling problem: [`Request`] with the tree
/// behind an [`Arc`] instead of a borrow.
///
/// `Request` borrows its tree, which keeps one-shot callers allocation-free
/// but pins the request to the tree's lifetime. Serving engines that move
/// work across worker threads (see the `treesched_serve` crate) need the
/// problem to be `'static` and cheap to clone — cloning an `OwnedRequest`
/// copies an `Arc` pointer, never the tree. Requests built from the same
/// `Arc` share one tree, and with it the tree's memoized reference
/// traversals ([`SeqAlgo::reference`]).
#[derive(Clone, Debug)]
pub struct OwnedRequest {
    /// The task tree to schedule, shared across clones.
    pub tree: Arc<TaskTree>,
    /// The target platform.
    pub platform: Platform,
    /// Sequential sub-algorithm choice (see [`Request::seq`]).
    pub seq: SeqAlgo,
    /// Seed for randomized schedulers (see [`Request::seed`]).
    pub seed: u64,
}

impl OwnedRequest {
    /// An owned request with the default sequential sub-algorithm and seed.
    pub fn new(tree: Arc<TaskTree>, platform: Platform) -> OwnedRequest {
        OwnedRequest {
            tree,
            platform,
            seq: SeqAlgo::default(),
            seed: 42,
        }
    }

    /// Returns the request with a different sequential sub-algorithm.
    pub fn with_seq(mut self, seq: SeqAlgo) -> OwnedRequest {
        self.seq = seq;
        self
    }

    /// Returns the request with a different randomization seed.
    pub fn with_seed(mut self, seed: u64) -> OwnedRequest {
        self.seed = seed;
        self
    }

    /// The borrowed view every [`Scheduler`] consumes.
    pub fn as_request(&self) -> Request<'_> {
        Request {
            tree: &self.tree,
            platform: self.platform.clone(),
            seq: self.seq,
            seed: self.seed,
        }
    }

    /// Checks the request invariants shared by every scheduler.
    pub fn validate(&self) -> Result<(), SchedError> {
        self.as_request().validate()
    }
}

/// Side observations a scheduler reports alongside its schedule.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Diagnostics {
    /// Peak memory of the reference sequential traversal the scheduler used
    /// (the paper's memory reference when [`Request::seq`] is the default).
    pub seq_peak: Option<f64>,
    /// Forced admissions over the memory cap (memory-capped schedulers
    /// only; `Some(0)` means the cap was honored throughout).
    pub cap_violations: Option<usize>,
}

/// A successful scheduling run: the schedule, its validated evaluation, and
/// diagnostics. The evaluation is always present — every outcome returned
/// through this API has passed [`Schedule::validate_on`] for its request's
/// platform.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The produced schedule.
    pub schedule: Schedule,
    /// Joint makespan/peak-memory evaluation of the schedule (the peak is
    /// platform-global).
    pub eval: EvalResult,
    /// Peak memory per platform memory domain, in [`Platform::domains`]
    /// order. Empty for flat platforms (where the single-domain peak equals
    /// [`EvalResult::peak_memory`]) and for platforms without domains.
    pub domain_peaks: Vec<f64>,
    /// Scheduler-specific observations.
    pub diagnostics: Diagnostics,
}

/// A named scalar measurement extractable from an [`Outcome`] — the metric
/// vocabulary of campaign specs (`--metrics`) and JSON records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Metric {
    /// Finish time of the schedule.
    Makespan,
    /// Platform-global peak memory.
    PeakMemory,
    /// Sequential work over makespan ([`crate::Schedule::speedup`]).
    Speedup,
    /// Average processor utilization ([`crate::Schedule::utilization`]).
    Utilization,
    /// Forced cap admissions (memory-capped schedulers only).
    CapViolations,
    /// Largest per-domain peak (platforms with memory domains only).
    MaxDomainPeak,
    /// Wall-clock duration of the scheduler call in microseconds. Carried
    /// by the serving layer (median over its timing repetitions), not
    /// extractable from an [`Outcome`] — [`Outcome::metric`] returns
    /// `None` for it.
    TimeUs,
}

impl Metric {
    /// Every metric, in canonical order.
    pub const ALL: [Metric; 7] = [
        Metric::Makespan,
        Metric::PeakMemory,
        Metric::Speedup,
        Metric::Utilization,
        Metric::CapViolations,
        Metric::MaxDomainPeak,
        Metric::TimeUs,
    ];

    /// The stable snake_case name used in flags and JSON records.
    pub fn name(self) -> &'static str {
        match self {
            Metric::Makespan => "makespan",
            Metric::PeakMemory => "peak_memory",
            Metric::Speedup => "speedup",
            Metric::Utilization => "utilization",
            Metric::CapViolations => "cap_violations",
            Metric::MaxDomainPeak => "max_domain_peak",
            Metric::TimeUs => "time_us",
        }
    }

    /// Parses a metric by its [`Metric::name`].
    pub fn by_name(name: &str) -> Option<Metric> {
        Metric::ALL.into_iter().find(|m| m.name() == name)
    }
}

impl Outcome {
    /// Extracts `metric` from this outcome; `None` when the outcome does
    /// not carry it (no cap in force, no memory domains declared).
    pub fn metric(&self, metric: Metric) -> Option<f64> {
        match metric {
            Metric::Makespan => Some(self.eval.makespan),
            Metric::PeakMemory => Some(self.eval.peak_memory),
            Metric::Speedup => Some(self.schedule.speedup()),
            Metric::Utilization => Some(self.schedule.utilization()),
            Metric::CapViolations => self.diagnostics.cap_violations.map(|v| v as f64),
            Metric::MaxDomainPeak => self.domain_peaks.iter().copied().max_by(f64::total_cmp),
            Metric::TimeUs => None, // timing lives in the serving layer
        }
    }
}

// ---------------------------------------------------------------------------
// Scratch
// ---------------------------------------------------------------------------

/// Reusable working memory for [`Scheduler::schedule`] calls.
///
/// A campaign runs thousands of `(tree, p, scheduler)` scenarios; `Scratch`
/// keeps the allocations of one call alive for the next:
///
/// * the encoded **priority keys** and the list scheduler's queues/tables
///   (see [`ListScratch`]) are cleared, not re-allocated;
/// * the subtree heuristics' split heaps and view buffers (see
///   [`SubtreeScratch`]) are reused the same way;
/// * the **evaluator**'s sort keys and per-processor/per-domain tables,
///   through which every built-in scheduler validates its schedule and
///   sweeps its memory, are reused across calls, so a warm scratch
///   evaluates without allocating.
///
/// A scratch holds nothing about any tree. The reference traversal (order,
/// positions and peak) lives in the tree itself ([`SeqAlgo::reference`]),
/// so every scheduler, processor count, scratch and thread on the same
/// tree shares one computation.
#[derive(Default)]
pub struct Scratch {
    keys: Vec<Key3>,
    speeds: Vec<f64>,
    proc_domains: Vec<u32>,
    domain_caps: Vec<f64>,
    list: ListScratch,
    sub: SubtreeScratch,
    eval: EvalScratch,
    stats: ScratchStats,
}

/// Traversal and subtree counters of a [`Scratch`], for serving engines
/// and benchmarks that report how much work sharing avoided.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ScratchStats {
    /// Reference traversals this scratch's calls computed (they filled the
    /// tree's memo).
    pub traversal_computes: u64,
    /// Reference traversals this scratch's calls read from the tree's memo.
    pub traversal_reuses: u64,
    /// Subtrees scheduled through a borrowed view (no clone allocated).
    pub subtree_views: u64,
}

impl ScratchStats {
    /// Field-wise sum, for aggregating over a pool of scratches.
    pub fn merged(self, other: ScratchStats) -> ScratchStats {
        ScratchStats {
            traversal_computes: self.traversal_computes + other.traversal_computes,
            traversal_reuses: self.traversal_reuses + other.traversal_reuses,
            subtree_views: self.subtree_views + other.subtree_views,
        }
    }
}

/// Structural hash of a tree: parents, weight bits and child order, never
/// 0. It is [`TaskTree::fingerprint`], memoized in the tree: the first
/// call on a tree walks it, later calls are O(1) until a `set_*` method
/// changes its weights.
///
/// Sharded serving engines use it to group same-tree requests and route
/// them to one worker. Equal trees (same shape, weights and child order)
/// hash equal even when they are distinct allocations; trees that differ
/// only in the order of some node's children hash apart.
pub fn tree_fingerprint(tree: &TaskTree) -> u64 {
    tree.fingerprint()
}

impl Scratch {
    /// A fresh scratch.
    pub fn new() -> Scratch {
        Scratch::default()
    }

    /// The memoized reference traversal of `tree` under `algo`, counted in
    /// this scratch's stats.
    fn reference<'t>(&mut self, tree: &'t TaskTree, algo: SeqAlgo) -> &'t MemoTraversal {
        let (traversal, computed) = algo.reference(tree);
        if computed {
            self.stats.traversal_computes += 1;
        } else {
            self.stats.traversal_reuses += 1;
        }
        traversal
    }

    /// Traversal and subtree counters accumulated over the scratch's
    /// lifetime.
    pub fn stats(&self) -> ScratchStats {
        ScratchStats {
            subtree_views: self.sub.subtree_views(),
            ..self.stats
        }
    }

    /// The reference traversal of `tree` under `algo`: the execution order
    /// and its sequential peak memory, memoized in the tree
    /// ([`SeqAlgo::reference`]) and counted in [`Scratch::stats`].
    /// Available to custom [`Scheduler`] implementations.
    pub fn traversal<'t>(&mut self, tree: &'t TaskTree, algo: SeqAlgo) -> (&'t [NodeId], f64) {
        let traversal = self.reference(tree, algo);
        (&traversal.order, traversal.peak)
    }

    /// Event-based list scheduling on `platform` with reused buffers:
    /// builds one encoded key per node with `key` (**smaller = higher
    /// priority**) and runs [`list_schedule`]. On unit-speed platforms it is
    /// the paper's identical-processor list scheduler; on mixed-speed
    /// platforms each ready task goes to the free processor where it
    /// finishes earliest; on platforms with cross-domain communication
    /// costs each task's start is additionally delayed until its children's
    /// outputs have crossed into its processor's domain. The building block
    /// for custom list schedulers on top of this API, which thereby handle
    /// heterogeneous and comm-bearing requests for free.
    ///
    /// # Panics
    ///
    /// Panics when the platform has no processors (checked upstream by
    /// [`Request::validate`]).
    pub fn run_list_schedule<F: FnMut(NodeId) -> Key3>(
        &mut self,
        tree: &TaskTree,
        platform: &Platform,
        mut key: F,
    ) -> Schedule {
        self.keys.clear();
        for i in tree.ids() {
            self.keys.push(key(i));
        }
        list_on(
            tree,
            platform,
            &self.keys,
            &mut self.speeds,
            &mut self.proc_domains,
            &mut self.list,
        )
    }
}

/// Lowers `platform` to the list scheduler's [`Speeds`] and optional
/// [`CommCosts`], filling the per-processor buffers only when needed, and
/// runs [`list_schedule`] over `keys`. An all-zero cost matrix counts as
/// no matrix ([`Platform::has_comm`]).
fn list_on(
    tree: &TaskTree,
    platform: &Platform,
    keys: &[Key3],
    speeds: &mut Vec<f64>,
    proc_domains: &mut Vec<u32>,
    list: &mut ListScratch,
) -> Schedule {
    let speeds = if platform.is_unit_speed() {
        Speeds::Unit(platform.processors())
    } else {
        platform.fill_speeds(speeds);
        Speeds::Per(speeds)
    };
    let comm = if platform.has_comm() {
        platform.fill_domains(proc_domains);
        Some(CommCosts {
            domain_of: proc_domains,
            cost: platform.comm(),
            domains: platform.domains().len(),
        })
    } else {
        None
    };
    list_schedule(tree, speeds, keys, comm.as_ref(), list)
}

// ---------------------------------------------------------------------------
// The Scheduler trait
// ---------------------------------------------------------------------------

/// A scheduling algorithm for tree-shaped task graphs on a [`Platform`]:
/// anything that turns a [`Request`] into an [`Outcome`]. Schedulers that
/// cannot handle a platform shape (mixed speeds, split memory) must return
/// [`SchedError::UnsupportedPlatform`] rather than mis-schedule.
///
/// Implementations must be deterministic for a given request (randomized
/// schedulers draw from [`Request::seed`]) and must return schedules that
/// pass [`Schedule::validate_on`] for the request's platform — the
/// built-ins run their result through the same checks, surfacing
/// internal bugs as [`SchedError::InvalidSchedule`] instead of panicking.
pub trait Scheduler: Send + Sync {
    /// Canonical name (stable across releases; the registry key).
    fn name(&self) -> &'static str;

    /// One-line human description for listings.
    fn description(&self) -> &'static str {
        ""
    }

    /// Builds and evaluates a schedule for `req`, using `scratch` for
    /// reusable working memory.
    fn schedule(&self, req: &Request<'_>, scratch: &mut Scratch) -> Result<Outcome, SchedError>;

    /// Convenience: [`Scheduler::schedule`] with a throwaway scratch.
    fn schedule_once(&self, req: &Request<'_>) -> Result<Outcome, SchedError> {
        self.schedule(req, &mut Scratch::new())
    }
}

/// Validates + evaluates `schedule` on the request's platform through the
/// evaluator buffers of `scratch` and bundles the outcome. Per-domain peaks
/// are computed only for non-flat platforms — on a flat platform the
/// single-domain peak is the global peak already.
fn finish(
    name: &str,
    req: &Request<'_>,
    schedule: Schedule,
    diagnostics: Diagnostics,
    scratch: &mut Scratch,
) -> Result<Outcome, SchedError> {
    let (tree, platform) = (req.tree, &req.platform);
    let with_domains = !platform.is_flat();
    let eval = scratch
        .eval
        .evaluate(&schedule, tree, platform, true, with_domains)
        .map_err(|error| SchedError::InvalidSchedule {
            scheduler: name.to_string(),
            error,
        })?;
    let domain_peaks = if with_domains {
        scratch.eval.domain_peaks().to_vec()
    } else {
        Vec::new()
    };
    Ok(Outcome {
        schedule,
        eval,
        domain_peaks,
        diagnostics,
    })
}

/// Divides every placement instant by `speed`, turning a unit-time schedule
/// into its equal-speed counterpart (a no-op at speed `1.0`, so uniform
/// platforms stay bit-identical).
fn scale_times(schedule: &mut Schedule, speed: f64) {
    if speed != 1.0 {
        for pl in &mut schedule.placements {
            pl.start /= speed;
            pl.finish /= speed;
        }
    }
}

// ---------------------------------------------------------------------------
// Built-in scheduler wrappers
// ---------------------------------------------------------------------------

/// `ParSubtrees` / `ParSubtreesOptim` (paper §5.1).
struct ParSubtreesSched {
    optim: bool,
}

impl Scheduler for ParSubtreesSched {
    fn name(&self) -> &'static str {
        if self.optim {
            "ParSubtreesOptim"
        } else {
            "ParSubtrees"
        }
    }

    fn description(&self) -> &'static str {
        if self.optim {
            "ParSubtrees with LPT allocation of all subtrees; better makespan, slightly more memory"
        } else {
            "concurrent subtrees + sequential remainder; memory-focused, M <= (p+1)*M_seq"
        }
    }

    fn schedule(&self, req: &Request<'_>, scratch: &mut Scratch) -> Result<Outcome, SchedError> {
        req.validate()?;
        let (tree, p) = (req.tree, req.platform.processors());
        // Subtree placement pins every cross-subtree edge at a fixed
        // processor pairing chosen before any comm cost is known; only the
        // list schedulers model transfer delays.
        if req.platform.has_comm() {
            return Err(SchedError::UnsupportedPlatform {
                scheduler: self.name(),
                reason: "communication costs need a comm-aware list scheduler",
            });
        }
        let reference = scratch.reference(tree, req.seq);
        let algo = if self.optim {
            par_subtrees_optim
        } else {
            par_subtrees
        };
        let Scratch { speeds, sub, .. } = scratch;
        // Equal-speed platforms stay on the unit-time route with every
        // instant rescaled (bit-identical at speed 1.0); mixed speeds take
        // the speed-aware placement.
        let schedule = match req.platform.uniform_speed() {
            Some(speed) => {
                let mut schedule = algo(tree, Speeds::Unit(p), req.seq, sub);
                scale_times(&mut schedule, speed);
                schedule
            }
            None => {
                req.platform.fill_speeds(speeds);
                algo(tree, Speeds::Per(speeds), req.seq, sub)
            }
        };
        let diag = Diagnostics {
            seq_peak: Some(reference.peak),
            cap_violations: None,
        };
        finish(self.name(), req, schedule, diag, scratch)
    }
}

/// Which priority scheme a [`ListSched`] uses.
///
/// The paper's `ParInnerFirst`/`ParDeepestFirst` differ from textbook list
/// scheduling in two ingredients: the *inner-before-leaf* preference and
/// the *optimal-postorder* ordering of equal-priority leaves. The three
/// baselines isolate those ingredients for component ablations. All five
/// inherit Graham's `(2 − 1/p)` makespan guarantee; the interesting axis
/// is memory, where the paper-specific tie-breaks pay off (see the
/// `ablation` experiment binary).
#[derive(Clone, Copy, PartialEq, Eq)]
enum ListKind {
    /// `ParInnerFirst` (paper §5.2): ready inner nodes first, deepest
    /// (in edges) first; leaves in optimal-postorder order.
    InnerFirst,
    /// `ParDeepestFirst` (paper §5.3): largest `w`-weighted root-path
    /// depth first (the head of the critical path), then inner before
    /// leaf, then postorder position.
    DeepestFirst,
    /// Critical-path baseline: weighted depth only, no inner/leaf
    /// preference, ties by id.
    Cp,
    /// FIFO/no-priority baseline: ready tasks in id order.
    Fifo,
    /// Seeded random-priority baseline ([`splitmix_key`]).
    Random,
}

/// Splitmix64 hash of a node id under `seed`: the deterministic priority
/// source of the `RandomList` baseline (no RNG dependency needed).
fn splitmix_key(seed: u64, id: u32) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e3779b97f4a7c15)
        .wrapping_add((id as u64) << 32 | id as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

struct ListSched {
    kind: ListKind,
}

impl Scheduler for ListSched {
    fn name(&self) -> &'static str {
        match self.kind {
            ListKind::InnerFirst => "ParInnerFirst",
            ListKind::DeepestFirst => "ParDeepestFirst",
            ListKind::Cp => "CpList",
            ListKind::Fifo => "FifoList",
            ListKind::Random => "RandomList",
        }
    }

    fn description(&self) -> &'static str {
        match self.kind {
            ListKind::InnerFirst => {
                "list scheduling, inner nodes first then postorder leaves; balanced"
            }
            ListKind::DeepestFirst => "list scheduling along the critical path; makespan-focused",
            ListKind::Cp => "baseline: critical-path priority, no paper tie-breaks",
            ListKind::Fifo => "baseline: ready tasks in id order, no priority",
            ListKind::Random => "baseline: seeded random priorities",
        }
    }

    fn schedule(&self, req: &Request<'_>, scratch: &mut Scratch) -> Result<Outcome, SchedError> {
        req.validate()?;
        let tree = req.tree;
        let reference = scratch.reference(tree, req.seq);
        let pos = &reference.pos;
        let (depths, wdepths) = match self.kind {
            ListKind::InnerFirst => (tree.depths(), Vec::new()),
            ListKind::DeepestFirst | ListKind::Cp => (Vec::new(), tree.weighted_depths()),
            ListKind::Fifo | ListKind::Random => (Vec::new(), Vec::new()),
        };
        let Scratch {
            keys,
            speeds,
            proc_domains,
            list,
            ..
        } = scratch;
        keys.clear();
        match self.kind {
            ListKind::InnerFirst => keys.extend(tree.ids().map(|i| {
                if tree.is_leaf(i) {
                    (1u64, pos[i.index()] as u64, 0u64)
                } else {
                    (
                        0u64,
                        (u32::MAX - depths[i.index()]) as u64,
                        pos[i.index()] as u64,
                    )
                }
            })),
            ListKind::DeepestFirst => keys.extend(tree.ids().map(|i| {
                (
                    key_from_f64(-wdepths[i.index()]),
                    u64::from(tree.is_leaf(i)),
                    pos[i.index()] as u64,
                )
            })),
            ListKind::Cp => keys.extend(
                tree.ids()
                    .map(|i| (key_from_f64(-wdepths[i.index()]), i.0 as u64, 0u64)),
            ),
            ListKind::Fifo => keys.extend(tree.ids().map(|i| (i.0 as u64, 0u64, 0u64))),
            ListKind::Random => keys.extend(
                tree.ids()
                    .map(|i| (splitmix_key(req.seed, i.0), i.0 as u64, 0u64)),
            ),
        }
        // list scheduling is natively heterogeneous: the priority queue is
        // speed-independent and each ready task takes the free processor
        // where it finishes earliest. With cross-domain communication costs
        // the pick additionally delays the task's start until every child's
        // output has crossed into the chosen processor's domain.
        let schedule = list_on(tree, &req.platform, keys, speeds, proc_domains, list);
        let diag = Diagnostics {
            seq_peak: Some(reference.peak),
            cap_violations: None,
        };
        finish(self.name(), req, schedule, diag, scratch)
    }
}

/// Memory-capped list scheduling (paper §7 future work) under a fixed
/// admission policy. Requires [`Platform::memory_cap`].
struct MemBoundedSched {
    policy: Admission,
}

impl Scheduler for MemBoundedSched {
    fn name(&self) -> &'static str {
        match self.policy {
            Admission::SequentialOrder => "MemBoundedSeq",
            Admission::Greedy => "MemBoundedGreedy",
        }
    }

    fn description(&self) -> &'static str {
        match self.policy {
            Admission::SequentialOrder => {
                "memory-capped, sequential activation order; never exceeds a feasible cap"
            }
            Admission::Greedy => {
                "memory-capped, greedy admission; more parallel but may violate the cap"
            }
        }
    }

    fn schedule(&self, req: &Request<'_>, scratch: &mut Scratch) -> Result<Outcome, SchedError> {
        req.validate()?;
        let (tree, p) = (req.tree, req.platform.processors());
        // admission reasons about where memory lives, not about when
        // transfers complete; only the list schedulers model comm delays
        if req.platform.has_comm() {
            return Err(SchedError::UnsupportedPlatform {
                scheduler: self.name(),
                reason: "communication costs need a comm-aware list scheduler",
            });
        }
        // a cap (shared or per-domain) is what this scheduler exists to
        // enforce — a platform without any domain has nothing to enforce
        if req.platform.domains().is_empty() {
            return Err(SchedError::MissingMemoryCap {
                scheduler: self.name(),
            });
        }
        let reference = scratch.reference(tree, req.seq);
        let uniform = req.platform.uniform_speed();
        let run = match (uniform, req.platform.memory_cap()) {
            // the paper's shape — one shared cap, equal speeds — stays on
            // the historical shared-counter path, rescaled uniformly so the
            // admission event order is preserved (bit-identical at 1.0)
            (Some(speed), Some(cap)) => {
                let mut run = mem_bounded_schedule(tree, p, &reference.order, cap, self.policy);
                scale_times(&mut run.schedule, speed);
                run
            }
            // mixed speeds and/or genuinely split memory: per-domain
            // resident counters enforce each domain's capacity during
            // admission, per-processor speeds set the durations
            _ => {
                req.platform.fill_speeds(&mut scratch.speeds);
                req.platform.fill_domains(&mut scratch.proc_domains);
                scratch.domain_caps.clear();
                scratch
                    .domain_caps
                    .extend(req.platform.domains().iter().map(|d| d.capacity));
                let ctx = DomainCtx {
                    speeds: &scratch.speeds,
                    domain_of: &scratch.proc_domains,
                    caps: &scratch.domain_caps,
                };
                mem_bounded_schedule_domains(tree, &ctx, &reference.order, self.policy)
            }
        };
        let diag = Diagnostics {
            seq_peak: Some(reference.peak),
            cap_violations: Some(run.violations),
        };
        finish(self.name(), req, run.schedule, diag, scratch)
    }
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// One registered scheduler: the implementation, its aliases, and whether
/// it belongs to the paper's comparison campaign (Table 1, Figures 6–8).
pub struct RegistryEntry {
    scheduler: Box<dyn Scheduler>,
    aliases: Vec<&'static str>,
    campaign: bool,
}

impl RegistryEntry {
    /// The scheduler.
    pub fn scheduler(&self) -> &dyn Scheduler {
        self.scheduler.as_ref()
    }

    /// Canonical name.
    pub fn name(&self) -> &'static str {
        self.scheduler.name()
    }

    /// One-line description.
    pub fn description(&self) -> &'static str {
        self.scheduler.description()
    }

    /// Accepted aliases (canonical name excluded).
    pub fn aliases(&self) -> &[&'static str] {
        &self.aliases
    }

    /// Whether the scheduler participates in the default experiment
    /// campaign.
    pub fn in_campaign(&self) -> bool {
        self.campaign
    }
}

/// Name-based scheduler lookup: canonical names and aliases, matched
/// case-insensitively. [`SchedulerRegistry::standard`] holds every built-in
/// scheduler; front-ends resolve user input exclusively through this.
#[derive(Default)]
pub struct SchedulerRegistry {
    entries: Vec<RegistryEntry>,
}

impl SchedulerRegistry {
    /// An empty registry.
    pub fn new() -> SchedulerRegistry {
        SchedulerRegistry::default()
    }

    /// The built-in registry: the paper's four heuristics (campaign
    /// members), the three textbook baselines, and the two memory-capped
    /// wrappers.
    pub fn standard() -> SchedulerRegistry {
        let mut r = SchedulerRegistry::new();
        let must = |res: Result<(), SchedError>| res.expect("built-in names are unique");
        must(r.register(
            Box::new(ParSubtreesSched { optim: false }),
            &["subtrees"],
            true,
        ));
        must(r.register(
            Box::new(ParSubtreesSched { optim: true }),
            &["subtrees-optim", "optim"],
            true,
        ));
        must(r.register(
            Box::new(ListSched {
                kind: ListKind::InnerFirst,
            }),
            &["inner", "inner-first"],
            true,
        ));
        must(r.register(
            Box::new(ListSched {
                kind: ListKind::DeepestFirst,
            }),
            &["deepest", "deepest-first"],
            true,
        ));
        must(r.register(
            Box::new(ListSched { kind: ListKind::Cp }),
            &["cp", "cp-list"],
            false,
        ));
        must(r.register(
            Box::new(ListSched {
                kind: ListKind::Fifo,
            }),
            &["fifo", "fifo-list"],
            false,
        ));
        must(r.register(
            Box::new(ListSched {
                kind: ListKind::Random,
            }),
            &["random", "random-list"],
            false,
        ));
        must(r.register(
            Box::new(MemBoundedSched {
                policy: Admission::SequentialOrder,
            }),
            &["membound", "capped", "mem-seq"],
            false,
        ));
        must(r.register(
            Box::new(MemBoundedSched {
                policy: Admission::Greedy,
            }),
            &["mem-greedy", "greedy-capped"],
            false,
        ));
        r
    }

    /// Registers a scheduler under its canonical name plus `aliases`.
    /// `campaign` adds it to [`SchedulerRegistry::campaign`], i.e. the
    /// default experiment sweep.
    pub fn register(
        &mut self,
        scheduler: Box<dyn Scheduler>,
        aliases: &[&'static str],
        campaign: bool,
    ) -> Result<(), SchedError> {
        for name in std::iter::once(scheduler.name()).chain(aliases.iter().copied()) {
            if self.resolve(name).is_ok() {
                return Err(SchedError::DuplicateName {
                    name: name.to_string(),
                });
            }
        }
        self.entries.push(RegistryEntry {
            scheduler,
            aliases: aliases.to_vec(),
            campaign,
        });
        Ok(())
    }

    /// Resolves `name` (canonical or alias, case-insensitive) to its entry.
    pub fn resolve(&self, name: &str) -> Result<&RegistryEntry, SchedError> {
        self.entries
            .iter()
            .find(|e| {
                e.name().eq_ignore_ascii_case(name)
                    || e.aliases.iter().any(|a| a.eq_ignore_ascii_case(name))
            })
            .ok_or_else(|| SchedError::UnknownScheduler {
                name: name.to_string(),
                known: self.names().iter().map(|s| s.to_string()).collect(),
            })
    }

    /// Resolves `name` to its scheduler.
    pub fn get(&self, name: &str) -> Result<&dyn Scheduler, SchedError> {
        Ok(self.resolve(name)?.scheduler())
    }

    /// All entries, in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &RegistryEntry> {
        self.entries.iter()
    }

    /// The campaign members (the schedulers compared in Table 1 and
    /// Figures 6–8), in registration order.
    pub fn campaign(&self) -> impl Iterator<Item = &RegistryEntry> {
        self.entries.iter().filter(|e| e.campaign)
    }

    /// Canonical names, in registration order.
    pub fn names(&self) -> Vec<&'static str> {
        self.entries.iter().map(|e| e.name()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use treesched_model::TaskTree;

    fn sample() -> TaskTree {
        TaskTree::complete(3, 4, 1.0, 2.0, 0.5)
    }

    #[test]
    fn platform_spec_parses_the_flag_syntax() {
        let platform = Platform::parse_flags("2x2.0,2x1.0", Some("64@0,32@1"), None).unwrap();
        assert_eq!(
            platform,
            fast_slow().with_domain(64.0, &[0]).with_domain(32.0, &[1])
        );
        assert_eq!(platform.processors(), 4);
        assert!(platform.validate().is_ok());
        // a bare SPEED is one processor; a bare CAP covers every class
        let platform = Platform::parse_flags("2.0, 1x1.0", Some("100"), None).unwrap();
        assert_eq!(
            platform.classes(),
            &[ProcClass::new(1, 2.0), ProcClass::new(1, 1.0)]
        );
        assert_eq!(platform.domains()[0].classes, vec![0, 1]);
        assert_eq!(platform.memory_cap(), Some(100.0));
        // `+`-joined class lists
        let platform = Platform::parse_flags("1x2.0,1x1.0,1x1.0", Some("8@1+2"), None).unwrap();
        assert_eq!(platform.domains()[0].classes, vec![1, 2]);
        // per-pair comm entries build a symmetric matrix over zeros
        let platform =
            Platform::parse_flags("2x2.0,2x1.0", Some("64@0,32@1"), Some("0-1:0.5")).unwrap();
        assert!(platform.validate().is_ok());
        assert_eq!(platform.comm(), &[0.0, 0.5, 0.5, 0.0]);
        assert_eq!(platform.comm_cost(1, 0), 0.5);
        assert_eq!(platform.comm_cost(0, 0), 0.0);
        let platform =
            Platform::parse_flags("1x2,1x1,1x1", Some("8@0,8@1,8@2"), Some("0-1:0.5,2-1:2"))
                .unwrap();
        assert_eq!(platform.comm_cost(1, 0), 0.5);
        assert_eq!(platform.comm_cost(1, 2), 2.0);
        assert_eq!(platform.comm_cost(0, 2), 0.0);
        assert!(platform.has_comm());
        // the flat spelling matches Platform::new bit for bit
        assert_eq!(
            Platform::parse_flags("4x1", None, None).unwrap(),
            Platform::new(4)
        );
    }

    #[test]
    fn platform_spec_flag_strings_round_trip() {
        for (speeds, domains, comm) in [
            ("4x1", None, None),
            ("2x2,2x1", None, None),
            ("2x2,2x1", Some("64@0,32@1"), None),
            ("1x1.5,3x0.5", Some("100@0+1"), None),
            ("2x2,2x1", Some("64@0,32@1"), Some("0-1:2")),
            ("1x2,1x1,1x1", Some("8@0,8@1,8@2"), Some("0-1:0.5,1-2:2")),
        ] {
            let platform = Platform::parse_flags(speeds, domains, comm).unwrap();
            let (s, d, c) = platform.flag_strings();
            assert_eq!(s, speeds);
            assert_eq!(d.as_deref(), domains);
            assert_eq!(c.as_deref(), comm);
            assert_eq!(
                Platform::parse_flags(&s, d.as_deref(), c.as_deref()).unwrap(),
                platform,
                "{speeds} {domains:?} {comm:?}"
            );
        }
        // the matrix is the platform: pair order and direction do not
        // survive, only the costs
        for comm in ["1-0:2", "0-1:2", "1-0:2,0-1:2"] {
            let platform = Platform::parse_flags("2x1", Some("8@0,8@0"), Some(comm)).unwrap();
            assert_eq!(
                platform.flag_strings().2.as_deref(),
                Some("0-1:2"),
                "{comm}"
            );
        }
        let zero = Platform::parse_flags("2x1", Some("8@0,8@0"), Some("0-1:0")).unwrap();
        assert_eq!(
            zero.flag_strings().2,
            None,
            "an all-zero matrix is no matrix"
        );
    }

    #[test]
    fn platform_spec_rejects_malformed_flags() {
        for (speeds, domains, comm, needle) in [
            ("", None, None, "--speeds"),
            ("2x", None, None, "--speeds speed"),
            ("x2", None, None, "--speeds count"),
            ("fast", None, None, "--speeds speed"),
            ("2x1.0,", None, None, "--speeds"),
            ("2.5x1.0", None, None, "--speeds count"),
            ("2x1.0", Some(""), None, "--domains"),
            ("2x1.0", Some("abc"), None, "--domains capacity"),
            ("2x1.0", Some("5@"), None, "--domains class index"),
            ("2x1.0", Some("5@a"), None, "--domains class index"),
            ("2x1.0", Some("5@0+"), None, "--domains class index"),
            ("2x1.0", Some("5@-1"), None, "--domains class index"),
            ("2x1.0", Some("5@0,"), None, "--domains"),
            ("2x1,2x1", Some("8@0,8@1"), Some(""), "--comm"),
            ("2x1,2x1", Some("8@0,8@1"), Some("0-1"), "want SRC-DST:COST"),
            ("2x1,2x1", Some("8@0,8@1"), Some("0:1"), "want SRC-DST:COST"),
            (
                "2x1,2x1",
                Some("8@0,8@1"),
                Some("a-1:2"),
                "--comm domain index",
            ),
            ("2x1,2x1", Some("8@0,8@1"), Some("0-1:x"), "--comm cost"),
            ("2x1,2x1", Some("8@0,8@1"), Some("0-2:1"), "only 2 domains"),
            ("2x1", None, Some("0-1:1"), "only 0 domains"),
        ] {
            let err = Platform::parse_flags(speeds, domains, comm).unwrap_err();
            assert!(
                err.to_string().contains(needle),
                "{speeds} {domains:?} {comm:?}: expected `{needle}` in `{err}`"
            );
        }
        // a comm entry naming an undeclared domain is typed, with its entry
        assert_eq!(
            Platform::parse_flags("2x1", Some("8@0"), Some("0-0:0,0-1:1")),
            Err(PlatformParseError::CommDomainOutOfRange {
                index: 1,
                domains: 1,
                entry: 1
            })
        );
        // structural junk parses but fails Platform::validate, typed
        let platform = Platform::parse_flags("2x0", None, None).unwrap();
        assert!(matches!(
            platform.validate(),
            Err(SchedError::InvalidSpeed { .. })
        ));
        let platform = Platform::parse_flags("2x1.0", Some("5@7"), None).unwrap();
        assert!(matches!(
            platform.validate(),
            Err(SchedError::UnknownClass { .. })
        ));
    }

    #[test]
    fn metrics_extract_from_outcomes_and_round_trip_names() {
        for m in Metric::ALL {
            assert_eq!(Metric::by_name(m.name()), Some(m));
        }
        assert_eq!(Metric::by_name("nosuch"), None);
        let tree = sample();
        let registry = SchedulerRegistry::standard();
        let mut scratch = Scratch::new();
        let req = Request::new(&tree, Platform::new(4));
        let out = registry
            .get("deepest")
            .unwrap()
            .schedule(&req, &mut scratch)
            .unwrap();
        assert_eq!(out.metric(Metric::Makespan), Some(out.eval.makespan));
        assert_eq!(out.metric(Metric::PeakMemory), Some(out.eval.peak_memory));
        assert_eq!(out.metric(Metric::Speedup), Some(out.schedule.speedup()));
        assert_eq!(
            out.metric(Metric::Utilization),
            Some(out.schedule.utilization())
        );
        // uncapped, domain-less run: the conditional metrics are absent
        assert_eq!(out.metric(Metric::CapViolations), None);
        assert_eq!(out.metric(Metric::MaxDomainPeak), None);
        // capped run fills them in
        let req = Request::new(&tree, Platform::new(4).with_memory_cap(1e9));
        let out = registry
            .get("membound")
            .unwrap()
            .schedule(&req, &mut scratch)
            .unwrap();
        assert_eq!(out.metric(Metric::CapViolations), Some(0.0));
    }

    #[test]
    fn registry_resolves_names_and_aliases_case_insensitively() {
        let r = SchedulerRegistry::standard();
        for (spelling, canonical) in [
            ("ParSubtrees", "ParSubtrees"),
            ("subtrees", "ParSubtrees"),
            ("SUBTREES-OPTIM", "ParSubtreesOptim"),
            ("inner", "ParInnerFirst"),
            ("Deepest", "ParDeepestFirst"),
            ("cp", "CpList"),
            ("fifo", "FifoList"),
            ("random", "RandomList"),
            ("membound", "MemBoundedSeq"),
            ("MEM-GREEDY", "MemBoundedGreedy"),
        ] {
            assert_eq!(r.get(spelling).unwrap().name(), canonical, "{spelling}");
        }
        assert!(matches!(
            r.get("nosuch"),
            Err(SchedError::UnknownScheduler { .. })
        ));
    }

    #[test]
    fn registry_round_trips_every_name_and_alias() {
        let r = SchedulerRegistry::standard();
        assert_eq!(r.names().len(), 9);
        for e in r.iter() {
            assert_eq!(r.get(e.name()).unwrap().name(), e.name());
            for a in e.aliases() {
                assert_eq!(r.get(a).unwrap().name(), e.name(), "alias {a}");
            }
            assert!(!e.description().is_empty(), "{}", e.name());
        }
    }

    #[test]
    fn campaign_is_the_four_paper_heuristics() {
        let r = SchedulerRegistry::standard();
        let names: Vec<&str> = r.campaign().map(|e| e.name()).collect();
        assert_eq!(
            names,
            [
                "ParSubtrees",
                "ParSubtreesOptim",
                "ParInnerFirst",
                "ParDeepestFirst"
            ]
        );
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        struct Dup;
        impl Scheduler for Dup {
            fn name(&self) -> &'static str {
                "ParSubtrees"
            }
            fn schedule(
                &self,
                _req: &Request<'_>,
                _s: &mut Scratch,
            ) -> Result<Outcome, SchedError> {
                unreachable!()
            }
        }
        let mut r = SchedulerRegistry::standard();
        assert!(matches!(
            r.register(Box::new(Dup), &[], false),
            Err(SchedError::DuplicateName { .. })
        ));
        struct AliasClash;
        impl Scheduler for AliasClash {
            fn name(&self) -> &'static str {
                "Fresh"
            }
            fn schedule(
                &self,
                _req: &Request<'_>,
                _s: &mut Scratch,
            ) -> Result<Outcome, SchedError> {
                unreachable!()
            }
        }
        assert!(matches!(
            r.register(Box::new(AliasClash), &["inner"], false),
            Err(SchedError::DuplicateName { .. })
        ));
    }

    #[test]
    fn random_baseline_differs_by_seed_but_not_by_run() {
        let t = sample();
        let r = SchedulerRegistry::standard();
        let random = r.get("random").unwrap();
        let run = |seed| {
            let req = Request::new(&t, Platform::new(3)).with_seed(seed);
            random.schedule_once(&req).unwrap().schedule
        };
        assert_eq!(run(1), run(1));
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn cp_matches_deepest_first_makespan_on_uniform_trees() {
        // without ties the two differ only in tie-breaking, so on this
        // regular tree the makespans coincide
        let t = sample();
        let r = SchedulerRegistry::standard();
        let req = Request::new(&t, Platform::new(4));
        let makespan = |name| {
            r.get(name)
                .unwrap()
                .schedule_once(&req)
                .unwrap()
                .eval
                .makespan
        };
        assert_eq!(makespan("cp"), makespan("deepest"));
    }

    #[test]
    fn owned_request_matches_borrowed_and_moves_across_threads() {
        let tree = Arc::new(sample());
        let r = SchedulerRegistry::standard();
        let owned = OwnedRequest::new(Arc::clone(&tree), Platform::new(3)).with_seed(7);
        let borrowed = Request::new(&tree, Platform::new(3)).with_seed(7);
        let mut scratch = Scratch::new();
        let a = r
            .get("deepest")
            .unwrap()
            .schedule(&owned.as_request(), &mut scratch)
            .unwrap();
        let b = r
            .get("deepest")
            .unwrap()
            .schedule(&borrowed, &mut scratch)
            .unwrap();
        assert_eq!(a.schedule, b.schedule);
        // the whole point of the owned variant: 'static, Send, cheap clone
        let clone = owned.clone();
        let handle = std::thread::spawn(move || {
            let reg = SchedulerRegistry::standard();
            reg.get("deepest")
                .unwrap()
                .schedule(&clone.as_request(), &mut Scratch::new())
                .unwrap()
                .eval
        });
        assert_eq!(handle.join().unwrap(), a.eval);
        assert!(owned.validate().is_ok());
        assert_eq!(
            OwnedRequest::new(tree, Platform::new(0)).validate(),
            Err(SchedError::NoProcessors)
        );
    }

    #[test]
    fn fingerprint_distinguishes_structure_not_allocation() {
        let a = sample();
        let b = sample();
        assert_eq!(tree_fingerprint(&a), tree_fingerprint(&b));
        assert_ne!(
            tree_fingerprint(&a),
            tree_fingerprint(&TaskTree::chain(5, 1.0, 1.0, 0.0))
        );
        assert_ne!(tree_fingerprint(&a), 0, "0 is the empty-scratch sentinel");
    }

    #[test]
    fn scratch_survives_tree_and_algo_changes() {
        // interleave trees and algorithms through one scratch: buffers left
        // by the previous request must not leak into the next one (a leak
        // would produce invalid schedules, caught by the outcome evaluation,
        // or differ from a fresh clone with an empty memo)
        let trees = [
            TaskTree::fork(9, 1.0, 1.0, 0.0),
            TaskTree::complete(2, 5, 1.0, 1.0, 0.0),
            TaskTree::chain(12, 2.0, 1.0, 0.5),
        ];
        let r = SchedulerRegistry::standard();
        let mut scratch = Scratch::new();
        for algo in [SeqAlgo::BestPostorder, SeqAlgo::LiuExact] {
            for t in &trees {
                for e in r.iter() {
                    let platform = Platform::new(4).with_memory_cap(1e12);
                    let req = Request::new(t, platform.clone()).with_seq(algo);
                    let out = e.scheduler().schedule(&req, &mut scratch).unwrap();
                    assert!(out.schedule.validate(t).is_ok(), "{}", e.name());
                    assert!(out.eval.makespan > 0.0);
                    let fresh = t.clone();
                    let once = e
                        .scheduler()
                        .schedule_once(&Request::new(&fresh, platform).with_seq(algo))
                        .unwrap();
                    assert_eq!(out.schedule, once.schedule, "{}", e.name());
                }
            }
        }
    }

    #[test]
    fn a_warm_scratch_tells_child_orders_apart() {
        // `subtree` numbers nodes in DFS pop order, so its child lists run
        // descending; `from_parents` on the same parents and weights builds
        // ascending ones, and the naive postorder follows the stored order
        let base = TaskTree::from_parents(
            &[None, Some(0), Some(0), Some(0), Some(1), Some(1), Some(2)],
            &[1.0, 2.0, 3.0, 1.0, 4.0, 2.0, 5.0],
            &[1.0, 3.0, 2.0, 5.0, 1.0, 4.0, 2.0],
            &[0.0, 0.5, 0.0, 1.0, 0.0, 0.0, 0.5],
        )
        .unwrap();
        let (desc, _) = base.subtree(base.root());
        let parents: Vec<Option<usize>> = desc
            .ids()
            .map(|i| desc.parent(i).map(NodeId::index))
            .collect();
        let column =
            |f: fn(&TaskTree, NodeId) -> f64| desc.ids().map(|i| f(&desc, i)).collect::<Vec<_>>();
        let asc = TaskTree::from_parents(
            &parents,
            &column(TaskTree::work),
            &column(TaskTree::output),
            &column(TaskTree::exec),
        )
        .unwrap();
        assert_ne!(desc.children(desc.root()), asc.children(asc.root()));
        assert_ne!(tree_fingerprint(&desc), tree_fingerprint(&asc));
        let r = SchedulerRegistry::standard();
        for entry in r.iter() {
            for p in [1, 2, 3] {
                let platform = Platform::new(p).with_memory_cap(1e6);
                let req = |t| Request::new(t, platform.clone()).with_seq(SeqAlgo::NaivePostorder);
                let mut warm = Scratch::new();
                let _ = entry.scheduler().schedule(&req(&desc), &mut warm);
                let warm = entry.scheduler().schedule(&req(&asc), &mut warm);
                // a clone starts with an empty memo, so nothing carries over
                let fresh = asc.clone();
                let fresh = entry.scheduler().schedule_once(&req(&fresh));
                assert_eq!(
                    warm.map(|o| o.schedule),
                    fresh.map(|o| o.schedule),
                    "{} on p = {p}",
                    entry.name()
                );
            }
        }
    }

    #[test]
    fn scratch_counts_traversal_reuse() {
        let t = sample();
        let r = SchedulerRegistry::standard();
        let mut scratch = Scratch::new();
        let req = Request::new(&t, Platform::new(2));
        for _ in 0..3 {
            r.get("deepest")
                .unwrap()
                .schedule(&req, &mut scratch)
                .unwrap();
        }
        let s = scratch.stats();
        assert_eq!(s.traversal_computes, 1);
        assert_eq!(s.traversal_reuses, 2);
        // a different tree misses once, then hits again
        let t2 = TaskTree::chain(6, 1.0, 1.0, 0.0);
        let req2 = Request::new(&t2, Platform::new(2));
        r.get("deepest")
            .unwrap()
            .schedule(&req2, &mut scratch)
            .unwrap();
        r.get("inner")
            .unwrap()
            .schedule(&req2, &mut scratch)
            .unwrap();
        let s2 = scratch.stats();
        assert_eq!(s2.traversal_computes, 2);
        assert_eq!(s2.traversal_reuses, 3);
        let views = ScratchStats {
            subtree_views: 4,
            ..ScratchStats::default()
        };
        assert_eq!(
            s.merged(s2).merged(views),
            ScratchStats {
                traversal_computes: 3,
                traversal_reuses: 5,
                subtree_views: 4,
            }
        );
    }

    #[test]
    fn threads_sharing_a_tree_compute_each_traversal_once() {
        let tree = Arc::new(TaskTree::complete(3, 4, 1.0, 2.0, 0.5));
        for algo in [
            SeqAlgo::BestPostorder,
            SeqAlgo::LiuExact,
            SeqAlgo::NaivePostorder,
        ] {
            let handles: Vec<_> = (0..4)
                .map(|k| {
                    let tree = Arc::clone(&tree);
                    std::thread::spawn(move || {
                        let r = SchedulerRegistry::standard();
                        let mut scratch = Scratch::new();
                        for name in ["subtrees", "inner", "deepest"] {
                            let req = Request::new(&tree, Platform::new(2 + k)).with_seq(algo);
                            r.get(name).unwrap().schedule(&req, &mut scratch).unwrap();
                        }
                        scratch.stats()
                    })
                })
                .collect();
            let total = handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .fold(ScratchStats::default(), ScratchStats::merged);
            assert_eq!(total.traversal_computes, 1, "{algo:?}");
            assert_eq!(total.traversal_reuses, 11, "{algo:?}");
        }
    }

    #[test]
    fn typed_errors_replace_panics() {
        let t = sample();
        let r = SchedulerRegistry::standard();
        let mut scratch = Scratch::new();
        // p == 0
        let req = Request::new(&t, Platform::new(0));
        for e in r.iter() {
            assert_eq!(
                e.scheduler().schedule(&req, &mut scratch).unwrap_err(),
                SchedError::NoProcessors,
                "{}",
                e.name()
            );
        }
        // capped scheduler without a cap
        let req = Request::new(&t, Platform::new(2));
        assert_eq!(
            r.get("membound")
                .unwrap()
                .schedule(&req, &mut scratch)
                .unwrap_err(),
            SchedError::MissingMemoryCap {
                scheduler: "MemBoundedSeq"
            }
        );
        // NaN cap
        let req = Request::new(&t, Platform::new(2).with_memory_cap(f64::NAN));
        assert!(matches!(
            r.get("membound").unwrap().schedule(&req, &mut scratch),
            Err(SchedError::InvalidMemoryCap { .. })
        ));
    }

    #[test]
    fn membound_outcome_reports_violations() {
        let t = TaskTree::complete(2, 3, 1.0, 5.0, 2.0);
        let r = SchedulerRegistry::standard();
        let mut scratch = Scratch::new();
        // infeasible cap: completes with violations counted
        let req = Request::new(&t, Platform::new(2).with_memory_cap(0.5));
        let out = r
            .get("membound")
            .unwrap()
            .schedule(&req, &mut scratch)
            .unwrap();
        assert!(out.diagnostics.cap_violations.unwrap() > 0);
        // generous cap: zero violations
        let req = Request::new(&t, Platform::new(2).with_memory_cap(1e12));
        let out = r
            .get("mem-greedy")
            .unwrap()
            .schedule(&req, &mut scratch)
            .unwrap();
        assert_eq!(out.diagnostics.cap_violations, Some(0));
    }

    #[test]
    fn diagnostics_carry_the_memory_reference() {
        let t = sample();
        let r = SchedulerRegistry::standard();
        let mut scratch = Scratch::new();
        let req = Request::new(&t, Platform::new(4));
        let out = r
            .get("subtrees")
            .unwrap()
            .schedule(&req, &mut scratch)
            .unwrap();
        assert_eq!(
            out.diagnostics.seq_peak,
            Some(crate::bounds::memory_reference(&t))
        );
    }

    fn fast_slow() -> Platform {
        Platform::heterogeneous(vec![ProcClass::new(2, 2.0), ProcClass::new(2, 1.0)])
    }

    #[test]
    fn platform_accessors_describe_classes_and_domains() {
        let flat = Platform::new(4);
        assert_eq!(flat.processors(), 4);
        assert!(flat.is_flat() && flat.is_unit_speed() && flat.has_shared_memory());
        assert_eq!(flat.memory_cap(), None);
        assert_eq!(flat.uniform_speed(), Some(1.0));

        let capped = Platform::new(3).with_memory_cap(7.5);
        assert_eq!(capped.memory_cap(), Some(7.5));
        assert!(capped.is_flat());
        // re-capping replaces, matching the old `memory_cap = Some(..)`
        assert_eq!(capped.clone().with_memory_cap(9.0).memory_cap(), Some(9.0));

        let het = fast_slow().with_domain(64.0, &[0]).with_domain(32.0, &[1]);
        assert_eq!(het.processors(), 4);
        assert!(!het.is_flat() && !het.is_unit_speed() && !het.has_shared_memory());
        assert_eq!(het.memory_cap(), None, "two domains are not one cap");
        assert_eq!(het.uniform_speed(), None);
        assert_eq!(
            (0..4).map(|p| het.speed_of(p)).collect::<Vec<_>>(),
            [2.0, 2.0, 1.0, 1.0]
        );
        assert_eq!(
            (0..4).map(|p| het.class_of(p)).collect::<Vec<_>>(),
            [0, 0, 1, 1]
        );
        assert_eq!(
            (0..4).map(|p| het.domain_of(p)).collect::<Vec<_>>(),
            [Some(0), Some(0), Some(1), Some(1)]
        );
        let mut speeds = Vec::new();
        het.fill_speeds(&mut speeds);
        assert_eq!(speeds, [2.0, 2.0, 1.0, 1.0]);

        // one domain covering every class IS one shared cap
        let shared = fast_slow().with_domain(100.0, &[0, 1]);
        assert_eq!(shared.memory_cap(), Some(100.0));
        assert!(shared.has_shared_memory() && !shared.is_flat());
        // a partial domain is neither shared nor a cap
        let partial = fast_slow().with_domain(100.0, &[0]);
        assert_eq!(partial.memory_cap(), None);
        assert!(!partial.has_shared_memory());
        assert_eq!(partial.domain_of(3), None, "class 1 is unconstrained");
    }

    #[test]
    fn platform_validation_rejects_bad_speeds_and_domains() {
        // the NaN-cap check generalizes to every shape error, typed
        assert_eq!(
            Platform::heterogeneous(vec![]).validate(),
            Err(SchedError::NoProcessors)
        );
        assert_eq!(
            Platform::heterogeneous(vec![ProcClass::new(2, 1.0), ProcClass::new(0, 1.0)])
                .validate(),
            Err(SchedError::EmptyClass { class: 1 })
        );
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(
                matches!(
                    Platform::heterogeneous(vec![ProcClass::new(2, bad)]).validate(),
                    Err(SchedError::InvalidSpeed { class: 0, .. })
                ),
                "{bad}"
            );
        }
        // non-finite capacities would corrupt the JSON wire records (the
        // legacy flat `cap` wire field already rejects them)
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            assert!(
                matches!(
                    fast_slow().with_domain(bad, &[0]).validate(),
                    Err(SchedError::InvalidMemoryCap { .. })
                ),
                "{bad}"
            );
        }
        assert_eq!(
            fast_slow().with_domain(5.0, &[]).validate(),
            Err(SchedError::EmptyDomain { domain: 0 })
        );
        assert_eq!(
            fast_slow()
                .with_domain(5.0, &[0])
                .with_domain(5.0, &[0])
                .validate(),
            Err(SchedError::OverlappingDomains { class: 0 })
        );
        assert_eq!(
            fast_slow().with_domain(5.0, &[2]).validate(),
            Err(SchedError::UnknownClass {
                domain: 0,
                class: 2
            })
        );
        // schedulers surface the same typed errors through requests
        let t = sample();
        let r = SchedulerRegistry::standard();
        let req = Request::new(
            &t,
            fast_slow().with_domain(5.0, &[0]).with_domain(5.0, &[0]),
        );
        assert_eq!(
            r.get("deepest")
                .unwrap()
                .schedule(&req, &mut Scratch::new())
                .unwrap_err(),
            SchedError::OverlappingDomains { class: 0 }
        );
    }

    #[test]
    fn list_schedulers_run_heterogeneous_platforms() {
        let t = sample();
        let r = SchedulerRegistry::standard();
        let mut scratch = Scratch::new();
        let platform = fast_slow().with_domain(1e9, &[0]).with_domain(1e9, &[1]);
        let flat_req = Request::new(&t, Platform::new(4));
        for name in ["inner", "deepest", "cp", "fifo", "random"] {
            let req = Request::new(&t, platform.clone());
            let out = r.get(name).unwrap().schedule(&req, &mut scratch).unwrap();
            assert!(out.schedule.validate_on(&t, &platform).is_ok(), "{name}");
            assert!(
                out.eval.makespan >= crate::bounds::makespan_lower_bound_on(&t, &platform) - 1e-9,
                "{name}"
            );
            assert_eq!(out.domain_peaks.len(), 2, "{name}");
            // each domain holds at most the global peak, and together they
            // cover it (every processor is in a domain here)
            for &peak in &out.domain_peaks {
                assert!(peak <= out.eval.peak_memory + 1e-9, "{name}");
            }
            assert!(
                out.domain_peaks.iter().sum::<f64>() >= out.eval.peak_memory - 1e-9,
                "{name}: domains at their peaks must cover the global peak"
            );
            // faster processors can only help the makespan
            let flat = r
                .get(name)
                .unwrap()
                .schedule(&flat_req, &mut scratch)
                .unwrap();
            assert!(out.eval.makespan <= flat.eval.makespan + 1e-9, "{name}");
        }
    }

    #[test]
    fn subtree_and_capped_schedulers_serve_mixed_speeds_and_domains() {
        let t = sample();
        let r = SchedulerRegistry::standard();
        let mut scratch = Scratch::new();
        // subtree schedulers serve mixed speeds natively: the split stays in
        // work units, placement is speed-aware
        let mixed = fast_slow();
        let flat_req = Request::new(&t, Platform::new(4));
        for name in ["subtrees", "optim"] {
            let out = r
                .get(name)
                .unwrap()
                .schedule(&Request::new(&t, mixed.clone()), &mut scratch)
                .unwrap();
            assert!(out.schedule.validate_on(&t, &mixed).is_ok(), "{name}");
            assert!(
                out.eval.makespan >= crate::bounds::makespan_lower_bound_on(&t, &mixed) - 1e-9,
                "{name}"
            );
            // faster processors can only help the makespan
            let flat = r
                .get(name)
                .unwrap()
                .schedule(&flat_req, &mut scratch)
                .unwrap();
            assert!(out.eval.makespan <= flat.eval.makespan + 1e-9, "{name}");
        }
        // capped schedulers on a domain-less platform still have nothing to
        // enforce — typed, whatever the speeds
        for name in ["membound", "mem-greedy"] {
            assert!(
                matches!(
                    r.get(name)
                        .unwrap()
                        .schedule(&Request::new(&t, mixed.clone()), &mut scratch),
                    Err(SchedError::MissingMemoryCap { .. })
                ),
                "{name}"
            );
        }
        // split memory is now enforced per domain during admission: a
        // generous per-domain cap completes with zero violations
        let split = fast_slow().with_domain(1e9, &[0]).with_domain(1e9, &[1]);
        for name in ["membound", "mem-greedy"] {
            let out = r
                .get(name)
                .unwrap()
                .schedule(&Request::new(&t, split.clone()), &mut scratch)
                .unwrap();
            assert!(out.schedule.validate_on(&t, &split).is_ok(), "{name}");
            assert_eq!(out.diagnostics.cap_violations, Some(0), "{name}");
            assert_eq!(out.metric(Metric::CapViolations), Some(0.0), "{name}");
            assert_eq!(out.domain_peaks.len(), 2, "{name}");
        }
        // an infeasibly tight domain force-admits and counts violations
        // instead of deadlocking
        let tight = fast_slow().with_domain(0.5, &[0]).with_domain(0.5, &[1]);
        let out = r
            .get("membound")
            .unwrap()
            .schedule(&Request::new(&t, tight), &mut scratch)
            .unwrap();
        assert!(out.diagnostics.cap_violations.unwrap() > 0);
        // comm-bearing platforms stay with the comm-aware list schedulers
        let comm = fast_slow()
            .with_domain(1e9, &[0])
            .with_domain(1e9, &[1])
            .with_comm(vec![0.0, 1.0, 1.0, 0.0]);
        for name in ["subtrees", "optim", "membound", "mem-greedy"] {
            assert!(
                matches!(
                    r.get(name)
                        .unwrap()
                        .schedule(&Request::new(&t, comm.clone()), &mut scratch),
                    Err(SchedError::UnsupportedPlatform { .. })
                ),
                "{name}"
            );
        }
    }

    #[test]
    fn equal_speed_platforms_rescale_subtree_and_capped_schedules() {
        let t = sample();
        let r = SchedulerRegistry::standard();
        let mut scratch = Scratch::new();
        let double = Platform::heterogeneous(vec![ProcClass::new(4, 2.0)]).with_memory_cap(1e9);
        let unit = Platform::new(4).with_memory_cap(1e9);
        for name in ["subtrees", "optim", "membound", "mem-greedy", "deepest"] {
            let fast = r
                .get(name)
                .unwrap()
                .schedule(&Request::new(&t, double.clone()), &mut scratch)
                .unwrap();
            let slow = r
                .get(name)
                .unwrap()
                .schedule(&Request::new(&t, unit.clone()), &mut scratch)
                .unwrap();
            assert!(
                (fast.eval.makespan - slow.eval.makespan / 2.0).abs() < 1e-9,
                "{name}: {} vs {}",
                fast.eval.makespan,
                slow.eval.makespan
            );
            assert_eq!(
                fast.eval.peak_memory, slow.eval.peak_memory,
                "{name}: time scaling must not change memory"
            );
        }
    }

    #[test]
    fn uniform_heterogeneous_spelling_matches_homogeneous_bit_for_bit() {
        // all speeds 1.0 split across two classes + one all-covering domain:
        // every scheduler must produce the exact same Schedule as the flat
        // spelling — the backward-compatibility contract of the redesign
        let t = sample();
        let r = SchedulerRegistry::standard();
        let mut scratch = Scratch::new();
        let cap = crate::bounds::memory_reference(&t);
        let uniform = Platform::heterogeneous(vec![ProcClass::new(1, 1.0), ProcClass::new(3, 1.0)])
            .with_domain(cap, &[0, 1]);
        let flat = Platform::new(4).with_memory_cap(cap);
        for e in r.iter() {
            let a = e
                .scheduler()
                .schedule(
                    &Request::new(&t, uniform.clone()).with_seed(9),
                    &mut scratch,
                )
                .unwrap();
            let b = e
                .scheduler()
                .schedule(&Request::new(&t, flat.clone()).with_seed(9), &mut scratch)
                .unwrap();
            assert_eq!(a.schedule, b.schedule, "{}", e.name());
            assert_eq!(a.eval, b.eval, "{}", e.name());
            // the het spelling additionally reports its single-domain peak,
            // which must equal the global peak
            assert_eq!(a.domain_peaks, vec![a.eval.peak_memory], "{}", e.name());
            assert_eq!(b.domain_peaks, Vec::<f64>::new(), "{}", e.name());
        }
    }

    #[test]
    fn with_memory_cap_replaces_domains_and_drops_comm() {
        let p = Platform::heterogeneous(vec![ProcClass::new(1, 1.0), ProcClass::new(1, 1.0)])
            .with_domain(4.0, &[0])
            .with_domain(4.0, &[1])
            .with_comm(vec![0.0, 1.0, 1.0, 0.0])
            .with_memory_cap(100.0);
        assert_eq!(p.domains().len(), 1);
        assert_eq!(p.memory_cap(), Some(100.0));
        assert!(p.comm().is_empty());
        assert!(p.validate().is_ok());
    }

    #[test]
    fn processor_totals_are_bounded_without_overflow() {
        let max = Platform::MAX_PROCESSORS;
        assert!(Platform::new(max).validate().is_ok());
        assert_eq!(
            Platform::new(max + 1).validate(),
            Err(SchedError::TooManyProcessors {
                processors: u64::from(max) + 1
            })
        );
        assert_eq!(
            Platform::new(4_000_000_000).validate(),
            Err(SchedError::TooManyProcessors {
                processors: 4_000_000_000
            })
        );
        // class counts that wrap a u32 sum to a small total
        let wrapping =
            Platform::heterogeneous(vec![ProcClass::new(u32::MAX, 1.0), ProcClass::new(2, 1.0)]);
        assert_eq!(wrapping.processors(), u32::MAX, "saturates, never wraps");
        assert_eq!(
            wrapping.validate(),
            Err(SchedError::TooManyProcessors {
                processors: u64::from(u32::MAX) + 2
            })
        );
    }

    #[test]
    fn comm_matrix_validation_is_typed() {
        let two = || {
            Platform::heterogeneous(vec![ProcClass::new(1, 1.0), ProcClass::new(1, 1.0)])
                .with_domain(8.0, &[0])
                .with_domain(8.0, &[1])
        };
        for (comm, needle) in [
            (vec![0.0, 1.0], "domains x domains"),
            (vec![0.0, 1.0, 2.0, 0.0], "symmetric"),
            (vec![1.0, 0.5, 0.5, 0.0], "diagonal"),
            (vec![0.0, -1.0, -1.0, 0.0], "finite and non-negative"),
            (
                vec![0.0, f64::NAN, f64::NAN, 0.0],
                "finite and non-negative",
            ),
        ] {
            let err = two().with_comm(comm.clone()).validate().unwrap_err();
            assert!(
                matches!(err, SchedError::InvalidCommMatrix { .. })
                    && err.to_string().contains(needle),
                "{comm:?}: {err}"
            );
        }
        // a matrix with no domains to index it
        let err = Platform::new(2)
            .with_comm(vec![0.0])
            .validate()
            .unwrap_err();
        assert!(err.to_string().contains("memory domains"));
        // well-formed matrices pass, and the all-zero matrix means "none"
        assert!(two().with_comm(vec![0.0, 2.0, 2.0, 0.0]).validate().is_ok());
        let zero = two().with_comm(vec![0.0; 4]);
        assert!(zero.validate().is_ok());
        assert!(!zero.has_comm());
    }

    #[test]
    fn comm_costs_delay_cross_domain_dependencies() {
        // two leaves feeding a root, one processor per domain: whichever
        // processor runs the root, one leaf's output must cross domains
        let t = TaskTree::fork(2, 1.0, 1.0, 0.0);
        let free = Platform::heterogeneous(vec![ProcClass::new(1, 1.0), ProcClass::new(1, 1.0)])
            .with_domain(1e9, &[0])
            .with_domain(1e9, &[1]);
        let costly = free.clone().with_comm(vec![0.0, 3.0, 3.0, 0.0]);
        let r = SchedulerRegistry::standard();
        let mut scratch = Scratch::new();
        for name in ["inner", "deepest", "cp", "fifo"] {
            let base = r
                .get(name)
                .unwrap()
                .schedule(&Request::new(&t, free.clone()), &mut scratch)
                .unwrap();
            let out = r
                .get(name)
                .unwrap()
                .schedule(&Request::new(&t, costly.clone()), &mut scratch)
                .unwrap();
            assert!(
                out.schedule.validate_on(&t, &costly).is_ok(),
                "{name}: comm-aware validation"
            );
            assert!(
                (out.eval.makespan - (base.eval.makespan + 3.0)).abs() < 1e-9,
                "{name}: root waits exactly output x cost ({} vs {})",
                out.eval.makespan,
                base.eval.makespan
            );
            // a schedule that ignores the transfer is rejected by the
            // comm-aware validator even though plain precedence holds
            let mut cheat = out.schedule.clone();
            let root = cheat
                .placements
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.finish.total_cmp(&b.1.finish))
                .map(|(i, _)| i)
                .unwrap();
            cheat.placements[root].start -= 3.0;
            cheat.placements[root].finish -= 3.0;
            assert!(cheat.validate_on(&t, &free).is_ok(), "{name}");
            assert!(cheat.validate_on(&t, &costly).is_err(), "{name}");
        }
    }

    #[test]
    fn zero_comm_matrix_schedules_byte_identically_to_no_matrix() {
        let t = sample();
        let r = SchedulerRegistry::standard();
        let mut scratch = Scratch::new();
        let bare = fast_slow().with_domain(64.0, &[0]).with_domain(32.0, &[1]);
        let zeroed = bare.clone().with_comm(vec![0.0; 4]);
        for e in r.iter() {
            let a = e
                .scheduler()
                .schedule(&Request::new(&t, bare.clone()).with_seed(3), &mut scratch);
            let b = e
                .scheduler()
                .schedule(&Request::new(&t, zeroed.clone()).with_seed(3), &mut scratch);
            match (a, b) {
                (Ok(a), Ok(b)) => {
                    assert_eq!(a.schedule, b.schedule, "{}", e.name());
                    assert_eq!(a.eval, b.eval, "{}", e.name());
                }
                (a, b) => assert_eq!(a.is_err(), b.is_err(), "{}", e.name()),
            }
        }
    }

    #[test]
    fn error_messages_are_informative() {
        let r = SchedulerRegistry::standard();
        let e = r.resolve("warp-drive").err().expect("unknown name");
        let msg = e.to_string();
        assert!(msg.contains("warp-drive"));
        assert!(msg.contains("ParSubtrees"), "lists known names: {msg}");
        assert!(SchedError::NoProcessors.to_string().contains("processor"));
    }
}
