//! The serving wire protocol: one JSON object per line.
//!
//! **Requests** (in): `tree` (path to a `treesched tree v1` file) is
//! required, plus a platform — either the flat legacy fields `processors`
//! (+ optional `cap`), or a nested `platform` object of processor classes
//! and memory domains; `id`, `scheduler`, `seq` (`best|naive|liu`) and
//! `seed` are optional:
//!
//! ```json
//! {"id":"r1","tree":"fork.tree","scheduler":"deepest","processors":4}
//! {"id":"r2","tree":"fork.tree","scheduler":"deepest","platform":
//!   {"classes":[{"count":2,"speed":2},{"count":2,"speed":1}],
//!    "domains":[{"capacity":64,"classes":[0]},{"capacity":64,"classes":[1]}]}}
//! ```
//!
//! **Responses** (out) reuse the field conventions of the CLI's
//! `schedule --json` record — same keys, same order, numbers in Rust
//! `Display` form, absent values as `null` — prefixed with the echoed
//! `id`. Flat-platform responses are byte-identical to the pre-platform
//! protocol; heterogeneous responses additionally carry the `platform`
//! object (after `processors`) and per-domain peaks (`domain_peaks`, last):
//!
//! ```json
//! {"id":"r1","scheduler":"ParDeepestFirst","processors":4,"tasks":7,...}
//! ```
//!
//! Failed requests produce `{"id":...,"error":"..."}` instead, so a
//! response line is a success record exactly when it has no `error` key.
//!
//! The parser accepts full JSON values (objects and arrays included) but
//! requests use nesting only for the `platform` object. The crate stays
//! dependency-free — any JSON tooling can produce and consume the stream.

use treesched_core::{MemDomain, Platform, ProcClass, SeqAlgo};

/// One parsed value of a JSON object.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    /// A JSON string, unescaped.
    Str(String),
    /// A JSON number, kept as its raw token so integers survive exactly.
    Num(String),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
    /// A nested object, key order preserved.
    Obj(Vec<(String, Value)>),
    /// A nested array.
    Arr(Vec<Value>),
}

/// Parses one line as a JSON object, preserving key order.
pub fn parse_object(line: &str) -> Result<Vec<(String, Value)>, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let pairs = p.object()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after the object"));
    }
    Ok(pairs)
}

/// Nesting bound for untrusted request lines: a `platform` object needs
/// depth 4; anything deeper is garbage, not a legal request.
const MAX_DEPTH: usize = 16;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, msg: &str) -> String {
        format!("{msg} at byte {}", self.pos)
    }

    fn object(&mut self) -> Result<Vec<(String, Value)>, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(pairs);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.next() {
                Some(b',') => continue,
                Some(b'}') => return Ok(pairs),
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn array(&mut self) -> Result<Vec<Value>, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(items);
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.next() {
                Some(b',') => continue,
                Some(b']') => return Ok(items),
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn next(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        if self.next() == Some(want) {
            Ok(())
        } else {
            self.pos = self.pos.saturating_sub(1);
            Err(self.err(&format!("expected `{}`", want as char)))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.next() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.next() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = self.hex4()?;
                        let code = match hex {
                            // high surrogate: JSON encodes astral-plane
                            // characters as a \uXXXX\uXXXX pair
                            0xd800..=0xdbff => {
                                if self.next() != Some(b'\\') || self.next() != Some(b'u') {
                                    return Err(self.err("unpaired \\u surrogate"));
                                }
                                let low = self.hex4()?;
                                if !(0xdc00..=0xdfff).contains(&low) {
                                    return Err(self.err("unpaired \\u surrogate"));
                                }
                                0x10000 + ((hex - 0xd800) << 10) + (low - 0xdc00)
                            }
                            0xdc00..=0xdfff => return Err(self.err("unpaired \\u surrogate")),
                            c => c,
                        };
                        out.push(char::from_u32(code).ok_or_else(|| self.err("bad \\u escape"))?);
                    }
                    _ => return Err(self.err("bad escape")),
                },
                Some(b) if b < 0x80 => out.push(b as char),
                Some(b) => {
                    // multi-byte UTF-8: copy the full sequence verbatim
                    let len = match b {
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let start = self.pos - 1;
                    let chunk = self
                        .bytes
                        .get(start..start + len)
                        .and_then(|c| std::str::from_utf8(c).ok())
                        .ok_or_else(|| self.err("invalid UTF-8"))?;
                    out.push_str(chunk);
                    self.pos = start + len;
                }
            }
        }
    }

    /// Reads the 4 hex digits of a `\u` escape.
    fn hex4(&mut self) -> Result<u32, String> {
        let hex = self
            .bytes
            .get(self.pos..self.pos + 4)
            .and_then(|h| std::str::from_utf8(h).ok())
            .and_then(|h| u32::from_str_radix(h, 16).ok())
            .ok_or_else(|| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(hex)
    }

    fn value(&mut self) -> Result<Value, String> {
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.string()?)),
            Some(b't') => self.literal("true", Value::Bool(true)),
            Some(b'f') => self.literal("false", Value::Bool(false)),
            Some(b'n') => self.literal("null", Value::Null),
            Some(b'{') => {
                self.descend()?;
                let obj = self.object()?;
                self.depth -= 1;
                Ok(Value::Obj(obj))
            }
            Some(b'[') => {
                self.descend()?;
                let arr = self.array()?;
                self.depth -= 1;
                Ok(Value::Arr(arr))
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.pos;
                while matches!(
                    self.peek(),
                    Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                ) {
                    self.pos += 1;
                }
                let raw = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
                raw.parse::<f64>()
                    .map_err(|_| self.err(&format!("bad number `{raw}`")))?;
                Ok(Value::Num(raw.to_string()))
            }
            _ => Err(self.err("expected a value")),
        }
    }

    fn descend(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_DEPTH {
            return Err(self.err("value nested too deeply"));
        }
        Ok(())
    }

    fn literal(&mut self, word: &str, value: Value) -> Result<Value, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err(&format!("expected `{word}`")))
        }
    }
}

/// Escapes `s` as the contents of a JSON string literal.
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Platform wire format
// ---------------------------------------------------------------------------

/// Renders `platform` as its wire object:
/// `{"classes":[{"count":..,"speed":..},..],"domains":[{"capacity":..,"classes":[..]},..],"comm":[..]}`
/// (`domains` omitted when empty; `comm` — the flattened domains×domains
/// transfer-cost matrix — omitted when absent or all-zero, so comm-free
/// platforms keep their historical byte-exact rendering).
/// [`platform_from_value`] parses it back.
pub fn platform_json(platform: &Platform) -> String {
    let mut s = String::from("{\"classes\":[");
    for (k, c) in platform.classes().iter().enumerate() {
        if k > 0 {
            s.push(',');
        }
        s.push_str(&format!("{{\"count\":{},\"speed\":{}}}", c.count, c.speed));
    }
    s.push(']');
    if !platform.domains().is_empty() {
        s.push_str(",\"domains\":[");
        for (k, d) in platform.domains().iter().enumerate() {
            if k > 0 {
                s.push(',');
            }
            let classes: Vec<String> = d.classes.iter().map(|c| c.to_string()).collect();
            s.push_str(&format!(
                "{{\"capacity\":{},\"classes\":[{}]}}",
                d.capacity,
                classes.join(",")
            ));
        }
        s.push(']');
    }
    if platform.has_comm() {
        let costs: Vec<String> = platform.comm().iter().map(|c| c.to_string()).collect();
        s.push_str(&format!(",\"comm\":[{}]", costs.join(",")));
    }
    s.push('}');
    s
}

fn num_field<T: std::str::FromStr>(v: &Value, what: &str) -> Result<T, String> {
    match v {
        Value::Num(raw) => raw
            .parse()
            .map_err(|_| format!("`{what}` must be a number of the right kind, got `{raw}`")),
        other => Err(format!("`{what}` must be a number, got {other:?}")),
    }
}

/// Parses a `platform` wire object (see [`platform_json`]) into a
/// [`Platform`]. Structural errors only — invariant checking (speeds,
/// domain shapes) stays with [`Platform::validate`] downstream.
pub fn platform_from_value(value: &Value) -> Result<Platform, String> {
    let Value::Obj(pairs) = value else {
        return Err(format!("`platform` must be an object, got {value:?}"));
    };
    let mut classes: Option<Vec<ProcClass>> = None;
    let mut domains: Vec<MemDomain> = Vec::new();
    let mut comm: Vec<f64> = Vec::new();
    for (key, v) in pairs {
        match (key.as_str(), v) {
            ("classes", Value::Arr(items)) => {
                let mut parsed = Vec::with_capacity(items.len());
                for item in items {
                    let Value::Obj(fields) = item else {
                        return Err(format!(
                            "each platform class must be an object, got {item:?}"
                        ));
                    };
                    let mut count: Option<u32> = None;
                    let mut speed = 1.0f64;
                    for (k, v) in fields {
                        match k.as_str() {
                            "count" => count = Some(num_field(v, "count")?),
                            "speed" => speed = num_field(v, "speed")?,
                            other => return Err(format!("unknown platform class key `{other}`")),
                        }
                    }
                    let count = count.ok_or("platform class needs a `count`")?;
                    parsed.push(ProcClass::new(count, speed));
                }
                classes = Some(parsed);
            }
            ("domains", Value::Arr(items)) => {
                for item in items {
                    let Value::Obj(fields) = item else {
                        return Err(format!(
                            "each platform domain must be an object, got {item:?}"
                        ));
                    };
                    let mut capacity: Option<f64> = None;
                    let mut members: Vec<usize> = Vec::new();
                    for (k, v) in fields {
                        match (k.as_str(), v) {
                            ("capacity", v) => capacity = Some(num_field(v, "capacity")?),
                            ("classes", Value::Arr(ids)) => {
                                for id in ids {
                                    members.push(num_field(id, "domain class index")?);
                                }
                            }
                            ("classes", v) => {
                                return Err(format!("domain `classes` must be an array, got {v:?}"))
                            }
                            (other, _) => {
                                return Err(format!("unknown platform domain key `{other}`"))
                            }
                        }
                    }
                    domains.push(MemDomain {
                        capacity: capacity.ok_or("platform domain needs a `capacity`")?,
                        classes: members,
                    });
                }
            }
            ("comm", Value::Arr(items)) => {
                for item in items {
                    comm.push(num_field(item, "comm cost")?);
                }
            }
            ("classes", v) => {
                return Err(format!("platform `classes` must be an array, got {v:?}"))
            }
            ("domains", v) => {
                return Err(format!("platform `domains` must be an array, got {v:?}"))
            }
            ("comm", v) => return Err(format!("platform `comm` must be an array, got {v:?}")),
            (other, _) => return Err(format!("unknown platform key `{other}`")),
        }
    }
    let classes = classes.ok_or("platform needs a `classes` array")?;
    let mut platform = Platform::heterogeneous(classes);
    for d in domains {
        platform = platform.with_domain(d.capacity, &d.classes);
    }
    if !comm.is_empty() {
        platform = platform.with_comm(comm);
    }
    Ok(platform)
}

// ---------------------------------------------------------------------------
// Request records
// ---------------------------------------------------------------------------

/// One parsed request line of the serving protocol.
#[derive(Clone, Debug, PartialEq)]
pub struct RequestRecord {
    /// Client tag echoed into the response (`id`, optional).
    pub id: Option<String>,
    /// Path to the tree file (`tree`, required).
    pub tree: String,
    /// Scheduler registry name or alias (`scheduler`, optional — the
    /// engine front-end supplies its default).
    pub scheduler: Option<String>,
    /// The requested platform, from the flat `processors`/`cap` fields or a
    /// nested `platform` object (not yet validated). `None` when the line
    /// carried neither — the front-end decides whether a default platform
    /// applies or the request is an error.
    pub platform: Option<Platform>,
    /// Sequential sub-algorithm (`seq`: `best|naive|liu`, optional).
    pub seq: Option<SeqAlgo>,
    /// Seed for randomized schedulers (`seed`, optional).
    pub seed: Option<u64>,
}

impl RequestRecord {
    /// Parses one request line. Unknown keys are rejected — silently
    /// ignoring a typo like `"processor"` would serve the wrong request.
    pub fn parse(line: &str) -> Result<RequestRecord, String> {
        let pairs = parse_object(line)?;
        let mut rec = RequestRecord {
            id: None,
            tree: String::new(),
            scheduler: None,
            platform: None,
            seq: None,
            seed: None,
        };
        let mut saw_tree = false;
        let mut processors: Option<u32> = None;
        let mut cap: Option<f64> = None;
        let mut explicit: Option<Platform> = None;
        for (key, value) in pairs {
            match (key.as_str(), value) {
                (_, Value::Null) => {} // explicit null == absent
                ("id", Value::Str(s)) => rec.id = Some(s),
                ("tree", Value::Str(s)) => {
                    rec.tree = s;
                    saw_tree = true;
                }
                ("scheduler", Value::Str(s)) => rec.scheduler = Some(s),
                ("processors", Value::Num(raw)) => {
                    processors = Some(raw.parse().map_err(|_| {
                        format!("`processors` must be a non-negative integer, got `{raw}`")
                    })?);
                }
                ("cap", Value::Num(raw)) => {
                    let c: f64 = raw.parse().expect("validated by the parser");
                    if !c.is_finite() {
                        return Err(format!("`cap` must be finite, got `{raw}`"));
                    }
                    cap = Some(c);
                }
                ("platform", v @ Value::Obj(_)) => explicit = Some(platform_from_value(&v)?),
                ("seq", Value::Str(s)) => {
                    rec.seq = Some(
                        SeqAlgo::by_name(&s)
                            .ok_or_else(|| format!("unknown `seq` algorithm `{s}`"))?,
                    );
                }
                ("seed", Value::Num(raw)) => {
                    rec.seed = Some(raw.parse().map_err(|_| {
                        format!("`seed` must be a non-negative integer, got `{raw}`")
                    })?);
                }
                (k @ ("id" | "tree" | "scheduler" | "seq"), v) => {
                    return Err(format!("`{k}` must be a string, got {v:?}"))
                }
                (k @ ("processors" | "cap" | "seed"), v) => {
                    return Err(format!("`{k}` must be a number, got {v:?}"))
                }
                ("platform", v) => return Err(format!("`platform` must be an object, got {v:?}")),
                (k, _) => return Err(format!("unknown request key `{k}`")),
            }
        }
        if !saw_tree {
            return Err("request needs a `tree` path".into());
        }
        rec.platform = match (explicit, processors, cap) {
            (Some(_), Some(_), _) | (Some(_), _, Some(_)) => {
                return Err("`platform` cannot be combined with `processors`/`cap`".into())
            }
            (Some(platform), None, None) => Some(platform),
            (None, Some(processors), None) => Some(Platform::new(processors)),
            (None, Some(processors), Some(cap)) => {
                Some(Platform::new(processors).with_memory_cap(cap))
            }
            (None, None, Some(_)) => return Err("`cap` needs `processors`".into()),
            (None, None, None) => None,
        };
        Ok(rec)
    }

    /// Renders the record back to its canonical one-line JSON form
    /// (optional absent fields omitted). A flat platform without transfer
    /// costs renders as the legacy `processors`/`cap` fields, as in
    /// [`ScheduleRecord`], byte-compatible with pre-platform streams; any
    /// other platform as the nested `platform` object.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        if let Some(id) = &self.id {
            s.push_str(&format!("\"id\":\"{}\",", escape(id)));
        }
        s.push_str(&format!("\"tree\":\"{}\"", escape(&self.tree)));
        if let Some(name) = &self.scheduler {
            s.push_str(&format!(",\"scheduler\":\"{}\"", escape(name)));
        }
        match &self.platform {
            Some(platform) if platform.is_flat() && !platform.has_comm() => {
                s.push_str(&format!(",\"processors\":{}", platform.processors()));
                if let Some(cap) = platform.memory_cap() {
                    s.push_str(&format!(",\"cap\":{cap}"));
                }
            }
            Some(platform) => {
                s.push_str(&format!(",\"platform\":{}", platform_json(platform)));
            }
            None => {}
        }
        if let Some(seq) = self.seq {
            s.push_str(&format!(",\"seq\":\"{}\"", seq.name()));
        }
        if let Some(seed) = self.seed {
            s.push_str(&format!(",\"seed\":{seed}"));
        }
        s.push('}');
        s
    }
}

// ---------------------------------------------------------------------------
// Record builder
// ---------------------------------------------------------------------------

/// Builder for the machine-readable one-line JSON records every `--json`
/// surface shares: fixed key order (insertion order), numbers in Rust
/// `Display` form, absent values as explicit `null`. The schedule record,
/// the serving responses, and the bench summaries are all built through
/// this, so their field conventions cannot drift apart.
#[derive(Clone, Debug, Default)]
pub struct JsonRecord {
    buf: String,
}

impl JsonRecord {
    /// An empty record (`{}` if finished immediately).
    pub fn new() -> JsonRecord {
        JsonRecord::default()
    }

    fn push_key(&mut self, key: &str) {
        if !self.buf.is_empty() {
            self.buf.push(',');
        }
        self.buf.push('"');
        self.buf.push_str(&escape(key));
        self.buf.push_str("\":");
    }

    /// Appends a string field (escaped).
    pub fn str(mut self, key: &str, value: &str) -> JsonRecord {
        self.push_key(key);
        self.buf.push('"');
        self.buf.push_str(&escape(value));
        self.buf.push('"');
        self
    }

    /// Appends a number field in Rust `Display` form.
    pub fn num(mut self, key: &str, value: f64) -> JsonRecord {
        self.push_key(key);
        self.buf.push_str(&value.to_string());
        self
    }

    /// Appends an integer field.
    pub fn int(mut self, key: &str, value: u64) -> JsonRecord {
        self.push_key(key);
        self.buf.push_str(&value.to_string());
        self
    }

    /// Appends an optional number: the value, or `null`.
    pub fn opt_num(self, key: &str, value: Option<f64>) -> JsonRecord {
        match value {
            Some(v) => self.num(key, v),
            None => self.null(key),
        }
    }

    /// Appends an optional integer: the value, or `null`.
    pub fn opt_int(self, key: &str, value: Option<u64>) -> JsonRecord {
        match value {
            Some(v) => self.int(key, v),
            None => self.null(key),
        }
    }

    /// Appends an explicit `null` field.
    pub fn null(mut self, key: &str) -> JsonRecord {
        self.push_key(key);
        self.buf.push_str("null");
        self
    }

    /// Appends a pre-rendered JSON value verbatim (nested objects/arrays).
    pub fn raw(mut self, key: &str, rendered: &str) -> JsonRecord {
        self.push_key(key);
        self.buf.push_str(rendered);
        self
    }

    /// Appends an array of numbers in `Display` form.
    pub fn num_array(self, key: &str, values: &[f64]) -> JsonRecord {
        let items: Vec<String> = values.iter().map(|v| v.to_string()).collect();
        self.raw(key, &format!("[{}]", items.join(",")))
    }

    /// Closes the record: `{...}` with no trailing newline (embeddable as a
    /// nested value via [`JsonRecord::raw`]).
    pub fn render(self) -> String {
        format!("{{{}}}", self.buf)
    }

    /// Closes the record as one output line: `{...}\n`.
    pub fn line(self) -> String {
        format!("{{{}}}\n", self.buf)
    }
}

// ---------------------------------------------------------------------------
// Response records
// ---------------------------------------------------------------------------

/// The stable machine-readable record shared by `schedule --json` and the
/// serving protocol, rendered through [`JsonRecord`].
///
/// Flat platforms (the paper's `p`-identical-processors machine) render
/// byte-identically to the pre-platform protocol. Non-flat platforms add a
/// `platform` object right after `processors` and, when the platform
/// declares memory domains, a trailing `domain_peaks` array.
#[derive(Clone, Debug)]
pub struct ScheduleRecord<'a> {
    /// Canonical scheduler name.
    pub scheduler: &'a str,
    /// The platform the schedule was built for.
    pub platform: &'a Platform,
    /// Number of tasks of the tree.
    pub tasks: usize,
    /// Achieved makespan.
    pub makespan: f64,
    /// Makespan lower bound of the scenario.
    pub makespan_lower_bound: f64,
    /// Achieved platform-global peak memory.
    pub peak_memory: f64,
    /// Sequential memory reference of the tree.
    pub memory_reference: f64,
    /// Forced cap admissions (memory-capped schedulers only).
    pub cap_violations: Option<usize>,
    /// Peak memory per platform domain (empty for flat platforms).
    pub domain_peaks: &'a [f64],
}

impl ScheduleRecord<'_> {
    /// Appends the record's fields to a partially built [`JsonRecord`] —
    /// the hook campaign records use to prefix scenario coordinates
    /// (campaign name, tree, platform point) while keeping the schedule
    /// fields byte-identical to `schedule --json` and the serve responses.
    pub fn embed(&self, rec: JsonRecord) -> JsonRecord {
        self.fields(rec)
    }

    fn fields(&self, rec: JsonRecord) -> JsonRecord {
        let mut rec = rec
            .str("scheduler", self.scheduler)
            .int("processors", u64::from(self.platform.processors()));
        if !self.platform.is_flat() {
            rec = rec.raw("platform", &platform_json(self.platform));
        }
        rec = rec
            .int("tasks", self.tasks as u64)
            .num("makespan", self.makespan)
            .num("makespan_lower_bound", self.makespan_lower_bound)
            .num("peak_memory", self.peak_memory)
            .num("memory_reference", self.memory_reference)
            .opt_num("cap", self.platform.memory_cap())
            .opt_int("cap_violations", self.cap_violations.map(|v| v as u64));
        if !self.domain_peaks.is_empty() {
            rec = rec.num_array("domain_peaks", self.domain_peaks);
        }
        rec
    }

    /// The `schedule --json` output line.
    pub fn to_json(&self) -> String {
        self.fields(JsonRecord::new()).line()
    }

    /// The serving response line: the same record prefixed with the echoed
    /// request `id` (or `null`).
    pub fn response_json(&self, id: Option<&str>) -> String {
        let rec = match id {
            Some(id) => JsonRecord::new().str("id", id),
            None => JsonRecord::new().null("id"),
        };
        self.fields(rec).line()
    }
}

/// A serving failure response: the echoed `id` plus the typed error's
/// message.
pub fn error_json(id: Option<&str>, error: &str) -> String {
    let rec = match id {
        Some(id) => JsonRecord::new().str("id", id),
        None => JsonRecord::new().null("id"),
    };
    rec.str("error", error).line()
}

/// The failure response for a request line the JSONL parser rejected.
///
/// There is no `id` to echo (the line did not parse), so the record
/// carries the typed [`treesched_core::SchedError::MalformedRequest`]
/// message plus the 1-based input line number as a machine-readable
/// `line` field — a client can map the record back to the offending
/// line without counting responses.
pub fn malformed_json(line: usize, reason: &str) -> String {
    let err = treesched_core::SchedError::MalformedRequest {
        line,
        reason: reason.to_string(),
    };
    JsonRecord::new()
        .null("id")
        .str("error", &err.to_string())
        .int("line", line as u64)
        .line()
}

/// Renders one [`crate::ServeResult`] as its response line.
pub fn result_json(result: &crate::ServeResult) -> String {
    match &result.outcome {
        Ok(out) => ScheduleRecord {
            scheduler: &result.scheduler,
            platform: &result.platform,
            tasks: result.tasks,
            makespan: out.outcome.eval.makespan,
            makespan_lower_bound: out.ms_lb,
            peak_memory: out.outcome.eval.peak_memory,
            memory_reference: out.mem_ref,
            cap_violations: out.outcome.diagnostics.cap_violations,
            domain_peaks: &out.outcome.domain_peaks,
        }
        .response_json(result.id.as_deref()),
        Err(e) => error_json(result.id.as_deref(), &e.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_flat_objects() {
        let pairs = parse_object(
            r#" {"id":"a\"b", "processors": 4, "cap": 1.5e3, "ok": true, "none": null} "#,
        )
        .unwrap();
        assert_eq!(
            pairs,
            vec![
                ("id".into(), Value::Str("a\"b".into())),
                ("processors".into(), Value::Num("4".into())),
                ("cap".into(), Value::Num("1.5e3".into())),
                ("ok".into(), Value::Bool(true)),
                ("none".into(), Value::Null),
            ]
        );
        assert_eq!(parse_object("{}").unwrap(), vec![]);
    }

    #[test]
    fn parser_rejects_malformed_input() {
        for bad in [
            "",
            "[1]",
            "{",
            "{\"a\":}",
            "{\"a\":1,}",
            "{\"a\":1} trailing",
            "{\"a\":{\"nested\":}}",
            "{\"a\":[1,]}",
            "{\"a\":[1}",
            "{\"a\":{\"b\":1]}",
            "{\"a\":1e}",
            "{\"a\":\"unterminated}",
            "{'a':1}",
        ] {
            assert!(parse_object(bad).is_err(), "accepted {bad:?}");
        }
        // runaway nesting is bounded, not stack-overflowed
        let deep = format!("{{\"a\":{}1{}}}", "[".repeat(100), "]".repeat(100));
        let err = parse_object(&deep).unwrap_err();
        assert!(err.contains("nested too deeply"), "{err}");
    }

    #[test]
    fn parser_handles_nested_objects_and_arrays() {
        let pairs = parse_object(r#"{"a":{"b":[1,2,{"c":"x"}],"d":{}},"e":[]}"#).unwrap();
        assert_eq!(
            pairs,
            vec![
                (
                    "a".into(),
                    Value::Obj(vec![
                        (
                            "b".into(),
                            Value::Arr(vec![
                                Value::Num("1".into()),
                                Value::Num("2".into()),
                                Value::Obj(vec![("c".into(), Value::Str("x".into()))]),
                            ])
                        ),
                        ("d".into(), Value::Obj(vec![])),
                    ])
                ),
                ("e".into(), Value::Arr(vec![])),
            ]
        );
    }

    #[test]
    fn strings_round_trip_escapes_and_utf8() {
        let original = "tabs\t quotes\" backslash\\ newline\n héllo ∞";
        let line = format!("{{\"id\":\"{}\"}}", escape(original));
        let pairs = parse_object(&line).unwrap();
        assert_eq!(pairs[0].1, Value::Str(original.to_string()));
        // \u escapes decode too
        let pairs = parse_object(r#"{"id":"éA"}"#).unwrap();
        assert_eq!(pairs[0].1, Value::Str("éA".to_string()));
    }

    #[test]
    fn surrogate_pairs_decode_like_any_json_encoder_emits_them() {
        // Python's json.dumps (default ensure_ascii=True) writes astral
        // characters as surrogate pairs; the protocol must accept them
        let pairs = parse_object(r#"{"id":"\ud83d\ude00 ok"}"#).unwrap();
        assert_eq!(pairs[0].1, Value::Str("\u{1f600} ok".to_string()));
        for bad in [
            r#"{"id":"\ud83d"}"#,  // lone high surrogate
            r#"{"id":"\ud83dx"}"#, // high surrogate, no escape next
            r#"{"id":"\ud83dA"}"#, // high surrogate, non-low next
            r#"{"id":"\ude00"}"#,  // lone low surrogate
        ] {
            let err = parse_object(bad).unwrap_err();
            assert!(err.contains("surrogate"), "{bad}: {err}");
        }
    }

    #[test]
    fn request_records_parse_and_round_trip() {
        let rec = RequestRecord::parse(
            r#"{"id":"r1","tree":"x.tree","scheduler":"deepest","processors":4,"cap":100,"seq":"liu","seed":7}"#,
        )
        .unwrap();
        assert_eq!(rec.id.as_deref(), Some("r1"));
        assert_eq!(rec.tree, "x.tree");
        assert_eq!(rec.scheduler.as_deref(), Some("deepest"));
        assert_eq!(rec.platform, Some(Platform::new(4).with_memory_cap(100.0)));
        assert_eq!(rec.seq, Some(SeqAlgo::LiuExact));
        assert_eq!(rec.seed, Some(7));
        assert_eq!(RequestRecord::parse(&rec.to_json()).unwrap(), rec);

        // minimal record: only tree + processors
        let rec = RequestRecord::parse(r#"{"tree":"x.tree","processors":2}"#).unwrap();
        assert_eq!(rec.scheduler, None);
        assert_eq!(RequestRecord::parse(&rec.to_json()).unwrap(), rec);

        // platform-less record: the front-end decides
        let rec = RequestRecord::parse(r#"{"tree":"x.tree"}"#).unwrap();
        assert_eq!(rec.platform, None);
        assert_eq!(RequestRecord::parse(&rec.to_json()).unwrap(), rec);
    }

    #[test]
    fn request_records_parse_platform_objects() {
        let line = r#"{"id":"h","tree":"x.tree","platform":{"classes":[{"count":2,"speed":2},{"count":2,"speed":1}],"domains":[{"capacity":64,"classes":[0]},{"capacity":32,"classes":[1]}]}}"#;
        let rec = RequestRecord::parse(line).unwrap();
        let expected =
            Platform::heterogeneous(vec![ProcClass::new(2, 2.0), ProcClass::new(2, 1.0)])
                .with_domain(64.0, &[0])
                .with_domain(32.0, &[1]);
        assert_eq!(rec.platform, Some(expected));
        // canonical rendering round-trips through the parser
        assert_eq!(RequestRecord::parse(&rec.to_json()).unwrap(), rec);
        // speed defaults to 1.0; domains are optional
        let rec = RequestRecord::parse(r#"{"tree":"x.tree","platform":{"classes":[{"count":3}]}}"#)
            .unwrap();
        assert_eq!(rec.platform, Some(Platform::new(3)));
        // a flat platform object renders as the legacy flat fields
        assert_eq!(rec.to_json(), r#"{"tree":"x.tree","processors":3}"#);
        let rec = RequestRecord::parse(
            r#"{"tree":"x.tree","platform":{"classes":[{"count":2}],"domains":[{"capacity":8,"classes":[0]}]}}"#,
        )
        .unwrap();
        assert_eq!(rec.to_json(), r#"{"tree":"x.tree","processors":2,"cap":8}"#);
        assert_eq!(RequestRecord::parse(&rec.to_json()).unwrap(), rec);
    }

    #[test]
    fn platform_json_round_trips() {
        for platform in [
            Platform::new(4),
            Platform::new(2).with_memory_cap(12.5),
            Platform::heterogeneous(vec![ProcClass::new(2, 2.0), ProcClass::new(2, 1.0)]),
            Platform::heterogeneous(vec![ProcClass::new(1, 1.5), ProcClass::new(3, 0.5)])
                .with_domain(100.0, &[0, 1]),
            Platform::heterogeneous(vec![ProcClass::new(2, 2.0), ProcClass::new(2, 1.0)])
                .with_domain(64.0, &[0])
                .with_domain(32.0, &[1]),
            Platform::heterogeneous(vec![ProcClass::new(2, 2.0), ProcClass::new(2, 1.0)])
                .with_domain(64.0, &[0])
                .with_domain(32.0, &[1])
                .with_comm(vec![0.0, 2.0, 2.0, 0.0]),
        ] {
            let rendered = platform_json(&platform);
            let pairs = parse_object(&format!("{{\"platform\":{rendered}}}")).unwrap();
            let parsed = platform_from_value(&pairs[0].1).unwrap();
            assert_eq!(parsed, platform, "{rendered}");
        }
        // the comm matrix is echoed only when it carries a non-zero cost, so
        // comm-free platforms keep their historical byte rendering
        let bare = Platform::heterogeneous(vec![ProcClass::new(1, 1.0), ProcClass::new(1, 1.0)])
            .with_domain(8.0, &[0])
            .with_domain(8.0, &[1]);
        assert_eq!(
            platform_json(&bare.clone().with_comm(vec![0.0; 4])),
            platform_json(&bare)
        );
        assert!(
            platform_json(&bare.clone().with_comm(vec![0.0, 0.5, 0.5, 0.0]))
                .ends_with(",\"comm\":[0,0.5,0.5,0]}")
        );
    }

    #[test]
    fn request_records_reject_bad_fields() {
        for (line, needle) in [
            (r#"{"processors":2}"#, "tree"),
            (r#"{"tree":"x","cap":5}"#, "needs `processors`"),
            (r#"{"tree":"x","processors":2.5}"#, "integer"),
            (r#"{"tree":"x","processors":2,"seq":"fast"}"#, "seq"),
            (r#"{"tree":"x","processors":2,"seed":-1}"#, "seed"),
            (r#"{"tree":"x","processors":2,"bogus":1}"#, "bogus"),
            (r#"{"tree":1,"processors":2}"#, "string"),
            (r#"{"tree":"x","processors":"two"}"#, "number"),
            (r#"{"tree":"x","platform":3}"#, "object"),
            (r#"{"tree":"x","platform":{"domains":[]}}"#, "classes"),
            (
                r#"{"tree":"x","platform":{"classes":[{"speed":2}]}}"#,
                "count",
            ),
            (
                r#"{"tree":"x","platform":{"classes":[{"count":2,"warp":9}]}}"#,
                "warp",
            ),
            (
                r#"{"tree":"x","platform":{"classes":[{"count":2}],"domains":[{"classes":[0]}]}}"#,
                "capacity",
            ),
            (
                r#"{"tree":"x","platform":{"classes":[{"count":2}],"comm":5}}"#,
                "array",
            ),
            (
                r#"{"tree":"x","platform":{"classes":[{"count":2}],"comm":["a"]}}"#,
                "comm cost",
            ),
            (
                r#"{"tree":"x","processors":2,"platform":{"classes":[{"count":2}]}}"#,
                "cannot be combined",
            ),
        ] {
            let err = RequestRecord::parse(line).unwrap_err();
            assert!(err.contains(needle), "{line}: {err}");
        }
        // explicit nulls are the same as absent fields
        let rec =
            RequestRecord::parse(r#"{"id":null,"tree":"x","processors":2,"cap":null}"#).unwrap();
        assert_eq!(rec.id, None);
        assert_eq!(rec.platform, Some(Platform::new(2)));
    }

    fn sample_record<'a>(platform: &'a Platform, peaks: &'a [f64]) -> ScheduleRecord<'a> {
        ScheduleRecord {
            scheduler: "ParSubtrees",
            platform,
            tasks: 7,
            makespan: 8.0,
            makespan_lower_bound: 7.5,
            peak_memory: 12.0,
            memory_reference: 9.0,
            cap_violations: None,
            domain_peaks: peaks,
        }
    }

    #[test]
    fn response_records_share_the_schedule_json_shape() {
        let flat = Platform::new(2);
        let base = sample_record(&flat, &[]).to_json();
        assert_eq!(
            base,
            "{\"scheduler\":\"ParSubtrees\",\"processors\":2,\"tasks\":7,\
             \"makespan\":8,\"makespan_lower_bound\":7.5,\
             \"peak_memory\":12,\"memory_reference\":9,\
             \"cap\":null,\"cap_violations\":null}\n"
        );
        let capped = Platform::new(2).with_memory_cap(20.0);
        let mut rec = sample_record(&capped, &[]);
        rec.cap_violations = Some(0);
        let tagged = rec.response_json(Some("r1"));
        assert!(tagged.starts_with("{\"id\":\"r1\","));
        assert!(tagged.contains("\"cap\":20,\"cap_violations\":0"));
        // every response line is itself a valid JSON object
        assert!(parse_object(tagged.trim_end()).is_ok());
        assert_eq!(
            error_json(None, "unknown scheduler `x`"),
            "{\"id\":null,\"error\":\"unknown scheduler `x`\"}\n"
        );
    }

    #[test]
    fn heterogeneous_records_add_platform_and_domain_peaks() {
        let het = Platform::heterogeneous(vec![ProcClass::new(2, 2.0), ProcClass::new(2, 1.0)])
            .with_domain(64.0, &[0])
            .with_domain(32.0, &[1]);
        let peaks = [10.0, 6.5];
        let line = sample_record(&het, &peaks).to_json();
        assert!(
            line.contains("\"processors\":4,\"platform\":{\"classes\":[{\"count\":2,\"speed\":2},{\"count\":2,\"speed\":1}],\"domains\":[{\"capacity\":64,\"classes\":[0]},{\"capacity\":32,\"classes\":[1]}]},\"tasks\":7"),
            "{line}"
        );
        // two domains that do not jointly act as one shared cap: cap null
        assert!(line.contains("\"cap\":null"), "{line}");
        assert!(
            line.trim_end().ends_with("\"domain_peaks\":[10,6.5]}"),
            "{line}"
        );
        // the heterogeneous response still parses as one JSON object
        assert!(parse_object(line.trim_end()).is_ok());
    }

    #[test]
    fn json_record_builder_escapes_and_nests() {
        let line = JsonRecord::new()
            .str("name", "a\"b")
            .int("n", 3)
            .num("x", 1.5)
            .opt_num("missing", None)
            .num_array("xs", &[1.0, 2.5])
            .raw("nested", "{\"k\":1}")
            .line();
        assert_eq!(
            line,
            "{\"name\":\"a\\\"b\",\"n\":3,\"x\":1.5,\"missing\":null,\
             \"xs\":[1,2.5],\"nested\":{\"k\":1}}\n"
        );
        assert!(parse_object(line.trim_end()).is_ok());
        assert_eq!(JsonRecord::new().render(), "{}");
    }
}
