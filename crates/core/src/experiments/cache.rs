//! Persistent on-disk run cache.
//!
//! Each simulated run is written as one JSON file named after its
//! [`RunKey`](super::RunKey) plus a configuration fingerprint, so
//! `all_figures`, the per-figure binaries, and the test suite share
//! results across processes instead of redoing each other's simulations.
//!
//! * `GRAPHPIM_CACHE_DIR` overrides the cache directory (default:
//!   `<tmpdir>/graphpim-run-cache`).
//! * `GRAPHPIM_NO_CACHE` disables the disk cache entirely.
//!
//! Entries are invalidated by fingerprint: the hash covers the full
//! [`SystemConfig`](crate::config::SystemConfig) of the run, the graph
//! generator inputs, and [`SCHEMA_VERSION`]. **Bump [`SCHEMA_VERSION`]
//! whenever simulator timing or metric semantics change** — that is what
//! retires stale entries written by older code.
//!
//! Serialization is hand-rolled JSON (the vendored `serde` is a no-op
//! stand-in; see `vendor/README.md`). Floats are written with Rust's
//! shortest round-trip formatting and integers as exact decimal, so a
//! cache hit is bit-identical to the run that produced it.

use super::RunKey;
use crate::metrics::RunMetrics;
use graphpim_sim::cpu::CoreStats;
use graphpim_sim::hmc::HmcStats;
use graphpim_sim::mem::hierarchy::LevelCounts;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Cache format + simulator-behavior version. Bump on any change to the
/// timing models, metric definitions, or this file format.
///
/// v2: `HmcStats` gained `atomics_by_category`.
/// v3: `RunMetrics` gained `trace_export_failed`.
/// v4: `HmcStats` gained `requests_per_vault`; `RunMetrics` gained
///     `uncached_atomics` (validation-layer conservation counters).
/// v5: pluggable memory backends (`SimConfig` gained `backend`); the POU
///     hybrid split quantizes per-100k with `floor` instead of per-mille
///     with `round`, changing which property lines land in the PMR for
///     interior fractions.
pub const SCHEMA_VERSION: u32 = 5;

pub use crate::fingerprint::fingerprint;

/// Result of a [`DiskCache::lookup`].
#[derive(Debug, Clone)]
pub enum Lookup {
    /// A valid entry for this (key, fingerprint) pair. Boxed: `Hit` is
    /// ~400 bytes while the other variants are empty.
    Hit(Box<RunMetrics>),
    /// An entry for this run exists but is unusable: written under a
    /// different fingerprint (config/env/schema change) or unparseable.
    Stale,
    /// Never cached.
    Miss,
}

/// A directory of cached [`RunMetrics`], one JSON file per
/// (key, fingerprint) pair. All operations are best-effort: I/O errors
/// degrade to cache misses / skipped writes, never to wrong results.
#[derive(Debug, Clone)]
pub struct DiskCache {
    dir: PathBuf,
}

impl DiskCache {
    /// The cache selected by the environment, or `None` when
    /// `GRAPHPIM_NO_CACHE` is set.
    pub fn from_env() -> Option<DiskCache> {
        if std::env::var_os("GRAPHPIM_NO_CACHE").is_some() {
            return None;
        }
        let dir = std::env::var_os("GRAPHPIM_CACHE_DIR")
            .map(PathBuf::from)
            .unwrap_or_else(|| std::env::temp_dir().join("graphpim-run-cache"));
        Some(DiskCache::at(dir))
    }

    /// A cache rooted at `dir` (created lazily on first store).
    pub fn at(dir: impl Into<PathBuf>) -> DiskCache {
        DiskCache { dir: dir.into() }
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Loads the metrics cached for `key` under `fingerprint`, if any.
    pub fn load(&self, key: &RunKey, fingerprint: u64) -> Option<RunMetrics> {
        match self.lookup(key, fingerprint) {
            Lookup::Hit(metrics) => Some(*metrics),
            Lookup::Stale | Lookup::Miss => None,
        }
    }

    /// Like [`DiskCache::load`], but distinguishes a genuinely absent
    /// entry from a stale one (present but written under a different
    /// fingerprint or an older schema) — the engine profiler reports the
    /// two separately.
    pub fn lookup(&self, key: &RunKey, fingerprint: u64) -> Lookup {
        match std::fs::read_to_string(self.path(key, fingerprint)) {
            Ok(text) => match json::parse(&text).and_then(|v| metrics_from_json(&v, key)) {
                Some(metrics) => Lookup::Hit(Box::new(metrics)),
                // The exact file exists but no longer parses: written by
                // an older schema, or corrupt.
                None => Lookup::Stale,
            },
            Err(_) => {
                if self.has_sibling_entry(&key.file_stem()) {
                    // Same run, different fingerprint: a config or schema
                    // change invalidated what we had.
                    Lookup::Stale
                } else {
                    Lookup::Miss
                }
            }
        }
    }

    /// Whether any `{stem}-{16-hex-fingerprint}.json` entry exists.
    /// Strict about the suffix shape so `dc-...-bw10` never matches a
    /// `dc-...-bw10-plain` entry.
    fn has_sibling_entry(&self, stem: &str) -> bool {
        let Ok(entries) = std::fs::read_dir(&self.dir) else {
            return false;
        };
        entries.filter_map(|e| e.ok()).any(|entry| {
            entry
                .file_name()
                .to_str()
                .and_then(|name| name.strip_prefix(stem))
                .and_then(|rest| rest.strip_prefix('-'))
                .and_then(|rest| rest.strip_suffix(".json"))
                .is_some_and(|fp| fp.len() == 16 && fp.bytes().all(|b| b.is_ascii_hexdigit()))
        })
    }

    /// Stores `metrics` for `key` under `fingerprint`. Atomic: written to
    /// a unique temp file, then renamed, so concurrent writers (threads
    /// or processes) never expose a torn entry.
    ///
    /// A store failure degrades (the result is simply recomputed next
    /// run) but warns once per (site, cache dir), so an unwritable
    /// cache dir does not silently turn every future sweep cold — and
    /// a second cache rooted elsewhere still gets its own warning.
    pub fn store(&self, key: &RunKey, fingerprint: u64, metrics: &RunMetrics) {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let warn = |what: &str, e: &std::io::Error| {
            crate::obs::warn_once(
                &format!("run-cache.{what}:{}", self.dir.display()),
                "run-cache",
                &format!(
                    "cannot {what}; results will not persist (further store errors suppressed)"
                ),
                &[("path", &self.dir.display()), ("error", &e)],
            );
        };
        if let Err(e) = std::fs::create_dir_all(&self.dir) {
            warn("create the cache directory", &e);
            return;
        }
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        match std::fs::write(&tmp, metrics_to_json(key, metrics)) {
            Err(e) => warn("write a cache entry", &e),
            Ok(()) => {
                if let Err(e) = std::fs::rename(&tmp, self.path(key, fingerprint)) {
                    warn("publish a cache entry", &e);
                    let _ = std::fs::remove_file(&tmp);
                }
            }
        }
    }

    fn path(&self, key: &RunKey, fingerprint: u64) -> PathBuf {
        self.dir
            .join(format!("{}-{fingerprint:016x}.json", key.file_stem()))
    }
}

/// Renders `metrics` exactly as the cache stores them for `key` — byte
/// for byte the document a cache entry holds on disk. Exposed so the
/// experiment service's `/counters/{run-key}` endpoint serves run
/// counters through the one serialization code path.
pub fn metrics_json(key: &RunKey, metrics: &RunMetrics) -> String {
    metrics_to_json(key, metrics)
}

fn metrics_to_json(key: &RunKey, m: &RunMetrics) -> String {
    let mut s = String::with_capacity(1024);
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": {},", SCHEMA_VERSION);
    let _ = writeln!(s, "  \"key\": \"{}\",", key.file_stem());
    let _ = writeln!(s, "  \"mode\": \"{}\",", m.mode.label());
    let _ = writeln!(s, "  \"cores\": {},", m.cores);
    let _ = writeln!(s, "  \"issue_width\": {},", m.issue_width);
    let _ = writeln!(s, "  \"total_cycles\": {:?},", m.total_cycles);
    let _ = writeln!(
        s,
        "  \"core\": {{\"instructions\": {}, \"memory_ops\": {}, \"host_atomics\": {}, \
         \"pim_atomics\": {}, \"branches\": {}, \"mispredicts\": {}, \
         \"frontend_cycles\": {:?}, \"badspec_cycles\": {:?}, \
         \"atomic_incore_cycles\": {:?}, \"atomic_incache_cycles\": {:?}}},",
        m.core.instructions,
        m.core.memory_ops,
        m.core.host_atomics,
        m.core.pim_atomics,
        m.core.branches,
        m.core.mispredicts,
        m.core.frontend_cycles,
        m.core.badspec_cycles,
        m.core.atomic_incore_cycles,
        m.core.atomic_incache_cycles,
    );
    for (name, level) in [("l1", &m.l1), ("l2", &m.l2), ("l3", &m.l3)] {
        let _ = writeln!(
            s,
            "  \"{name}\": {{\"hits\": {}, \"misses\": {}}},",
            level.hits, level.misses
        );
    }
    let vaults: Vec<String> = m.hmc.atomics_per_vault.iter().map(u64::to_string).collect();
    let vault_requests: Vec<String> = m
        .hmc
        .requests_per_vault
        .iter()
        .map(u64::to_string)
        .collect();
    let _ = writeln!(
        s,
        "  \"hmc\": {{\"request_flits_read\": {}, \"request_flits_write\": {}, \
         \"request_flits_atomic\": {}, \"response_flits_read\": {}, \
         \"response_flits_write\": {}, \"response_flits_atomic\": {}, \
         \"reads\": {}, \"writes\": {}, \"atomics\": {}, \"fp_atomics\": {}, \
         \"bank_wait_cycles\": {:?}, \"bank_wait_max\": {:?}, \"bank_wait_long\": {}, \
         \"fu_wait_cycles\": {:?}, \"fu_busy_cycles\": {:?}, \
         \"dram_activations\": {}, \"dram_accesses\": {}, \
         \"requests_per_vault\": [{}], \
         \"atomics_per_vault\": [{}], \"atomics_by_category\": [{}]}},",
        m.hmc.request_flits_read,
        m.hmc.request_flits_write,
        m.hmc.request_flits_atomic,
        m.hmc.response_flits_read,
        m.hmc.response_flits_write,
        m.hmc.response_flits_atomic,
        m.hmc.reads,
        m.hmc.writes,
        m.hmc.atomics,
        m.hmc.fp_atomics,
        m.hmc.bank_wait_cycles,
        m.hmc.bank_wait_max,
        m.hmc.bank_wait_long,
        m.hmc.fu_wait_cycles,
        m.hmc.fu_busy_cycles,
        m.hmc.dram_activations,
        m.hmc.dram_accesses,
        vault_requests.join(", "),
        vaults.join(", "),
        m.hmc
            .atomics_by_category
            .iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(", "),
    );
    let _ = writeln!(s, "  \"offload_candidates\": {},", m.offload_candidates);
    let _ = writeln!(s, "  \"candidate_cache_hits\": {},", m.candidate_cache_hits);
    let _ = writeln!(s, "  \"offloaded_atomics\": {},", m.offloaded_atomics);
    let _ = writeln!(s, "  \"host_pei_atomics\": {},", m.host_pei_atomics);
    let _ = writeln!(s, "  \"uncached_reads\": {},", m.uncached_reads);
    let _ = writeln!(s, "  \"uncached_writes\": {},", m.uncached_writes);
    let _ = writeln!(s, "  \"uncached_atomics\": {},", m.uncached_atomics);
    let _ = writeln!(
        s,
        "  \"memory_service_cycles\": {:?},",
        m.memory_service_cycles
    );
    let _ = writeln!(s, "  \"trace_export_failed\": {}", m.trace_export_failed);
    s.push_str("}\n");
    s
}

fn metrics_from_json(value: &json::Value, key: &RunKey) -> Option<RunMetrics> {
    let top = value.as_object()?;
    if top.get("schema")?.as_u64()? != SCHEMA_VERSION as u64 {
        return None;
    }
    if top.get("mode")?.as_str()? != key.mode.label() {
        return None;
    }
    let core = {
        let o = top.get("core")?.as_object()?;
        CoreStats {
            instructions: o.get("instructions")?.as_u64()?,
            memory_ops: o.get("memory_ops")?.as_u64()?,
            host_atomics: o.get("host_atomics")?.as_u64()?,
            pim_atomics: o.get("pim_atomics")?.as_u64()?,
            branches: o.get("branches")?.as_u64()?,
            mispredicts: o.get("mispredicts")?.as_u64()?,
            frontend_cycles: o.get("frontend_cycles")?.as_f64()?,
            badspec_cycles: o.get("badspec_cycles")?.as_f64()?,
            atomic_incore_cycles: o.get("atomic_incore_cycles")?.as_f64()?,
            atomic_incache_cycles: o.get("atomic_incache_cycles")?.as_f64()?,
        }
    };
    let level = |name: &str| -> Option<LevelCounts> {
        let o = top.get(name)?.as_object()?;
        Some(LevelCounts {
            hits: o.get("hits")?.as_u64()?,
            misses: o.get("misses")?.as_u64()?,
        })
    };
    let hmc = {
        let o = top.get("hmc")?.as_object()?;
        HmcStats {
            request_flits_read: o.get("request_flits_read")?.as_u64()?,
            request_flits_write: o.get("request_flits_write")?.as_u64()?,
            request_flits_atomic: o.get("request_flits_atomic")?.as_u64()?,
            response_flits_read: o.get("response_flits_read")?.as_u64()?,
            response_flits_write: o.get("response_flits_write")?.as_u64()?,
            response_flits_atomic: o.get("response_flits_atomic")?.as_u64()?,
            reads: o.get("reads")?.as_u64()?,
            writes: o.get("writes")?.as_u64()?,
            atomics: o.get("atomics")?.as_u64()?,
            fp_atomics: o.get("fp_atomics")?.as_u64()?,
            bank_wait_cycles: o.get("bank_wait_cycles")?.as_f64()?,
            bank_wait_max: o.get("bank_wait_max")?.as_f64()?,
            bank_wait_long: o.get("bank_wait_long")?.as_u64()?,
            fu_wait_cycles: o.get("fu_wait_cycles")?.as_f64()?,
            fu_busy_cycles: o.get("fu_busy_cycles")?.as_f64()?,
            dram_activations: o.get("dram_activations")?.as_u64()?,
            dram_accesses: o.get("dram_accesses")?.as_u64()?,
            requests_per_vault: o
                .get("requests_per_vault")?
                .as_array()?
                .iter()
                .map(|v| v.as_u64())
                .collect::<Option<Vec<u64>>>()?,
            atomics_per_vault: o
                .get("atomics_per_vault")?
                .as_array()?
                .iter()
                .map(|v| v.as_u64())
                .collect::<Option<Vec<u64>>>()?,
            atomics_by_category: {
                let cats = o
                    .get("atomics_by_category")?
                    .as_array()?
                    .iter()
                    .map(|v| v.as_u64())
                    .collect::<Option<Vec<u64>>>()?;
                <[u64; 5]>::try_from(cats).ok()?
            },
        }
    };
    Some(RunMetrics {
        mode: key.mode,
        cores: top.get("cores")?.as_u64()? as usize,
        issue_width: top.get("issue_width")?.as_u64()? as u32,
        total_cycles: top.get("total_cycles")?.as_f64()?,
        core,
        l1: level("l1")?,
        l2: level("l2")?,
        l3: level("l3")?,
        hmc,
        offload_candidates: top.get("offload_candidates")?.as_u64()?,
        candidate_cache_hits: top.get("candidate_cache_hits")?.as_u64()?,
        offloaded_atomics: top.get("offloaded_atomics")?.as_u64()?,
        host_pei_atomics: top.get("host_pei_atomics")?.as_u64()?,
        uncached_reads: top.get("uncached_reads")?.as_u64()?,
        uncached_writes: top.get("uncached_writes")?.as_u64()?,
        uncached_atomics: top.get("uncached_atomics")?.as_u64()?,
        memory_service_cycles: top.get("memory_service_cycles")?.as_f64()?,
        trace_export_failed: top.get("trace_export_failed")?.as_bool()?,
    })
}

/// Minimal JSON reader for the cache files and the trace exporter.
/// Numbers are kept as raw source tokens and converted at
/// field-extraction time, so `u64` and `f64` both round-trip exactly.
pub mod json {
    /// One parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Value {
        /// Object, insertion-ordered.
        Object(Vec<(String, Value)>),
        /// Array.
        Array(Vec<Value>),
        /// Number, as its raw source token.
        Num(String),
        /// String, with every RFC 8259 escape resolved.
        Str(String),
        /// `true` / `false`.
        Bool(bool),
        /// `null`.
        Null,
    }

    impl Value {
        /// Object field view, or `None` for other variants.
        pub fn as_object(&self) -> Option<Obj<'_>> {
            match self {
                Value::Object(fields) => Some(Obj(fields)),
                _ => None,
            }
        }

        /// Array elements, or `None`.
        pub fn as_array(&self) -> Option<&[Value]> {
            match self {
                Value::Array(items) => Some(items),
                _ => None,
            }
        }

        /// Exact `u64`, or `None`.
        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Value::Num(raw) => raw.parse().ok(),
                _ => None,
            }
        }

        /// `f64` (exact for values written by this module), or `None`.
        pub fn as_f64(&self) -> Option<f64> {
            match self {
                Value::Num(raw) => raw.parse().ok(),
                _ => None,
            }
        }

        /// String contents, or `None`.
        pub fn as_str(&self) -> Option<&str> {
            match self {
                Value::Str(s) => Some(s),
                _ => None,
            }
        }

        /// Boolean value, or `None`.
        pub fn as_bool(&self) -> Option<bool> {
            match self {
                Value::Bool(b) => Some(*b),
                _ => None,
            }
        }
    }

    /// Field lookup over an object's entries.
    #[derive(Debug, Clone, Copy)]
    pub struct Obj<'a>(&'a [(String, Value)]);

    impl<'a> Obj<'a> {
        /// The value of field `name`, or `None`.
        pub fn get(&self, name: &str) -> Option<&'a Value> {
            self.0.iter().find(|(k, _)| k == name).map(|(_, v)| v)
        }
    }

    /// Parses one JSON document; `None` on any syntax error.
    pub fn parse(text: &str) -> Option<Value> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos == bytes.len() {
            Some(value)
        } else {
            None
        }
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn eat(bytes: &[u8], pos: &mut usize, expected: u8) -> Option<()> {
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&expected) {
            *pos += 1;
            Some(())
        } else {
            None
        }
    }

    fn parse_value(bytes: &[u8], pos: &mut usize) -> Option<Value> {
        skip_ws(bytes, pos);
        match bytes.get(*pos)? {
            b'{' => parse_object(bytes, pos),
            b'[' => parse_array(bytes, pos),
            b'"' => parse_string(bytes, pos).map(Value::Str),
            b't' => parse_literal(bytes, pos, "true", Value::Bool(true)),
            b'f' => parse_literal(bytes, pos, "false", Value::Bool(false)),
            b'n' => parse_literal(bytes, pos, "null", Value::Null),
            _ => parse_number(bytes, pos),
        }
    }

    fn parse_object(bytes: &[u8], pos: &mut usize) -> Option<Value> {
        eat(bytes, pos, b'{')?;
        let mut fields = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b'}') {
            *pos += 1;
            return Some(Value::Object(fields));
        }
        loop {
            skip_ws(bytes, pos);
            let key = parse_string(bytes, pos)?;
            eat(bytes, pos, b':')?;
            let value = parse_value(bytes, pos)?;
            fields.push((key, value));
            skip_ws(bytes, pos);
            match bytes.get(*pos)? {
                b',' => *pos += 1,
                b'}' => {
                    *pos += 1;
                    return Some(Value::Object(fields));
                }
                _ => return None,
            }
        }
    }

    fn parse_array(bytes: &[u8], pos: &mut usize) -> Option<Value> {
        eat(bytes, pos, b'[')?;
        let mut items = Vec::new();
        skip_ws(bytes, pos);
        if bytes.get(*pos) == Some(&b']') {
            *pos += 1;
            return Some(Value::Array(items));
        }
        loop {
            items.push(parse_value(bytes, pos)?);
            skip_ws(bytes, pos);
            match bytes.get(*pos)? {
                b',' => *pos += 1,
                b']' => {
                    *pos += 1;
                    return Some(Value::Array(items));
                }
                _ => return None,
            }
        }
    }

    /// Escapes `s` for use inside a JSON string literal (RFC 8259): `"`,
    /// `\` and the control characters U+0000–U+001F, and nothing else,
    /// so plain ASCII labels come back unchanged (and unallocated).
    pub fn escape(s: &str) -> std::borrow::Cow<'_, str> {
        use std::fmt::Write as _;
        if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
            return s.into();
        }
        let mut out = String::with_capacity(s.len() + 8);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                '\u{8}' => out.push_str("\\b"),
                '\u{c}' => out.push_str("\\f"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", c as u32);
                }
                c => out.push(c),
            }
        }
        out.into()
    }

    fn parse_string(bytes: &[u8], pos: &mut usize) -> Option<String> {
        if bytes.get(*pos) != Some(&b'"') {
            return None;
        }
        *pos += 1;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte whole: it is UTF-8 (the input is a `str`, and the run
            // ends at an ASCII byte), so multi-byte characters survive.
            let run = bytes[*pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)?;
            out.push_str(std::str::from_utf8(&bytes[*pos..*pos + run]).ok()?);
            *pos += run;
            match bytes[*pos] {
                b'"' => {
                    *pos += 1;
                    return Some(out);
                }
                b'\\' => {
                    *pos += 1;
                    let c = match bytes.get(*pos)? {
                        b'"' => '"',
                        b'\\' => '\\',
                        b'/' => '/',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'u' => {
                            *pos += 1;
                            let c = parse_unicode_escape(bytes, pos)?;
                            out.push(c);
                            continue;
                        }
                        _ => return None,
                    };
                    out.push(c);
                    *pos += 1;
                }
                // A raw control character: JSON requires it escaped.
                _ => return None,
            }
        }
    }

    /// The character of a `\u` escape whose four hex digits start at
    /// `pos`, joining a surrogate pair written as two escapes; a lone
    /// surrogate is an error.
    fn parse_unicode_escape(bytes: &[u8], pos: &mut usize) -> Option<char> {
        let hex4 = |pos: &mut usize| {
            let digits = std::str::from_utf8(bytes.get(*pos..*pos + 4)?).ok()?;
            let unit = u32::from_str_radix(digits, 16).ok()?;
            // `from_str_radix` takes a sign; JSON does not.
            digits
                .bytes()
                .all(|b| b.is_ascii_hexdigit())
                .then_some(())?;
            *pos += 4;
            Some(unit)
        };
        let unit = hex4(pos)?;
        match unit {
            0xD800..=0xDBFF => {
                if bytes.get(*pos..*pos + 2)? != b"\\u" {
                    return None;
                }
                *pos += 2;
                let low = hex4(pos)?;
                if !(0xDC00..=0xDFFF).contains(&low) {
                    return None;
                }
                char::from_u32(0x10000 + ((unit - 0xD800) << 10) + (low - 0xDC00))
            }
            _ => char::from_u32(unit),
        }
    }

    fn parse_literal(bytes: &[u8], pos: &mut usize, text: &str, value: Value) -> Option<Value> {
        if bytes[*pos..].starts_with(text.as_bytes()) {
            *pos += text.len();
            Some(value)
        } else {
            None
        }
    }

    fn parse_number(bytes: &[u8], pos: &mut usize) -> Option<Value> {
        let start = *pos;
        while *pos < bytes.len()
            && matches!(
                bytes[*pos],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E' | b'i' | b'n' | b'f' | b'N' | b'a'
            )
        {
            *pos += 1;
        }
        if *pos == start {
            return None;
        }
        Some(Value::Num(
            std::str::from_utf8(&bytes[start..*pos]).ok()?.to_string(),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PimMode;
    use graphpim_graph::generate::LdbcSize;

    fn tmp_cache(name: &str) -> DiskCache {
        let dir =
            std::env::temp_dir().join(format!("graphpim-cache-test-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        DiskCache::at(dir)
    }

    fn sample_metrics() -> RunMetrics {
        RunMetrics {
            mode: PimMode::GraphPim,
            cores: 16,
            issue_width: 4,
            // Not exactly representable in decimal: exercises the
            // shortest-round-trip float path.
            total_cycles: 123456.789_012_345_6,
            core: CoreStats {
                instructions: (1u64 << 55) + 3, // beyond f64-exact integers
                memory_ops: 42,
                atomic_incore_cycles: 0.1 + 0.2, // 0.30000000000000004
                ..CoreStats::default()
            },
            l1: LevelCounts {
                hits: 10,
                misses: 3,
            },
            l2: LevelCounts { hits: 2, misses: 1 },
            l3: LevelCounts { hits: 1, misses: 1 },
            hmc: HmcStats {
                atomics: 7,
                requests_per_vault: vec![2, 2, 3, 1],
                atomics_per_vault: vec![1, 2, 3, 1],
                atomics_by_category: [4, 0, 1, 2, 0],
                fu_wait_cycles: 1.5e-9,
                ..HmcStats::default()
            },
            offload_candidates: 9,
            candidate_cache_hits: 2,
            offloaded_atomics: 7,
            host_pei_atomics: 0,
            uncached_reads: 5,
            uncached_writes: 4,
            uncached_atomics: 3,
            memory_service_cycles: 1e12,
            trace_export_failed: true,
        }
    }

    fn key() -> RunKey {
        RunKey::new("DC", PimMode::GraphPim, LdbcSize::K1)
    }

    #[test]
    fn round_trip_is_bit_identical() {
        let cache = tmp_cache("roundtrip");
        let metrics = sample_metrics();
        cache.store(&key(), 0xABCD, &metrics);
        let loaded = cache.load(&key(), 0xABCD).expect("cache hit");
        assert_eq!(loaded, metrics);
        assert_eq!(
            loaded.total_cycles.to_bits(),
            metrics.total_cycles.to_bits()
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn changed_fingerprint_misses() {
        let cache = tmp_cache("fingerprint");
        cache.store(&key(), 1, &sample_metrics());
        assert!(cache.load(&key(), 1).is_some());
        assert!(
            cache.load(&key(), 2).is_none(),
            "fingerprint must invalidate"
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn different_keys_do_not_collide() {
        let cache = tmp_cache("keys");
        cache.store(&key(), 9, &sample_metrics());
        let other = RunKey::new("BFS", PimMode::GraphPim, LdbcSize::K1);
        assert!(cache.load(&other, 9).is_none());
        let with_fus = key().with_fus(2);
        assert!(cache.load(&with_fus, 9).is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_entry_degrades_to_miss() {
        let cache = tmp_cache("corrupt");
        cache.store(&key(), 4, &sample_metrics());
        let path = cache.path(&key(), 4);
        std::fs::write(&path, "{\"schema\": 1, \"truncated").unwrap();
        assert!(cache.load(&key(), 4).is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn lookup_distinguishes_stale_from_miss() {
        let cache = tmp_cache("lookup");
        // Nothing cached yet: a true miss.
        assert!(matches!(cache.lookup(&key(), 1), Lookup::Miss));
        cache.store(&key(), 1, &sample_metrics());
        assert!(matches!(cache.lookup(&key(), 1), Lookup::Hit(_)));
        // Same run under a different fingerprint: stale, not miss.
        assert!(matches!(cache.lookup(&key(), 2), Lookup::Stale));
        // A different run is still a miss.
        let other = RunKey::new("BFS", PimMode::GraphPim, LdbcSize::K1);
        assert!(matches!(cache.lookup(&other, 1), Lookup::Miss));
        // A corrupt exact entry is stale.
        std::fs::write(cache.path(&key(), 1), "not json").unwrap();
        assert!(matches!(cache.lookup(&key(), 1), Lookup::Stale));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn sibling_detection_is_not_fooled_by_stem_prefixes() {
        let cache = tmp_cache("siblings");
        // `-plain` keys share a textual prefix with their plain-atomics-off
        // counterparts; a cached plain entry must not mark the other stale.
        let plain = key().with_plain_atomics();
        cache.store(&plain, 3, &sample_metrics());
        assert!(matches!(cache.lookup(&key(), 3), Lookup::Miss));
        assert!(matches!(cache.lookup(&plain, 9), Lookup::Stale));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn fingerprint_is_reexported_from_shared_module() {
        // The implementation lives in `crate::fingerprint`; both stores
        // must resolve to the same function.
        assert_eq!(
            fingerprint(&["x", "y"]),
            crate::fingerprint::fingerprint(&["x", "y"])
        );
    }

    #[test]
    fn json_strings_round_trip_through_the_shared_escaper() {
        let names = [
            "fig07",
            "a\nb\tc\"d\\e",
            "caf\u{e9} \u{1F600}",
            "\u{0}\u{1}\u{8}\u{c}\r\u{1f} \u{7f}",
        ];
        for name in names {
            let doc = format!("{{\"name\": \"{}\"}}", json::escape(name));
            assert!(
                doc.bytes().all(|b| b >= 0x20),
                "no raw control bytes: {doc:?}"
            );
            let parsed = json::parse(&doc).unwrap_or_else(|| panic!("must parse: {doc:?}"));
            let got = parsed.as_object().unwrap().get("name").unwrap().as_str();
            assert_eq!(got, Some(name));
        }
        assert!(
            matches!(
                json::escape("LDBC-1k"),
                std::borrow::Cow::Borrowed("LDBC-1k")
            ),
            "plain labels pass through untouched"
        );
    }

    #[test]
    fn json_parser_resolves_standard_escapes_and_rejects_raw_controls() {
        let parse = |text: &str| json::parse(text).and_then(|v| v.as_str().map(str::to_string));
        assert_eq!(
            parse(r#""\n\r\t\b\f\/\"\\""#).as_deref(),
            Some("\n\r\t\u{8}\u{c}/\"\\")
        );
        assert_eq!(parse(r#""\u00e9\u00E9""#).as_deref(), Some("\u{e9}\u{e9}"));
        assert_eq!(parse(r#""\ud83d\ude00""#).as_deref(), Some("\u{1F600}"));
        assert_eq!(parse("\"caf\u{e9}\"").as_deref(), Some("caf\u{e9}"));
        for bad in [
            "\"a\nb\"",
            "\"a\tb\"",
            r#""\ud83d""#,
            r#""\ud83dx""#,
            r#""\ude00""#,
            r#""\ud83d\u0041""#,
            r#""\u12""#,
            r#""\u+123""#,
            r#""\x""#,
            "\"unterminated",
        ] {
            assert_eq!(parse(bad), None, "{bad:?} must be rejected");
        }
    }
}
