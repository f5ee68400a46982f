//! Golden-fixture support shared by the interpreter equivalence suites.
//!
//! The fixtures under `tests/fixtures/` pin the exact observable output of
//! the VM — clean-run digests, campaign report JSON — as recorded by the
//! per-`Op` interpreter that decoded dispatch replaced.  Every lookup is
//! strict: a key without a fixture line fails the test instead of skipping
//! the comparison.  [`acl_reference`] is the hash-based ACL oracle the
//! property tests diff the dense builder against, and [`spmd_reference`]
//! the threaded SPMD exchange the in-thread one is diffed against.

// Each test binary that includes this module uses only part of it.
#![allow(dead_code)]

pub mod acl_reference;
pub mod spmd_reference;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;

use fliptracker::integrity::fnv1a;
use ftkr_vm::{RunResult, Trace, Value};

/// Path of a fixture file under `tests/fixtures/`.
fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join(name)
}

fn push_value(out: &mut String, v: Value) {
    let _ = write!(out, "{}:{:016x}", v.kind(), v.bits());
}

fn push_trace(out: &mut String, trace: &Trace) {
    let _ = writeln!(out, "base {} events {}", trace.base_step(), trace.len());
    for e in &trace.events {
        let _ = write!(
            out,
            "{:?} {} {:?} {} {:?} {}+{}",
            e.func, e.frame, e.inst, e.line, e.kind, e.reads.offset, e.reads.len
        );
        for &(id, v) in trace.reads_of(e) {
            let _ = write!(out, " r{}=", id.0);
            push_value(out, v);
        }
        if let Some((id, v)) = e.write {
            let _ = write!(out, " w{}=", id.0);
            push_value(out, v);
        }
        out.push('\n');
    }
    // The operand pool: the event spans cover it exactly.
    let pool: usize = trace.events.iter().map(|e| e.reads.len as usize).sum();
    let _ = writeln!(out, "pool {pool}");
    for loc in trace.locations() {
        let _ = writeln!(out, "{loc:?}");
    }
}

/// Bit-exact FNV-1a digest of a run: outcome, step count, every output
/// record (value bits and rendered text), every memory cell ever laid out
/// (by raw bits, so NaN payloads and signed zeros count), and — when
/// present — the trace's events, operand pool, interned locations and source
/// lines.
pub fn run_digest(run: &RunResult) -> u64 {
    let mut out = String::new();
    let _ = writeln!(out, "{:?} steps {}", run.outcome, run.steps);
    for r in &run.outputs.records {
        push_value(&mut out, r.value);
        let _ = writeln!(out, " {:?} {:?}", r.format, r.text);
    }
    let _ = writeln!(
        out,
        "memory globals {} valid {}",
        run.memory.globals_len(),
        run.memory.valid_len()
    );
    let mut addr = 0u64;
    while let Some(v) = run.memory.peek(addr) {
        push_value(&mut out, v);
        out.push('\n');
        addr += 1;
    }
    match &run.trace {
        Some(trace) => push_trace(&mut out, trace),
        None => out.push_str("untraced\n"),
    }
    fnv1a(out.as_bytes())
}

/// Render a digest the way fixture lines store it.
pub fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

/// A `key value` fixture file: one entry per line, the key being everything
/// before the last space.
pub struct LineFixtures {
    name: &'static str,
    entries: BTreeMap<String, String>,
}

impl LineFixtures {
    /// Load a fixture file; a missing file fails the test.
    pub fn load(name: &'static str) -> Self {
        let path = fixture_path(name);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
        let entries = text
            .lines()
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(|l| {
                let (k, v) = l
                    .rsplit_once(' ')
                    .unwrap_or_else(|| panic!("malformed fixture line in {name}: {l:?}"));
                (k.to_string(), v.to_string())
            })
            .collect();
        LineFixtures { name, entries }
    }

    /// The value stored for `key`; panics when the fixture has no such line.
    pub fn get(&self, key: &str) -> &str {
        self.entries
            .get(key)
            .unwrap_or_else(|| panic!("fixture {} has no line for {key:?}", self.name))
    }
}

/// A fixture file of multi-line documents, each introduced by a
/// `== <key>` header line (report JSON never starts a line with `==`).
pub struct BlockFixtures {
    name: &'static str,
    entries: BTreeMap<String, String>,
}

impl BlockFixtures {
    /// Load a fixture file; a missing file fails the test.
    pub fn load(name: &'static str) -> Self {
        let path = fixture_path(name);
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()));
        let mut entries = BTreeMap::new();
        let mut current: Option<(String, Vec<&str>)> = None;
        for line in text.lines() {
            if let Some(key) = line.strip_prefix("== ") {
                if let Some((k, body)) = current.take() {
                    entries.insert(k, body.join("\n"));
                }
                current = Some((key.to_string(), Vec::new()));
            } else if let Some((_, body)) = current.as_mut() {
                body.push(line);
            }
        }
        if let Some((k, body)) = current {
            entries.insert(k, body.join("\n"));
        }
        BlockFixtures { name, entries }
    }

    /// The document stored under `key`; panics when the fixture has none.
    pub fn get(&self, key: &str) -> &str {
        self.entries
            .get(key)
            .unwrap_or_else(|| panic!("fixture {} has no document for {key:?}", self.name))
    }
}
