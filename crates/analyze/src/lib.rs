//! Repo-invariant lints for the sssp workspace, enforced in CI.
//!
//! Seven invariants, all checked by plain line-level source scanning (no
//! external parser — the scans are deliberately syntactic so the tool
//! has zero dependencies and sub-second runtime):
//!
//! 1. **`safety-comment`** — every `unsafe` block, fn, or impl carries a
//!    `SAFETY:` justification (same line, or in the contiguous
//!    comment/attribute block directly above, or a `# Safety` doc
//!    section).
//! 2. **`atomic-ordering`** — every `Ordering::{Relaxed, Acquire,
//!    Release, AcqRel, SeqCst}` site is accounted for, with a one-line
//!    reason, in `analyze/atomics.toml`. Counts are exact per
//!    `(file, ordering)`, so adding *or removing* an atomic op forces a
//!    human to re-justify the file's ordering story. `std::cmp::Ordering`
//!    match arms (`Less`/`Equal`/`Greater`) never match the pattern and
//!    are out of scope by construction.
//! 3. **`hot-path-lock`** — no `Mutex`/`RwLock` in the relaxation hot
//!    paths (`crates/core/src/repro/parallel*`, `crates/core/src/reqbuf.rs`,
//!    `crates/core/src/pull.rs`, `crates/core/src/stepping.rs`,
//!    `crates/core/src/fused.rs` — the light/heavy split and its chunked
//!    build — `crates/gblas/src/parallel*`,
//!    `crates/gblas/src/direction.rs`) or the resident service
//!    (`crates/serve/src/`). Deliberate uses are suppressed with a
//!    `lint:allow(hot-path-lock): <reason>` comment on the same or the
//!    preceding line.
//! 4. **`impl-coverage`** — every name accepted by
//!    `Implementation::parse` maps to a variant dispatched inside
//!    `run_with_budget`, and every canonical `name()` string appears as
//!    a literal in `tests/determinism.rs`, so no implementation can be
//!    reachable from the CLI without being in the determinism suite.
//! 5. **`wire-code-coverage`** — the resident service's
//!    `SsspError`-to-wire-code mapping (`wire_code` in
//!    `crates/serve/src/protocol.rs`) names every `SsspError` variant
//!    explicitly and has no wildcard `_ =>` arm, so adding a solver
//!    error forces a deliberate wire-code assignment.
//! 6. **`opcode-coverage`** — every wire opcode declared as a
//!    `pub const NAME: u8` inside `pub mod opcode`
//!    (`crates/serve/src/protocol.rs`) is referenced as `opcode::NAME`
//!    at least twice outside the mod — in practice the encode arm and
//!    the decode arm — so an opcode cannot be minted without both
//!    directions of the frame codec handling it.
//! 7. **`lock-order`** — the resident service's locks form a declared
//!    total order (`analyze/locks.toml`): every `Mutex`/`RwLock` field
//!    under `crates/serve/src/` maps to a hierarchy level, acquisitions
//!    go through `lock::recover("<name>", ...)` (never a bare
//!    `.lock()`), and no site acquires a lock at or below the level of
//!    a guard it already holds. Deliberate inversions carry a
//!    `LOCKORDER: <reason>` comment. The static half of the deadlock
//!    story — racecheck's acquisition-order graph is the dynamic half.
//!
//! Scanned roots: `crates/`, `src/`, `tests/`, `examples/`. Excluded:
//! `vendor/` (third-party stubs), `target/`, and `crates/analyze` itself
//! (this crate's fixtures intentionally contain violations).
//!
//! Known syntactic limits, acceptable for this repo: `/* block */`
//! comments and raw strings are not modelled (the workspace uses line
//! comments and ordinary string literals throughout — the repo-clean
//! self-test keeps that true).

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// One lint violation, addressed by repo-relative file and 1-based line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub file: String,
    pub line: usize,
    pub lint: &'static str,
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.lint, self.message
        )
    }
}

/// A source file loaded for scanning: repo-relative path + raw lines.
pub struct SourceFile {
    pub rel: String,
    pub lines: Vec<String>,
}

impl SourceFile {
    pub fn from_str(rel: &str, src: &str) -> SourceFile {
        SourceFile {
            rel: rel.to_string(),
            lines: src.lines().map(str::to_string).collect(),
        }
    }
}

// ---------------------------------------------------------------------------
// Line-level helpers
// ---------------------------------------------------------------------------

/// The code part of a line: the `// comment` tail removed and string
/// literal *contents* blanked to spaces, so identifier searches can
/// never match inside comments or strings. `'` is left alone (it is
/// almost always a lifetime); none of the searched identifiers can
/// appear in a char literal.
fn code_portion(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut chars = line.chars().peekable();
    let mut in_str = false;
    while let Some(c) = chars.next() {
        if in_str {
            match c {
                '\\' => {
                    chars.next();
                    out.push(' ');
                }
                '"' => {
                    in_str = false;
                    out.push('"');
                }
                _ => out.push(' '),
            }
        } else {
            match c {
                '"' => {
                    in_str = true;
                    out.push('"');
                }
                '/' if chars.peek() == Some(&'/') => break,
                _ => out.push(c),
            }
        }
    }
    out
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

/// Occurrences of `word` in `code` at identifier boundaries. `word` may
/// itself contain `::`; only its outer edges are boundary-checked.
fn count_word(code: &str, word: &str) -> usize {
    let bytes = code.as_bytes();
    let mut n = 0;
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let i = from + pos;
        let j = i + word.len();
        let before_ok = i == 0 || !is_ident_byte(bytes[i - 1]);
        let after_ok = j >= bytes.len() || !is_ident_byte(bytes[j]);
        if before_ok && after_ok {
            n += 1;
        }
        from = j;
    }
    n
}

fn has_word(code: &str, word: &str) -> bool {
    count_word(code, word) > 0
}

/// Whether `line` is part of a comment/attribute block (what we are
/// willing to walk back through when looking for a SAFETY note).
fn is_comment_or_attr(line: &str) -> bool {
    let t = line.trim_start();
    t.starts_with("//") || t.starts_with("#[") || t.starts_with("#!") || t == ")]"
}

// ---------------------------------------------------------------------------
// Lint 1: SAFETY comments on unsafe
// ---------------------------------------------------------------------------

const SAFETY_MARKERS: [&str; 2] = ["SAFETY:", "# Safety"];

fn line_has_safety_marker(raw: &str) -> bool {
    SAFETY_MARKERS.iter().any(|m| raw.contains(m))
}

/// Every `unsafe` keyword in code must have a `SAFETY:` (or `# Safety`
/// doc section) on the same line or in the contiguous comment/attribute
/// block directly above it.
pub fn lint_safety(f: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    for (idx, raw) in f.lines.iter().enumerate() {
        if !has_word(&code_portion(raw), "unsafe") {
            continue;
        }
        if line_has_safety_marker(raw) {
            continue;
        }
        let mut justified = false;
        let mut j = idx;
        while j > 0 && is_comment_or_attr(&f.lines[j - 1]) {
            j -= 1;
            if line_has_safety_marker(&f.lines[j]) {
                justified = true;
                break;
            }
        }
        if !justified {
            out.push(Finding {
                file: f.rel.clone(),
                line: idx + 1,
                lint: "safety-comment",
                message: "`unsafe` without a SAFETY: justification on the same line \
                          or in the comment block above"
                    .to_string(),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Lint 2: atomic-ordering allowlist
// ---------------------------------------------------------------------------

pub const ATOMIC_ORDERINGS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Count `Ordering::<variant>` sites in one file, keyed by variant name.
pub fn count_atomics(f: &SourceFile) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for raw in &f.lines {
        let code = code_portion(raw);
        for ord in ATOMIC_ORDERINGS {
            let n = count_word(&code, &format!("Ordering::{ord}"));
            if n > 0 {
                *counts.entry(ord.to_string()).or_insert(0) += n;
            }
        }
    }
    counts
}

/// One `[[site]]` entry from `analyze/atomics.toml`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AtomicSite {
    pub file: String,
    pub ordering: String,
    pub count: usize,
    pub reason: String,
    /// 1-based line of the `[[site]]` header in the allowlist, so stale
    /// entries are reported at the entry to delete.
    pub line: usize,
}

/// Parse the TOML subset used by `analyze/atomics.toml`: comments,
/// blank lines, `[[site]]` headers, and `key = value` pairs where value
/// is a quoted string or an integer. Anything else is an error — the
/// allowlist is a lint input and must not silently half-parse.
pub fn parse_allowlist(src: &str) -> Result<Vec<AtomicSite>, String> {
    struct Partial {
        file: Option<String>,
        ordering: Option<String>,
        count: Option<usize>,
        reason: Option<String>,
        line: usize,
    }
    fn finish(p: Partial) -> Result<AtomicSite, String> {
        let at = format!("[[site]] at line {}", p.line);
        let site = AtomicSite {
            file: p.file.ok_or(format!("{at}: missing `file`"))?,
            ordering: p.ordering.ok_or(format!("{at}: missing `ordering`"))?,
            count: p.count.ok_or(format!("{at}: missing `count`"))?,
            reason: p.reason.ok_or(format!("{at}: missing `reason`"))?,
            line: p.line,
        };
        if site.reason.trim().is_empty() {
            return Err(format!("{at}: `reason` must not be empty"));
        }
        // A placeholder reason defeats the lint's whole purpose: every
        // entry must say why that ordering is sufficient at that site.
        if site.reason.trim().starts_with("TODO") {
            return Err(format!(
                "{at}: `reason` is a TODO placeholder — write why `{}` is \
                 sufficient for the {} site(s) in {}",
                site.ordering, site.count, site.file
            ));
        }
        if !ATOMIC_ORDERINGS.contains(&site.ordering.as_str()) {
            return Err(format!("{at}: unknown ordering `{}`", site.ordering));
        }
        Ok(site)
    }

    let mut sites = Vec::new();
    let mut cur: Option<Partial> = None;
    for (idx, raw) in src.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[site]]" {
            if let Some(p) = cur.take() {
                sites.push(finish(p)?);
            }
            cur = Some(Partial {
                file: None,
                ordering: None,
                count: None,
                reason: None,
                line: idx + 1,
            });
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or(format!("line {}: expected `key = value`", idx + 1))?;
        let p = cur
            .as_mut()
            .ok_or(format!("line {}: key before any [[site]]", idx + 1))?;
        let value = value.trim();
        let parsed_str = value
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .map(str::to_string);
        match key.trim() {
            "file" => {
                p.file =
                    Some(parsed_str.ok_or(format!("line {}: `file` must be quoted", idx + 1))?)
            }
            "ordering" => {
                p.ordering = Some(
                    parsed_str.ok_or(format!("line {}: `ordering` must be quoted", idx + 1))?,
                )
            }
            "reason" => {
                p.reason =
                    Some(parsed_str.ok_or(format!("line {}: `reason` must be quoted", idx + 1))?)
            }
            "count" => {
                p.count = Some(
                    value
                        .parse()
                        .map_err(|_| format!("line {}: `count` must be an integer", idx + 1))?,
                )
            }
            other => return Err(format!("line {}: unknown key `{other}`", idx + 1)),
        }
    }
    if let Some(p) = cur.take() {
        sites.push(finish(p)?);
    }
    Ok(sites)
}

/// Compare observed `Ordering::` sites against the allowlist: unlisted
/// sites, count drift, and stale entries are all findings.
pub fn lint_atomics(files: &[SourceFile], allowlist_src: &str) -> Vec<Finding> {
    let sites = match parse_allowlist(allowlist_src) {
        Ok(s) => s,
        Err(e) => {
            return vec![Finding {
                file: "analyze/atomics.toml".to_string(),
                line: 0,
                lint: "atomic-ordering",
                message: format!("allowlist parse error: {e}"),
            }]
        }
    };
    // (total count, line of the first [[site]] header) per (file, ordering).
    let mut allowed: BTreeMap<(String, String), (usize, usize)> = BTreeMap::new();
    for s in &sites {
        let e = allowed
            .entry((s.file.clone(), s.ordering.clone()))
            .or_insert((0, s.line));
        e.0 += s.count;
    }
    let mut observed: BTreeMap<(String, String), usize> = BTreeMap::new();
    for f in files {
        for (ord, n) in count_atomics(f) {
            observed.insert((f.rel.clone(), ord), n);
        }
    }
    // First source line mentioning `Ordering::<ord>`, so a finding
    // points at an actual site rather than line 0.
    let first_site_line = |file: &str, ord: &str| -> usize {
        let needle = format!("Ordering::{ord}");
        files
            .iter()
            .find(|f| f.rel == file)
            .and_then(|f| {
                f.lines
                    .iter()
                    .position(|raw| has_word(&code_portion(raw), &needle))
            })
            .map_or(0, |idx| idx + 1)
    };

    let mut out = Vec::new();
    for ((file, ord), n) in &observed {
        match allowed.get(&(file.clone(), ord.clone())) {
            None => out.push(Finding {
                file: file.clone(),
                line: first_site_line(file, ord),
                lint: "atomic-ordering",
                message: format!(
                    "{n} `Ordering::{ord}` site(s) not justified in analyze/atomics.toml"
                ),
            }),
            Some((a, _)) if a != n => out.push(Finding {
                file: file.clone(),
                line: first_site_line(file, ord),
                lint: "atomic-ordering",
                message: format!(
                    "`Ordering::{ord}` count drifted: {n} in source, {a} justified — \
                     re-audit and update analyze/atomics.toml"
                ),
            }),
            Some(_) => {}
        }
    }
    for ((file, ord), (a, entry_line)) in &allowed {
        if !observed.contains_key(&(file.clone(), ord.clone())) {
            out.push(Finding {
                file: "analyze/atomics.toml".to_string(),
                line: *entry_line,
                lint: "atomic-ordering",
                message: format!(
                    "stale entry: {file} has no `Ordering::{ord}` sites (justifies {a})"
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Lint 3: hot-path lock ban
// ---------------------------------------------------------------------------

const HOT_PATH_SUPPRESSION: &str = "lint:allow(hot-path-lock)";

/// Hot-path modules where a blocking lock is a design violation: the
/// request-buffer relaxation core, the parallel kernels, the
/// generalized stepping loop, the light/heavy split it runs over (built
/// in row chunks on the pool), and the resident service (whose locks
/// must all be request-rate control state, never per-edge — each
/// deliberate one carries its reason).
pub fn is_hot_path(rel: &str) -> bool {
    rel.starts_with("crates/core/src/repro/parallel")
        || rel == "crates/core/src/reqbuf.rs"
        || rel == "crates/core/src/pull.rs"
        || rel == "crates/core/src/stepping.rs"
        || rel == "crates/core/src/fused.rs"
        || rel.starts_with("crates/gblas/src/parallel")
        || rel == "crates/gblas/src/direction.rs"
        || rel.starts_with("crates/serve/src/")
}

/// `Mutex`/`RwLock` in a hot-path file must carry an explicit
/// `lint:allow(hot-path-lock): <reason>` on the same or previous line.
pub fn lint_hot_path_locks(f: &SourceFile) -> Vec<Finding> {
    if !is_hot_path(&f.rel) {
        return Vec::new();
    }
    let mut out = Vec::new();
    for (idx, raw) in f.lines.iter().enumerate() {
        let code = code_portion(raw);
        let hit = ["Mutex", "RwLock"]
            .into_iter()
            .find(|w| has_word(&code, w));
        let Some(word) = hit else { continue };
        let mut suppressed = raw.contains(HOT_PATH_SUPPRESSION);
        let mut j = idx;
        while !suppressed && j > 0 && is_comment_or_attr(&f.lines[j - 1]) {
            j -= 1;
            suppressed = f.lines[j].contains(HOT_PATH_SUPPRESSION);
        }
        if !suppressed {
            out.push(Finding {
                file: f.rel.clone(),
                line: idx + 1,
                lint: "hot-path-lock",
                message: format!(
                    "`{word}` in a hot-path module — relaxation paths are contention-free \
                     by design; add `{HOT_PATH_SUPPRESSION}: <reason>` if deliberate"
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Lint 4: implementation dispatch / determinism coverage
// ---------------------------------------------------------------------------

/// 1-based line of the first line containing `marker`, or 0 when the
/// marker is absent — so structural findings can point at the construct
/// they are about instead of line 0.
fn marker_line(f: &SourceFile, marker: &str) -> usize {
    f.lines
        .iter()
        .position(|l| l.contains(marker))
        .map_or(0, |idx| idx + 1)
}

/// Concatenated code of the `{ ... }` block opened by the first line at
/// or after `start` containing `marker`. Empty string when not found.
fn block_after(f: &SourceFile, marker: &str) -> String {
    let Some(start) = f.lines.iter().position(|l| l.contains(marker)) else {
        return String::new();
    };
    let mut depth = 0usize;
    let mut seen_open = false;
    let mut body = String::new();
    for raw in &f.lines[start..] {
        let code = code_portion(raw);
        body.push_str(&code);
        body.push('\n');
        for c in code.chars() {
            match c {
                '{' => {
                    depth += 1;
                    seen_open = true;
                }
                '}' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        if seen_open && depth == 0 {
            break;
        }
    }
    body
}

/// Quoted string literals occurring on `=>` match-arm lines of a block.
fn arm_literals(block: &str) -> Vec<(Vec<String>, String)> {
    let mut out = Vec::new();
    for line in block.lines() {
        let Some((lhs, rhs)) = line.split_once("=>") else {
            continue;
        };
        let mut lits = Vec::new();
        let mut rest = lhs;
        while let Some(open) = rest.find('"') {
            let tail = &rest[open + 1..];
            let Some(close) = tail.find('"') else { break };
            lits.push(tail[..close].to_string());
            rest = &tail[close + 1..];
        }
        if !lits.is_empty() {
            out.push((lits, rhs.trim().to_string()));
        }
    }
    out
}

/// Check the `Implementation` front door in `run.rs` against the
/// determinism suite:
///
/// - every enum variant is dispatched (`Implementation::<V>` appears in
///   the `run_with_budget` body);
/// - every `parse()` alias maps to a dispatched variant;
/// - every canonical `name()` literal appears quoted in
///   `tests/determinism.rs`.
///
/// NB: `arm_literals` reads *raw* lines from the parse/name blocks, so
/// this helper takes the raw source and re-slices it.
pub fn lint_impl_coverage(run_rs: &SourceFile, determinism_src: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut finding = |line: usize, message: String| {
        out.push(Finding {
            file: run_rs.rel.clone(),
            line,
            lint: "impl-coverage",
            message,
        });
    };
    let enum_line = marker_line(run_rs, "pub enum Implementation");
    let dispatch_line = marker_line(run_rs, "pub fn run_with_budget");
    let parse_line = marker_line(run_rs, "pub fn parse");
    let name_line = marker_line(run_rs, "pub fn name");

    // Enum variants.
    let enum_block = block_after(run_rs, "pub enum Implementation");
    let mut variants: Vec<String> = Vec::new();
    for line in enum_block.lines().skip(1) {
        let t = line.trim().trim_end_matches(',');
        if !t.is_empty()
            && t.chars().next().is_some_and(|c| c.is_ascii_uppercase())
            && t.chars().all(|c| c.is_ascii_alphanumeric())
        {
            variants.push(t.to_string());
        }
    }
    if variants.is_empty() {
        finding(enum_line, "could not locate `pub enum Implementation` variants".to_string());
        return out;
    }

    // Dispatch body.
    let dispatch = block_after(run_rs, "pub fn run_with_budget");
    if dispatch.is_empty() {
        finding(dispatch_line, "could not locate `pub fn run_with_budget`".to_string());
        return out;
    }
    for v in &variants {
        if !has_word(&dispatch, &format!("Implementation::{v}")) {
            finding(dispatch_line, format!(
                "variant `{v}` is not dispatched inside run_with_budget"
            ));
        }
    }

    // parse() aliases — raw lines needed for the string literals, so
    // rebuild a raw block: from the `pub fn parse` line to its close.
    let raw_src = run_rs.lines.join("\n");
    let parse_raw = raw_block(&raw_src, "pub fn parse");
    let mut any_alias = false;
    for (aliases, rhs) in arm_literals(&parse_raw) {
        let Some(vstart) = rhs.find("Implementation::") else {
            continue;
        };
        let v: String = rhs[vstart + "Implementation::".len()..]
            .chars()
            .take_while(|c| c.is_ascii_alphanumeric())
            .collect();
        any_alias = true;
        if !variants.contains(&v) {
            finding(parse_line, format!(
                "parse() aliases {aliases:?} map to unknown variant `{v}`"
            ));
        } else if !has_word(&dispatch, &format!("Implementation::{v}")) {
            finding(parse_line, format!(
                "parse() aliases {aliases:?} reach `{v}`, which run_with_budget never dispatches"
            ));
        }
    }
    if !any_alias {
        finding(parse_line, "could not locate parse() name aliases".to_string());
    }

    // name() canonical strings must be pinned in the determinism suite.
    let name_raw = raw_block(&raw_src, "pub fn name");
    let mut any_name = false;
    for (lits, _) in arm_literals(&name_raw) {
        // name() arms are `Variant => "literal"`, so the literal is on
        // the rhs; arm_literals keyed on lhs literals skips them.
        let _ = lits;
    }
    for line in name_raw.lines() {
        let Some((_, rhs)) = line.split_once("=>") else {
            continue;
        };
        let Some(open) = rhs.find('"') else { continue };
        let tail = &rhs[open + 1..];
        let Some(close) = tail.find('"') else { continue };
        let name = &tail[..close];
        any_name = true;
        if !determinism_src.contains(&format!("\"{name}\"")) {
            finding(name_line, format!(
                "canonical name \"{name}\" is not covered as a literal in tests/determinism.rs"
            ));
        }
    }
    if !any_name {
        finding(name_line, "could not locate name() canonical strings".to_string());
    }
    out
}

/// Raw-text variant of [`block_after`]: lines from the one containing
/// `marker` through the line where its brace block closes.
fn raw_block(src: &str, marker: &str) -> String {
    let lines: Vec<&str> = src.lines().collect();
    let Some(start) = lines.iter().position(|l| l.contains(marker)) else {
        return String::new();
    };
    let mut depth = 0usize;
    let mut seen_open = false;
    let mut out = String::new();
    for raw in &lines[start..] {
        out.push_str(raw);
        out.push('\n');
        for c in code_portion(raw).chars() {
            match c {
                '{' => {
                    depth += 1;
                    seen_open = true;
                }
                '}' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        if seen_open && depth == 0 {
            break;
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Lint 5: SsspError ↔ wire-code mapping exhaustiveness
// ---------------------------------------------------------------------------

/// Variant names of the enum opened by `marker` in `f`: identifiers at
/// brace depth 1 that start a (comment-stripped) line with an uppercase
/// letter. Struct-variant field lines sit at depth 2 and are skipped.
fn enum_variants_of(f: &SourceFile, marker: &str) -> Vec<String> {
    let block = block_after(f, marker);
    let mut depth = 0usize;
    let mut out = Vec::new();
    for line in block.lines() {
        let t = line.trim();
        if depth == 1 {
            let name: String = t
                .chars()
                .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
                .collect();
            if name.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
                out.push(name);
            }
        }
        for c in line.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
    }
    out
}

/// The serve protocol's `wire_code` mapping must stay exhaustive over
/// [`SsspError`]: every variant of the enum in `guard_rs` appears as an
/// `SsspError::<V>` arm inside `pub fn wire_code` in `wire_rs`, and the
/// match has **no** wildcard `_ =>` arm (which would silently bucket a
/// future variant instead of forcing a new wire code).
pub fn lint_wire_codes(guard_rs: &SourceFile, wire_rs: &SourceFile) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut finding = |file: &str, line: usize, message: String| {
        out.push(Finding {
            file: file.to_string(),
            line,
            lint: "wire-code-coverage",
            message,
        });
    };
    let fn_line = marker_line(wire_rs, "pub fn wire_code");

    let variants = enum_variants_of(guard_rs, "pub enum SsspError");
    if variants.is_empty() {
        finding(
            &guard_rs.rel,
            marker_line(guard_rs, "pub enum SsspError"),
            "could not locate `pub enum SsspError` variants".into(),
        );
        return out;
    }
    let Some((start, end)) = block_span(wire_rs, "pub fn wire_code") else {
        finding(
            &wire_rs.rel,
            0,
            "could not locate `pub fn wire_code` — the SsspError wire mapping is gone".into(),
        );
        return out;
    };
    let body = block_after(wire_rs, "pub fn wire_code");
    for v in &variants {
        if !has_word(&body, &format!("SsspError::{v}")) {
            finding(
                &wire_rs.rel,
                fn_line,
                format!("`SsspError::{v}` has no arm in wire_code — assign it a wire code"),
            );
        }
    }
    for (off, raw) in wire_rs.lines[start..end].iter().enumerate() {
        let code = code_portion(raw);
        let Some((lhs, _)) = code.split_once("=>") else { continue };
        if lhs.trim() == "_" {
            finding(
                &wire_rs.rel,
                start + off + 1,
                "wire_code has a wildcard `_ =>` arm — new SsspError variants must fail \
                 to compile here, not silently share a code"
                    .into(),
            );
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Lint 6: wire opcode reference coverage
// ---------------------------------------------------------------------------

/// Line span (0-based start, exclusive end) of the brace block opened
/// by the first line containing `marker`, or `None` when absent.
fn block_span(f: &SourceFile, marker: &str) -> Option<(usize, usize)> {
    let start = f.lines.iter().position(|l| l.contains(marker))?;
    let mut depth = 0usize;
    let mut seen_open = false;
    for (off, raw) in f.lines[start..].iter().enumerate() {
        for c in code_portion(raw).chars() {
            match c {
                '{' => {
                    depth += 1;
                    seen_open = true;
                }
                '}' => depth = depth.saturating_sub(1),
                _ => {}
            }
        }
        if seen_open && depth == 0 {
            return Some((start, start + off + 1));
        }
    }
    None
}

/// Every wire opcode declared in `pub mod opcode` must be *handled*:
/// each `pub const NAME: u8` needs at least two `opcode::NAME`
/// references outside the mod itself — in practice the encode arm and
/// the decode arm of the frame codec — so a new opcode (like `HEALTH`
/// or `DRAIN`) can never be declared without both directions of the
/// binary framing knowing about it.
pub fn lint_opcode_coverage(protocol_rs: &SourceFile, files: &[SourceFile]) -> Vec<Finding> {
    let mut out = Vec::new();
    let Some((start, end)) = block_span(protocol_rs, "pub mod opcode") else {
        return vec![Finding {
            file: protocol_rs.rel.clone(),
            line: 0,
            lint: "opcode-coverage",
            message: "could not locate `pub mod opcode` — the wire opcode table is gone".into(),
        }];
    };

    // Declared opcodes: `pub const NAME: u8 = ...;` lines inside the mod.
    let mut opcodes: Vec<(String, usize)> = Vec::new();
    for (off, raw) in protocol_rs.lines[start..end].iter().enumerate() {
        let code = code_portion(raw);
        let t = code.trim_start();
        let Some(rest) = t.strip_prefix("pub const ") else {
            continue;
        };
        let Some((name, ty)) = rest.split_once(':') else {
            continue;
        };
        if ty.trim_start().starts_with("u8") {
            opcodes.push((name.trim().to_string(), start + off + 1));
        }
    }
    if opcodes.is_empty() {
        return vec![Finding {
            file: protocol_rs.rel.clone(),
            line: start + 1,
            lint: "opcode-coverage",
            message: "`pub mod opcode` declares no `pub const NAME: u8` opcodes".into(),
        }];
    }

    for (name, decl_line) in opcodes {
        let needle = format!("opcode::{name}");
        let mut refs = 0usize;
        for f in files {
            for (idx, raw) in f.lines.iter().enumerate() {
                if f.rel == protocol_rs.rel && idx >= start && idx < end {
                    continue; // the declaration itself is not a use
                }
                refs += count_word(&code_portion(raw), &needle);
            }
        }
        if refs < 2 {
            out.push(Finding {
                file: protocol_rs.rel.clone(),
                line: decl_line,
                lint: "opcode-coverage",
                message: format!(
                    "wire opcode `{name}` has {refs} `opcode::{name}` reference(s) outside \
                     the mod — both the encode and decode arms of the frame codec (≥2 uses) \
                     must handle it"
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Lint 7: serve-layer lock hierarchy
// ---------------------------------------------------------------------------

/// Escape hatch for a deliberate ordering inversion: a `LOCKORDER:
/// <reason>` comment on the acquisition line or the contiguous comment
/// block above it suppresses the violation (the guard is still tracked,
/// so locks taken *under* it keep being checked).
pub const LOCK_ORDER_SUPPRESSION: &str = "LOCKORDER:";

/// One `[[lock]]` entry from `analyze/locks.toml`: a named lock field
/// with its position in the total acquisition order (lower levels are
/// acquired first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockDecl {
    /// The name passed to `lock::recover("<name>", ...)` at every
    /// acquisition site.
    pub name: String,
    /// Repo-relative file declaring the field.
    pub file: String,
    /// The struct field holding the `Mutex`/`RwLock`.
    pub field: String,
    /// Hierarchy level; a thread holding level L may only acquire
    /// strictly greater levels.
    pub level: u32,
    /// Why the lock sits at this level.
    pub reason: String,
    /// 1-based line of the `[[lock]]` header in the order file.
    pub line: usize,
}

/// Parse `analyze/locks.toml` (same TOML subset as [`parse_allowlist`]):
/// `[[lock]]` sections with `name`/`file`/`field` strings, an integer
/// `level`, and a non-placeholder `reason`. Names, levels, and
/// `(file, field)` pairs must all be unique — the file declares a total
/// order, and two locks on one level would make "strictly greater"
/// unsatisfiable for a legitimate nesting.
pub fn parse_lock_order(src: &str) -> Result<Vec<LockDecl>, String> {
    struct Partial {
        name: Option<String>,
        file: Option<String>,
        field: Option<String>,
        level: Option<u32>,
        reason: Option<String>,
        line: usize,
    }
    fn finish(p: Partial) -> Result<LockDecl, String> {
        let at = format!("[[lock]] at line {}", p.line);
        let decl = LockDecl {
            name: p.name.ok_or(format!("{at}: missing `name`"))?,
            file: p.file.ok_or(format!("{at}: missing `file`"))?,
            field: p.field.ok_or(format!("{at}: missing `field`"))?,
            level: p.level.ok_or(format!("{at}: missing `level`"))?,
            reason: p.reason.ok_or(format!("{at}: missing `reason`"))?,
            line: p.line,
        };
        if decl.reason.trim().is_empty() {
            return Err(format!("{at}: `reason` must not be empty"));
        }
        if decl.reason.trim().starts_with("TODO") {
            return Err(format!(
                "{at}: `reason` is a TODO placeholder — write why `{}` sits at level {}",
                decl.name, decl.level
            ));
        }
        Ok(decl)
    }

    let mut decls: Vec<LockDecl> = Vec::new();
    let mut cur: Option<Partial> = None;
    for (idx, raw) in src.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if line == "[[lock]]" {
            if let Some(p) = cur.take() {
                decls.push(finish(p)?);
            }
            cur = Some(Partial {
                name: None,
                file: None,
                field: None,
                level: None,
                reason: None,
                line: idx + 1,
            });
            continue;
        }
        let (key, value) = line
            .split_once('=')
            .ok_or(format!("line {}: expected `key = value`", idx + 1))?;
        let p = cur
            .as_mut()
            .ok_or(format!("line {}: key before any [[lock]]", idx + 1))?;
        let value = value.trim();
        let parsed_str = value
            .strip_prefix('"')
            .and_then(|v| v.strip_suffix('"'))
            .map(str::to_string);
        let key = key.trim();
        match key {
            "name" | "file" | "field" | "reason" => {
                let v = parsed_str.ok_or(format!("line {}: `{key}` must be quoted", idx + 1))?;
                match key {
                    "name" => p.name = Some(v),
                    "file" => p.file = Some(v),
                    "field" => p.field = Some(v),
                    _ => p.reason = Some(v),
                }
            }
            "level" => {
                p.level = Some(
                    value
                        .parse()
                        .map_err(|_| format!("line {}: `level` must be an integer", idx + 1))?,
                )
            }
            other => return Err(format!("line {}: unknown key `{other}`", idx + 1)),
        }
    }
    if let Some(p) = cur.take() {
        decls.push(finish(p)?);
    }
    for (i, a) in decls.iter().enumerate() {
        for b in &decls[i + 1..] {
            if a.name == b.name {
                return Err(format!("duplicate lock name `{}`", a.name));
            }
            if a.level == b.level {
                return Err(format!(
                    "`{}` and `{}` share level {} — the order must be total",
                    a.name, b.name, a.level
                ));
            }
            if a.file == b.file && a.field == b.field {
                return Err(format!("duplicate entry for {}::{}", a.file, a.field));
            }
        }
    }
    Ok(decls)
}

/// Whether the acquisition at `f.lines[idx]` carries a `LOCKORDER:`
/// justification on the same line or in the comment block above.
fn lock_order_suppressed(f: &SourceFile, idx: usize) -> bool {
    if f.lines[idx].contains(LOCK_ORDER_SUPPRESSION) {
        return true;
    }
    let mut j = idx;
    while j > 0 && is_comment_or_attr(&f.lines[j - 1]) {
        j -= 1;
        if f.lines[j].contains(LOCK_ORDER_SUPPRESSION) {
            return true;
        }
    }
    false
}

/// The lock field declared on `code`, if any: an optionally-`pub` struct
/// field whose type mentions `Mutex<` or `RwLock<` (never `MutexGuard`,
/// never a `Mutex::new` initializer, never a `&Mutex<T>` fn parameter).
fn lock_field_decl(code: &str) -> Option<String> {
    let t = code.trim_start();
    let t = t.strip_prefix("pub ").unwrap_or(t);
    let (name, ty) = t.split_once(':')?;
    let name = name.trim();
    if name.is_empty() || !name.bytes().all(is_ident_byte) {
        return None;
    }
    let ty = ty.trim_start();
    // References are fn parameters, not owned fields.
    if ty.starts_with('&') {
        return None;
    }
    (ty.contains("Mutex<") || ty.contains("RwLock<")).then(|| name.to_string())
}

/// Lock names acquired on this line: every `recover("<name>"` call. The
/// name is read from the raw line (string contents are blanked in the
/// code portion), but only when the code portion actually calls
/// `recover` — a comment mentioning it does not count.
fn acquired_names(raw: &str, code: &str) -> Vec<String> {
    if !has_word(code, "recover") {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut rest = raw;
    while let Some(pos) = rest.find("recover(\"") {
        let tail = &rest[pos + "recover(\"".len()..];
        let Some(close) = tail.find('"') else { break };
        out.push(tail[..close].to_string());
        rest = &tail[close + 1..];
    }
    out
}

/// Enforce the declared total lock order over the resident service:
///
/// - every `Mutex`/`RwLock` field under `crates/serve/src/` has a
///   `[[lock]]` entry (and every entry matches a live field);
/// - every declared lock is actually acquired somewhere via
///   `lock::recover("<name>", ...)`, and never via a bare
///   `.lock()`/`.read()`/`.write()` on the field (those bypass poison
///   recovery and the runtime lock-order graph);
/// - no site acquires a lock whose level is ≤ the level of any guard
///   still live at that point. Guard liveness is tracked syntactically:
///   a `let`-bound guard lives to the end of its block (or an explicit
///   `drop(var)`); a temporary dies within its statement.
///
/// Locks acquired under names not in the order file (test-local
/// mutexes) are deliberately untracked.
pub fn lint_lock_order(files: &[SourceFile], order_src: &str) -> Vec<Finding> {
    let decls = match parse_lock_order(order_src) {
        Ok(d) => d,
        Err(e) => {
            return vec![Finding {
                file: "analyze/locks.toml".to_string(),
                line: 0,
                lint: "lock-order",
                message: format!("lock order parse error: {e}"),
            }]
        }
    };
    let by_name: BTreeMap<&str, &LockDecl> =
        decls.iter().map(|d| (d.name.as_str(), d)).collect();
    let mut out = Vec::new();

    // Field coverage: serve-layer lock fields ↔ [[lock]] entries.
    let mut seen_fields: Vec<(&str, String)> = Vec::new();
    for f in files {
        if !f.rel.starts_with("crates/serve/src/") {
            continue;
        }
        for (idx, raw) in f.lines.iter().enumerate() {
            let code = code_portion(raw);
            let Some(field) = lock_field_decl(&code) else { continue };
            seen_fields.push((&f.rel, field.clone()));
            if !decls.iter().any(|d| d.file == f.rel && d.field == field) {
                out.push(Finding {
                    file: f.rel.clone(),
                    line: idx + 1,
                    lint: "lock-order",
                    message: format!(
                        "lock field `{field}` has no [[lock]] entry in analyze/locks.toml — \
                         assign it a hierarchy level"
                    ),
                });
            }
        }
    }
    for d in &decls {
        if !seen_fields.iter().any(|(rel, field)| *rel == d.file && *field == d.field) {
            out.push(Finding {
                file: "analyze/locks.toml".to_string(),
                line: d.line,
                lint: "lock-order",
                message: format!(
                    "stale [[lock]] entry `{}`: no `{}: Mutex<...>` field in {}",
                    d.name, d.field, d.file
                ),
            });
        }
    }

    // Acquisition scan: order violations, recover() bypasses, and
    // never-acquired names.
    let mut names_acquired: Vec<&str> = Vec::new();
    for f in files {
        struct Held<'a> {
            depth: usize,
            decl: &'a LockDecl,
            var: Option<String>,
            line: usize,
        }
        let mut held: Vec<Held> = Vec::new();
        let mut depth = 0usize;
        for (idx, raw) in f.lines.iter().enumerate() {
            let code = code_portion(raw);
            for name in acquired_names(raw, &code) {
                let Some(decl) = by_name.get(name.as_str()).copied() else {
                    continue; // test-local mutex; untracked by design
                };
                if !names_acquired.contains(&decl.name.as_str()) {
                    names_acquired.push(&decl.name);
                }
                if !lock_order_suppressed(f, idx) {
                    for h in &held {
                        if decl.level <= h.decl.level {
                            out.push(Finding {
                                file: f.rel.clone(),
                                line: idx + 1,
                                lint: "lock-order",
                                message: format!(
                                    "acquires `{}` (level {}) while holding `{}` (level {}, \
                                     taken line {}) — the order file requires strictly \
                                     increasing levels; reorder, or justify with `{}`",
                                    decl.name,
                                    decl.level,
                                    h.decl.name,
                                    h.decl.level,
                                    h.line,
                                    LOCK_ORDER_SUPPRESSION
                                ),
                            });
                        }
                    }
                }
                // A `let`-bound guard outlives the statement; anything
                // else — including `let Some(x) = recover(..).get(..)`
                // destructurings, whose guard is a temporary — dies with
                // it. Uppercase-initial "bindings" are enum patterns.
                let t = code.trim_start();
                if let Some(rest) = t.strip_prefix("let ") {
                    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
                    let var: String = rest
                        .bytes()
                        .take_while(|b| is_ident_byte(*b))
                        .map(char::from)
                        .collect();
                    if var != "_"
                        && !var.is_empty()
                        && !var.as_bytes()[0].is_ascii_uppercase()
                    {
                        held.push(Held {
                            depth,
                            decl,
                            var: Some(var),
                            line: idx + 1,
                        });
                    }
                }
            }
            // Direct acquisition on a declared field bypasses recover().
            for d in &decls {
                if d.file != f.rel {
                    continue;
                }
                for method in ["lock", "read", "write"] {
                    if code.contains(&format!(".{}.{method}()", d.field))
                        && !lock_order_suppressed(f, idx)
                    {
                        out.push(Finding {
                            file: f.rel.clone(),
                            line: idx + 1,
                            lint: "lock-order",
                            message: format!(
                                "acquires `{}` via bare `.{method}()` — route it through \
                                 `lock::recover(\"{}\", ...)` so poison recovery and the \
                                 lock-order graph see it",
                                d.name, d.name
                            ),
                        });
                    }
                }
            }
            // Explicit drops release their guard mid-block.
            if has_word(&code, "drop") {
                held.retain(|h| match &h.var {
                    Some(v) => !code.contains(&format!("drop({v})")),
                    None => true,
                });
            }
            for c in code.chars() {
                match c {
                    '{' => depth += 1,
                    '}' => depth = depth.saturating_sub(1),
                    _ => {}
                }
            }
            // A guard bound at depth d dies when its block closes.
            held.retain(|h| h.depth <= depth);
        }
    }
    for d in &decls {
        if !names_acquired.contains(&d.name.as_str()) {
            out.push(Finding {
                file: "analyze/locks.toml".to_string(),
                line: d.line,
                lint: "lock-order",
                message: format!(
                    "`{}` is declared but never acquired via `lock::recover(\"{}\", ...)`",
                    d.name, d.name
                ),
            });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Scanner + driver
// ---------------------------------------------------------------------------

fn excluded(rel: &str) -> bool {
    rel.starts_with("vendor/")
        || rel.starts_with("target/")
        || rel.contains("/target/")
        || rel.starts_with("crates/analyze")
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        if excluded(&rel) {
            continue;
        }
        if path.is_dir() {
            walk(&path, root, out);
        } else if rel.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// Load every scanned `.rs` file under the repo root, sorted by path.
pub fn load_sources(root: &Path) -> Result<Vec<SourceFile>, String> {
    let mut paths = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            walk(&dir, root, &mut paths);
        }
    }
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for p in paths {
        let src = fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        let rel = p
            .strip_prefix(root)
            .unwrap_or(&p)
            .to_string_lossy()
            .replace('\\', "/");
        files.push(SourceFile::from_str(&rel, &src));
    }
    Ok(files)
}

/// Run every lint against the repo at `root`.
pub fn run_all(root: &Path) -> Result<Vec<Finding>, String> {
    let files = load_sources(root)?;
    let allowlist = fs::read_to_string(root.join("analyze/atomics.toml"))
        .map_err(|e| format!("analyze/atomics.toml: {e}"))?;
    let lock_order = fs::read_to_string(root.join("analyze/locks.toml"))
        .map_err(|e| format!("analyze/locks.toml: {e}"))?;

    let mut findings = Vec::new();
    for f in &files {
        findings.extend(lint_safety(f));
        findings.extend(lint_hot_path_locks(f));
    }
    findings.extend(lint_atomics(&files, &allowlist));
    findings.extend(lint_lock_order(&files, &lock_order));

    let run_rs = files
        .iter()
        .find(|f| f.rel == "crates/core/src/run.rs")
        .ok_or("crates/core/src/run.rs not found")?;
    let determinism = fs::read_to_string(root.join("tests/determinism.rs"))
        .map_err(|e| format!("tests/determinism.rs: {e}"))?;
    findings.extend(lint_impl_coverage(run_rs, &determinism));

    let guard_rs = files
        .iter()
        .find(|f| f.rel == "crates/core/src/guard.rs")
        .ok_or("crates/core/src/guard.rs not found")?;
    let protocol_rs = files
        .iter()
        .find(|f| f.rel == "crates/serve/src/protocol.rs")
        .ok_or("crates/serve/src/protocol.rs not found")?;
    findings.extend(lint_wire_codes(guard_rs, protocol_rs));
    findings.extend(lint_opcode_coverage(protocol_rs, &files));

    findings.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    Ok(findings)
}

/// Observed `Ordering::` sites across the repo, in `atomics.toml` entry
/// order — the `--list-atomics` dump used to (re)populate the allowlist.
///
/// The `reason` line is emitted commented out: an entry pasted verbatim
/// fails [`parse_allowlist`] with a missing-`reason` error instead of
/// slipping a placeholder justification past the lint (and
/// [`parse_allowlist`] rejects literal `TODO` reasons besides).
pub fn list_atomics(root: &Path) -> Result<String, String> {
    let files = load_sources(root)?;
    let mut out = String::new();
    for f in &files {
        for (ord, n) in count_atomics(f) {
            out.push_str(&format!(
                "[[site]]\nfile = \"{}\"\nordering = \"{ord}\"\ncount = {n}\n\
                 # reason = \"REQUIRED: why {ord} is sufficient at these sites\"\n\n",
                f.rel
            ));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sf(rel: &str, src: &str) -> SourceFile {
        SourceFile::from_str(rel, src)
    }

    // -- lint 1 ----------------------------------------------------------

    #[test]
    fn flags_unsafe_without_safety_comment() {
        let f = sf(
            "crates/x/src/lib.rs",
            "fn f(p: *mut u8) {\n    unsafe { *p = 0 };\n}\n",
        );
        let fs = lint_safety(&f);
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].line, 2);
        assert_eq!(fs[0].lint, "safety-comment");
    }

    #[test]
    fn safety_comment_above_or_inline_is_accepted() {
        let above = sf(
            "a.rs",
            "// SAFETY: p is valid for writes by contract.\nunsafe { *p = 0 };\n",
        );
        assert!(lint_safety(&above).is_empty());
        let inline = sf("b.rs", "let v = unsafe { x.get() }; // SAFETY: unique owner\n");
        assert!(lint_safety(&inline).is_empty());
        let doc_section = sf(
            "c.rs",
            "/// # Safety\n/// Caller must outlive the scope.\n#[inline]\nunsafe fn g() {}\n",
        );
        assert!(lint_safety(&doc_section).is_empty());
    }

    #[test]
    fn unsafe_in_comment_or_string_is_ignored() {
        let f = sf(
            "a.rs",
            "// this mentions unsafe casually\nlet s = \"unsafe\";\n",
        );
        assert!(lint_safety(&f).is_empty());
    }

    #[test]
    fn non_adjacent_safety_comment_does_not_count() {
        let f = sf(
            "a.rs",
            "// SAFETY: stale note\nlet x = 1;\nunsafe { drop_raw(x) };\n",
        );
        assert_eq!(lint_safety(&f).len(), 1);
    }

    // -- lint 2 ----------------------------------------------------------

    const GOOD_LIST: &str = r#"
# header
[[site]]
file = "crates/x/src/a.rs"
ordering = "Relaxed"
count = 2
reason = "heuristic counter, never load-acquired"
"#;

    #[test]
    fn atomics_clean_when_counts_match() {
        let f = sf(
            "crates/x/src/a.rs",
            "a.fetch_add(1, Ordering::Relaxed);\nb.store(0, Ordering::Relaxed);\n",
        );
        assert!(lint_atomics(&[f], GOOD_LIST).is_empty());
    }

    #[test]
    fn flags_unlisted_and_drifted_orderings() {
        let unlisted = sf("crates/x/src/b.rs", "a.load(Ordering::SeqCst);\n");
        let fs = lint_atomics(&[unlisted], GOOD_LIST);
        // one unlisted site + one stale entry (a.rs has no sites at all)
        assert_eq!(fs.len(), 2);
        assert!(fs.iter().any(|f| f.message.contains("not justified")));
        assert!(fs.iter().any(|f| f.message.contains("stale entry")));

        let drifted = sf(
            "crates/x/src/a.rs",
            "a.fetch_add(1, Ordering::Relaxed);\n",
        );
        let fs = lint_atomics(&[drifted], GOOD_LIST);
        assert_eq!(fs.len(), 1);
        assert!(fs[0].message.contains("count drifted"));
    }

    #[test]
    fn cmp_ordering_is_out_of_scope() {
        let f = sf(
            "crates/x/src/c.rs",
            "match a.cmp(&b) { Ordering::Less => {} _ => {} }\n",
        );
        assert!(count_atomics(&f).is_empty());
    }

    #[test]
    fn allowlist_rejects_empty_reason_and_bad_ordering() {
        let empty = "[[site]]\nfile = \"a.rs\"\nordering = \"Relaxed\"\ncount = 1\nreason = \"\"\n";
        assert!(parse_allowlist(empty).is_err());
        let bad = "[[site]]\nfile = \"a.rs\"\nordering = \"Sequential\"\ncount = 1\nreason = \"x\"\n";
        assert!(parse_allowlist(bad).is_err());
    }

    #[test]
    fn allowlist_rejects_todo_placeholder_reasons() {
        let todo =
            "[[site]]\nfile = \"a.rs\"\nordering = \"Relaxed\"\ncount = 1\nreason = \"TODO\"\n";
        let err = parse_allowlist(todo).unwrap_err();
        assert!(err.contains("TODO placeholder"), "{err}");
        let todo_ish = "[[site]]\nfile = \"a.rs\"\nordering = \"Relaxed\"\ncount = 1\n\
                        reason = \"TODO: audit this later\"\n";
        assert!(parse_allowlist(todo_ish).is_err());
    }

    #[test]
    fn list_atomics_template_cannot_be_pasted_without_a_reason() {
        // The dump's entry shape, as emitted by list_atomics: the reason
        // line is a comment, so verbatim pasting fails with a
        // missing-required-field error rather than parsing with a
        // placeholder justification.
        let template = "[[site]]\nfile = \"crates/x/src/a.rs\"\nordering = \"Relaxed\"\n\
                        count = 2\n# reason = \"REQUIRED: why Relaxed is sufficient at these sites\"\n";
        let err = parse_allowlist(template).unwrap_err();
        assert!(err.contains("missing `reason`"), "{err}");
    }

    // -- lint 3 ----------------------------------------------------------

    #[test]
    fn flags_mutex_in_hot_path_and_honors_suppression() {
        let bad = sf(
            "crates/core/src/reqbuf.rs",
            "use parking_lot::Mutex;\nstatic L: Mutex<()> = Mutex::new(());\n",
        );
        let fs = lint_hot_path_locks(&bad);
        assert_eq!(fs.len(), 2);
        assert!(fs.iter().all(|f| f.lint == "hot-path-lock"));

        let ok = sf(
            "crates/core/src/repro/parallel.rs",
            "// lint:allow(hot-path-lock): cold merge path only\nuse parking_lot::Mutex;\n",
        );
        assert!(lint_hot_path_locks(&ok).is_empty());

        let elsewhere = sf("crates/core/src/repro/buckets.rs", "use std::sync::Mutex;\n");
        assert!(lint_hot_path_locks(&elsewhere).is_empty());

        // The dense-pull kernel and the density oracle are hot paths too.
        let pull = sf("crates/core/src/pull.rs", "use std::sync::Mutex;\n");
        assert_eq!(lint_hot_path_locks(&pull).len(), 1);
        let oracle = sf("crates/gblas/src/direction.rs", "use std::sync::RwLock;\n");
        assert_eq!(lint_hot_path_locks(&oracle).len(), 1);

        // The generalized stepping loop joined the ban with the
        // strategy framework: its extraction scan is per-vertex work.
        let stepping = sf("crates/core/src/stepping.rs", "use std::sync::Mutex;\n");
        assert_eq!(lint_hot_path_locks(&stepping).len(), 1);
        // So did the split module, with the chunked split build.
        let split = sf("crates/core/src/fused.rs", "use std::sync::Mutex;\n");
        assert_eq!(lint_hot_path_locks(&split).len(), 1);
    }

    // -- lint 4 ----------------------------------------------------------

    const MINI_RUN_RS: &str = r#"
pub enum Implementation {
    Canonical,
    Fused,
}
impl Implementation {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "delta" | "canonical" => Some(Implementation::Canonical),
            "fused" => Some(Implementation::Fused),
            _ => None,
        }
    }
    pub fn name(self) -> &'static str {
        match self {
            Implementation::Canonical => "canonical",
            Implementation::Fused => "fused",
        }
    }
}
pub fn run_with_budget(imp: Implementation) {
    match imp {
        Implementation::Canonical => {}
        Implementation::Fused => {}
    }
}
"#;

    #[test]
    fn impl_coverage_clean_on_complete_front_door() {
        let run = sf("crates/core/src/run.rs", MINI_RUN_RS);
        let det = "let names = [\"canonical\", \"fused\"];";
        assert!(lint_impl_coverage(&run, det).is_empty());
    }

    #[test]
    fn impl_coverage_flags_missing_dispatch_and_missing_test_literal() {
        let broken = MINI_RUN_RS.replace(
            "        Implementation::Fused => {}\n    }\n}",
            "        _ => {}\n    }\n}",
        );
        let run = sf("crates/core/src/run.rs", &broken);
        let det = "let names = [\"canonical\"];";
        let fs = lint_impl_coverage(&run, det);
        assert!(
            fs.iter()
                .any(|f| f.message.contains("`Fused` is not dispatched")),
            "{fs:?}"
        );
        assert!(
            fs.iter()
                .any(|f| f.message.contains("\"fused\" is not covered")),
            "{fs:?}"
        );
    }

    // -- lint 5 ----------------------------------------------------------

    const MINI_GUARD_RS: &str = r#"
pub enum SsspError {
    InvalidDelta {
        delta: f64,
    },
    Cancelled {
        checkpoint: Box<Checkpoint>,
    },
    WorkerPanicked {
        message: String,
    },
}
"#;

    const MINI_WIRE_RS: &str = r#"
pub fn wire_code(err: &SsspError) -> u8 {
    match err {
        SsspError::InvalidDelta { .. } => 14,
        SsspError::Cancelled { .. } => 16,
        SsspError::WorkerPanicked { .. } => 20,
    }
}
"#;

    #[test]
    fn wire_codes_clean_on_exhaustive_mapping() {
        let guard = sf("crates/core/src/guard.rs", MINI_GUARD_RS);
        let wire = sf("crates/serve/src/protocol.rs", MINI_WIRE_RS);
        assert!(lint_wire_codes(&guard, &wire).is_empty());
    }

    #[test]
    fn wire_codes_flag_missing_variant_and_wildcard_arm() {
        let guard = sf("crates/core/src/guard.rs", MINI_GUARD_RS);
        let lossy = MINI_WIRE_RS.replace(
            "        SsspError::WorkerPanicked { .. } => 20,",
            "        _ => 0,",
        );
        let wire = sf("crates/serve/src/protocol.rs", &lossy);
        let fs = lint_wire_codes(&guard, &wire);
        assert!(
            fs.iter().any(|f| f.message.contains("`SsspError::WorkerPanicked` has no arm")),
            "{fs:?}"
        );
        assert!(
            fs.iter().any(|f| f.message.contains("wildcard `_ =>` arm")),
            "{fs:?}"
        );
        assert!(fs.iter().all(|f| f.lint == "wire-code-coverage"));
    }

    #[test]
    fn wire_codes_flag_a_missing_mapping_function_entirely() {
        let guard = sf("crates/core/src/guard.rs", MINI_GUARD_RS);
        let wire = sf("crates/serve/src/protocol.rs", "pub fn other() {}\n");
        let fs = lint_wire_codes(&guard, &wire);
        assert_eq!(fs.len(), 1);
        assert!(fs[0].message.contains("could not locate `pub fn wire_code`"), "{fs:?}");
    }

    // -- lint 6 ----------------------------------------------------------

    const MINI_PROTOCOL_RS: &str = r#"
pub mod opcode {
    /// Liveness probe.
    pub const PING: u8 = 0x02;
    /// Readiness/health probe.
    pub const HEALTH: u8 = 0x09;
}
pub fn encode(op: u8) -> u8 {
    match op {
        0 => opcode::PING,
        _ => opcode::HEALTH,
    }
}
pub fn decode(op: u8) -> bool {
    op == opcode::PING || op == opcode::HEALTH
}
"#;

    #[test]
    fn opcode_coverage_clean_when_every_opcode_is_encoded_and_decoded() {
        let proto = sf("crates/serve/src/protocol.rs", MINI_PROTOCOL_RS);
        let files = [sf("crates/serve/src/protocol.rs", MINI_PROTOCOL_RS)];
        assert!(lint_opcode_coverage(&proto, &files).is_empty());
    }

    #[test]
    fn opcode_coverage_flags_a_declared_but_half_wired_opcode() {
        // HEALTH loses its decode arm: one reference left, below the
        // two-sided (encode + decode) floor.
        let half = MINI_PROTOCOL_RS.replace("op == opcode::PING || op == opcode::HEALTH", "op == opcode::PING && op == opcode::PING");
        let proto = sf("crates/serve/src/protocol.rs", &half);
        let files = [sf("crates/serve/src/protocol.rs", &half)];
        let fs = lint_opcode_coverage(&proto, &files);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].lint, "opcode-coverage");
        assert!(fs[0].message.contains("`HEALTH` has 1"), "{fs:?}");
        // The finding points at the declaration line inside the mod.
        assert!(fs[0].line > 0);
    }

    #[test]
    fn opcode_coverage_counts_references_from_other_files_but_not_the_mod() {
        // Strip decode entirely: PING and HEALTH keep one in-file
        // reference each; a second file supplies HEALTH's other use, so
        // only PING is flagged. Mentions inside the mod (the consts
        // themselves) and in comments never count.
        let enc_only = MINI_PROTOCOL_RS.replace(
            "pub fn decode(op: u8) -> bool {\n    op == opcode::PING || op == opcode::HEALTH\n}",
            "// decode gone; opcode::PING in a comment stays invisible\n",
        );
        let proto = sf("crates/serve/src/protocol.rs", &enc_only);
        let files = [
            sf("crates/serve/src/protocol.rs", &enc_only),
            sf(
                "crates/serve/src/server.rs",
                "fn probe() -> u8 { crate::protocol::opcode::HEALTH }\n",
            ),
        ];
        let fs = lint_opcode_coverage(&proto, &files);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert!(fs[0].message.contains("`PING` has 1"), "{fs:?}");
    }

    #[test]
    fn opcode_coverage_flags_a_missing_opcode_mod() {
        let proto = sf("crates/serve/src/protocol.rs", "pub fn other() {}\n");
        let fs = lint_opcode_coverage(&proto, &[]);
        assert_eq!(fs.len(), 1);
        assert!(fs[0].message.contains("could not locate `pub mod opcode`"), "{fs:?}");
    }

    // -- lint 7 ----------------------------------------------------------

    const MINI_LOCKS_TOML: &str = r#"
[[lock]]
name = "queue.state"
file = "crates/serve/src/queue.rs"
field = "state"
level = 10
reason = "innermost"

[[lock]]
name = "gauges"
file = "crates/serve/src/server.rs"
field = "gauges"
level = 40
reason = "terminal"
"#;

    const MINI_QUEUE_RS: &str = "\
pub struct Q {\n    state: Mutex<u32>,\n}\n\
impl Q {\n    fn touch(&self) {\n        let s = lock::recover(\"queue.state\", &self.state);\n    }\n}\n";

    const MINI_SERVER_RS: &str = "\
pub struct S {\n    gauges: Mutex<u32>,\n}\n\
impl S {\n    fn ordered(&self, q: &Q) {\n        let s = lock::recover(\"queue.state\", &q.state);\n        let g = lock::recover(\"gauges\", &self.gauges);\n    }\n}\n";

    #[test]
    fn lock_order_clean_on_an_ordered_repo() {
        let files = [
            sf("crates/serve/src/queue.rs", MINI_QUEUE_RS),
            sf("crates/serve/src/server.rs", MINI_SERVER_RS),
        ];
        let fs = lint_lock_order(&files, MINI_LOCKS_TOML);
        assert!(fs.is_empty(), "{fs:?}");
    }

    /// The negative fixture: a snippet that takes the locks in inverted
    /// order must be flagged, with both levels and the holding site in
    /// the message.
    #[test]
    fn lock_order_flags_an_inverted_acquisition() {
        let inverted = "\
pub struct S {\n    gauges: Mutex<u32>,\n}\n\
impl S {\n    fn inverted(&self, q: &Q) {\n        let g = lock::recover(\"gauges\", &self.gauges);\n        let s = lock::recover(\"queue.state\", &q.state);\n    }\n}\n";
        let files = [
            sf("crates/serve/src/queue.rs", MINI_QUEUE_RS),
            sf("crates/serve/src/server.rs", inverted),
        ];
        let fs = lint_lock_order(&files, MINI_LOCKS_TOML);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].lint, "lock-order");
        assert_eq!(fs[0].file, "crates/serve/src/server.rs");
        assert_eq!(fs[0].line, 7);
        assert!(
            fs[0].message.contains("`queue.state` (level 10)")
                && fs[0].message.contains("`gauges` (level 40"),
            "{fs:?}"
        );
    }

    #[test]
    fn lock_order_honors_the_lockorder_escape_hatch_and_keeps_tracking() {
        // The justified inversion in f() is accepted; the identical
        // unjustified one in g() is still flagged.
        let locks = concat!(
            "[[lock]]\nname = \"a\"\nfile = \"crates/serve/src/x.rs\"\nfield = \"a_lock\"\n",
            "level = 10\nreason = \"first\"\n",
            "[[lock]]\nname = \"b\"\nfile = \"crates/serve/src/x.rs\"\nfield = \"b_lock\"\n",
            "level = 20\nreason = \"second\"\n",
        );
        let src = "\
pub struct X {\n    a_lock: Mutex<u32>,\n    b_lock: Mutex<u32>,\n}\n\
impl X {\n    fn f(&self) {\n        let b = lock::recover(\"b\", &self.b_lock);\n        // LOCKORDER: drain answers clients before counters update\n        let a = lock::recover(\"a\", &self.a_lock);\n    }\n    fn g(&self) {\n        let b = lock::recover(\"b\", &self.b_lock);\n        let a = lock::recover(\"a\", &self.a_lock);\n    }\n}\n";
        let files = [sf("crates/serve/src/x.rs", src)];
        let fs = lint_lock_order(&files, locks);
        assert_eq!(fs.len(), 1, "{fs:?}");
        assert_eq!(fs[0].line, 13, "only the unjustified inversion in g() is flagged");
    }

    #[test]
    fn lock_order_releases_on_drop_and_block_close() {
        let locks = concat!(
            "[[lock]]\nname = \"a\"\nfile = \"crates/serve/src/x.rs\"\nfield = \"a_lock\"\n",
            "level = 10\nreason = \"first\"\n",
            "[[lock]]\nname = \"b\"\nfile = \"crates/serve/src/x.rs\"\nfield = \"b_lock\"\n",
            "level = 20\nreason = \"second\"\n",
        );
        // b is taken first both times, but once behind a drop() and once
        // in a closed block — a is acquired with nothing held.
        let src = "\
pub struct X {\n    a_lock: Mutex<u32>,\n    b_lock: Mutex<u32>,\n}\n\
impl X {\n    fn dropped(&self) {\n        let b = lock::recover(\"b\", &self.b_lock);\n        drop(b);\n        let a = lock::recover(\"a\", &self.a_lock);\n    }\n    fn scoped(&self) {\n        {\n            let b = lock::recover(\"b\", &self.b_lock);\n        }\n        let a = lock::recover(\"a\", &self.a_lock);\n    }\n}\n";
        let files = [sf("crates/serve/src/x.rs", src)];
        let fs = lint_lock_order(&files, locks);
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn lock_order_flags_unmapped_fields_stale_entries_and_bare_locks() {
        let files = [
            sf(
                "crates/serve/src/queue.rs",
                "pub struct Q {\n    state: Mutex<u32>,\n    extra: RwLock<u32>,\n}\n\
                 impl Q {\n    fn f(&self) {\n        let s = lock::recover(\"queue.state\", &self.state);\n        let x = self.state.lock().unwrap();\n    }\n}\n",
            ),
            // server.rs (and its gauges field) gone entirely.
            sf("crates/serve/src/other.rs", "fn nothing() {}\n"),
        ];
        let fs = lint_lock_order(&files, MINI_LOCKS_TOML);
        assert!(
            fs.iter().any(|f| f.message.contains("`extra` has no [[lock]] entry")),
            "{fs:?}"
        );
        assert!(
            fs.iter().any(|f| f.file == "analyze/locks.toml"
                && f.message.contains("stale [[lock]] entry `gauges`")),
            "{fs:?}"
        );
        assert!(
            fs.iter().any(|f| f.file == "analyze/locks.toml"
                && f.message.contains("`gauges` is declared but never acquired")),
            "{fs:?}"
        );
        assert!(
            fs.iter()
                .any(|f| f.line == 8 && f.message.contains("bare `.lock()`")),
            "{fs:?}"
        );
    }

    #[test]
    fn lock_order_ignores_guards_mutex_new_and_fn_params() {
        // None of these lines declare a lock field: a MutexGuard field,
        // a Mutex::new initializer, a &Mutex parameter, a let binding.
        let src = "\
pub struct G<'a> {\n    inner: Option<MutexGuard<'a, u32>>,\n}\n\
fn build() {\n    let s = Something { state: Mutex::new(0) };\n}\n\
fn takes(m: &Mutex<u32>) {}\n\
fn local() {\n    let state: Mutex<u32> = Mutex::new(0);\n}\n";
        let files = [sf("crates/serve/src/lockish.rs", src)];
        let locks = "";
        let fs = lint_lock_order(&files, locks);
        // `let state: Mutex<u32>` is a local, not a field — but the
        // declframe heuristic sees `state: Mutex<`. The `let ` prefix
        // must exempt it.
        assert!(fs.is_empty(), "{fs:?}");
    }

    #[test]
    fn lock_order_file_rejects_duplicates_and_placeholders() {
        let dup_level = concat!(
            "[[lock]]\nname = \"a\"\nfile = \"f.rs\"\nfield = \"a\"\nlevel = 10\nreason = \"x\"\n",
            "[[lock]]\nname = \"b\"\nfile = \"f.rs\"\nfield = \"b\"\nlevel = 10\nreason = \"y\"\n",
        );
        assert!(parse_lock_order(dup_level).unwrap_err().contains("share level 10"));
        let dup_name = concat!(
            "[[lock]]\nname = \"a\"\nfile = \"f.rs\"\nfield = \"a\"\nlevel = 10\nreason = \"x\"\n",
            "[[lock]]\nname = \"a\"\nfile = \"g.rs\"\nfield = \"b\"\nlevel = 20\nreason = \"y\"\n",
        );
        assert!(parse_lock_order(dup_name).unwrap_err().contains("duplicate lock name"));
        let todo = "[[lock]]\nname = \"a\"\nfile = \"f.rs\"\nfield = \"a\"\nlevel = 10\nreason = \"TODO\"\n";
        assert!(parse_lock_order(todo).unwrap_err().contains("TODO placeholder"));
        let unparsed = lint_lock_order(&[], "level = 1\n");
        assert_eq!(unparsed.len(), 1);
        assert!(unparsed[0].message.contains("parse error"), "{unparsed:?}");
    }

    // -- findings carry real lines (satellite) ----------------------------

    #[test]
    fn atomics_findings_point_at_a_source_line_and_the_toml_entry() {
        let unlisted = sf(
            "crates/x/src/b.rs",
            "// comment\nfn f(a: &AtomicU64) {\n    a.load(Ordering::SeqCst);\n}\n",
        );
        let fs = lint_atomics(&[unlisted], GOOD_LIST);
        let site = fs.iter().find(|f| f.message.contains("not justified")).unwrap();
        assert_eq!((site.file.as_str(), site.line), ("crates/x/src/b.rs", 3));
        // GOOD_LIST's [[site]] header sits on line 3 of the literal.
        let stale = fs.iter().find(|f| f.message.contains("stale entry")).unwrap();
        assert_eq!((stale.file.as_str(), stale.line), ("analyze/atomics.toml", 3));
    }

    #[test]
    fn wire_code_findings_point_at_the_mapping() {
        let guard = sf("crates/core/src/guard.rs", MINI_GUARD_RS);
        let lossy = MINI_WIRE_RS.replace(
            "        SsspError::WorkerPanicked { .. } => 20,",
            "        _ => 0,",
        );
        let wire = sf("crates/serve/src/protocol.rs", &lossy);
        let fs = lint_wire_codes(&guard, &wire);
        let missing = fs.iter().find(|f| f.message.contains("has no arm")).unwrap();
        assert_eq!(missing.line, 2, "points at `pub fn wire_code`");
        let wildcard = fs.iter().find(|f| f.message.contains("wildcard")).unwrap();
        assert_eq!(wildcard.line, 6, "points at the `_ =>` arm itself");
    }

    // -- self-test: the repo itself is clean ------------------------------

    #[test]
    fn repo_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .unwrap();
        let findings = run_all(&root).expect("lint run");
        assert!(
            findings.is_empty(),
            "repo has lint findings:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}
