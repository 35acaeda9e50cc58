//! The rule engine: file classification, the six rule families, and
//! pragma suppression.
//!
//! Every rule works on the flat token stream from [`crate::lexer`], so
//! comments and string literals can never trigger a finding. Scoping is
//! by *crate directory* and *section* (src vs tests/benches/examples),
//! and `#[cfg(test)]` modules inside `src/` are carved out for the
//! rules that only govern library code.
//!
//! | rule | contract |
//! |------|----------|
//! | D1   | no `Instant`/`SystemTime` outside `crates/bench` |
//! | D2   | no `HashMap`/`HashSet` in Outcome-producing crates (hash-order iteration breaks replay) |
//! | D3   | no ambient-entropy RNG construction (`from_entropy`, `thread_rng`, `OsRng`, …) |
//! | P1   | no bare `unwrap()` / `expect("")` in library code of core/parallel/reloc/rng |
//! | N1   | no narrowing `as` casts to ≤32-bit integers in core/parallel load arithmetic |
//! | C1   | `unsafe`/atomics/memory orderings demand adjacent `// SAFETY:`/`// ORDERING:`; `src/lib.rs` must `#![forbid(unsafe_code)]` |
//! | C2   | CAS retry loops (`compare_exchange`/`compare_exchange_weak`/`fetch_update`) demand an adjacent `// RETRY:` termination argument |
//!
//! Suppression: `// lint:allow(RULE): justification` on the offending
//! line or the line directly above. The justification is mandatory —
//! an empty one is itself a finding (rule `pragma`).

use crate::lexer::{lex, Comment, Lexed, Token, TokenKind};

/// Which part of a crate a file lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Section {
    /// `src/` — library or binary code shipped by the crate.
    Src,
    /// `tests/` integration tests.
    Tests,
    /// `benches/` benchmarks.
    Benches,
    /// `examples/`.
    Examples,
    /// Anything else (build scripts, top-level files).
    Other,
}

/// One audited source file, classified and lexed.
pub struct SourceFile {
    /// Workspace-relative path with forward slashes.
    pub rel_path: String,
    /// Crate directory key: `core`, `parallel`, `compat/proptest`, `lint`,
    /// or `root` for the top-level package.
    pub crate_dir: String,
    /// Which section of the crate the file is in.
    pub section: Section,
    /// Token stream and comments.
    pub lexed: Lexed,
    /// Inclusive line ranges covered by `#[cfg(test)]` items.
    pub test_lines: Vec<(u32, u32)>,
}

/// A single rule violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`D1`, `P1`, `pragma`, `allowlist`, …).
    pub rule: &'static str,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-oriented description with the repair direction.
    pub message: String,
}

/// A parsed `lint:allow` pragma.
#[derive(Debug, Clone)]
pub struct Pragma {
    /// Rules the pragma names.
    pub rules: Vec<String>,
    /// Line the pragma comment starts on.
    pub line: u32,
    /// Whether a non-empty justification followed the rule list.
    pub justified: bool,
}

impl SourceFile {
    /// Classifies and lexes `src` as the file at `rel_path`.
    pub fn parse(rel_path: &str, src: &str) -> Self {
        let (crate_dir, section) = classify(rel_path);
        let lexed = lex(src);
        let test_lines = cfg_test_ranges(&lexed.tokens);
        Self {
            rel_path: rel_path.to_string(),
            crate_dir,
            section,
            lexed,
            test_lines,
        }
    }

    fn in_test_code(&self, line: u32) -> bool {
        self.section != Section::Src
            || self
                .test_lines
                .iter()
                .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }
}

/// Derives `(crate_dir, section)` from a workspace-relative path.
fn classify(rel_path: &str) -> (String, Section) {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let (crate_dir, rest) = if parts.first() == Some(&"crates") {
        if parts.get(1) == Some(&"compat") && parts.len() > 3 {
            (format!("compat/{}", parts[2]), &parts[3..])
        } else if parts.len() > 2 {
            (parts[1].to_string(), &parts[2..])
        } else {
            ("root".to_string(), &parts[1..])
        }
    } else {
        ("root".to_string(), &parts[..])
    };
    let section = match rest.first() {
        Some(&"src") => Section::Src,
        Some(&"tests") => Section::Tests,
        Some(&"benches") => Section::Benches,
        Some(&"examples") => Section::Examples,
        _ => Section::Other,
    };
    (crate_dir, section)
}

/// Finds inclusive line ranges of items annotated `#[cfg(test)]` (or
/// any `cfg(…)` whose argument list mentions `test`): the attribute,
/// optional further attributes, then the next braced item.
fn cfg_test_ranges(tokens: &[Token]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0;
    while i < tokens.len() {
        if let Some(after_attr) = match_cfg_test_attr(tokens, i) {
            // Skip any further attributes on the same item.
            let mut j = after_attr;
            while tokens.get(j).is_some_and(|t| t.text == "#") {
                j = skip_attr(tokens, j);
            }
            // Find the item's opening brace (before any `;`, which
            // would mean a braceless item like `mod tests;`).
            let mut k = j;
            while let Some(t) = tokens.get(k) {
                if t.text == ";" {
                    break;
                }
                if t.text == "{" {
                    let end = matching_brace(tokens, k);
                    ranges.push((tokens[i].line, tokens[end.min(tokens.len() - 1)].line));
                    break;
                }
                k += 1;
            }
            i = after_attr;
        } else {
            i += 1;
        }
    }
    ranges
}

/// If `tokens[i..]` starts a `#[cfg(…test…)]` attribute, returns the
/// index just past its closing `]`.
fn match_cfg_test_attr(tokens: &[Token], i: usize) -> Option<usize> {
    if tokens.get(i)?.text != "#" || tokens.get(i + 1)?.text != "[" {
        return None;
    }
    if tokens.get(i + 2)?.text != "cfg" || tokens.get(i + 3)?.text != "(" {
        return None;
    }
    let close = matching_delim(tokens, i + 3, "(", ")");
    let mentions_test = tokens[i + 3..=close.min(tokens.len() - 1)]
        .iter()
        .any(|t| t.kind == TokenKind::Ident && t.text == "test");
    if !mentions_test {
        return None;
    }
    // Past the `)` there must be the attribute's `]`.
    let after = close + 1;
    if tokens.get(after).is_some_and(|t| t.text == "]") {
        Some(after + 1)
    } else {
        None
    }
}

/// Skips a `#[…]` attribute starting at `i`, returning the index just
/// past its `]`. Returns `i + 1` if no attribute starts here.
fn skip_attr(tokens: &[Token], i: usize) -> usize {
    if tokens.get(i).is_some_and(|t| t.text == "#")
        && tokens.get(i + 1).is_some_and(|t| t.text == "[")
    {
        matching_delim(tokens, i + 1, "[", "]") + 1
    } else {
        i + 1
    }
}

/// Index of the delimiter matching `tokens[open_idx]`; saturates at the
/// last token on unbalanced input.
fn matching_delim(tokens: &[Token], open_idx: usize, open: &str, close: &str) -> usize {
    let mut depth = 0usize;
    for (k, t) in tokens.iter().enumerate().skip(open_idx) {
        if t.text == open {
            depth += 1;
        } else if t.text == close {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    tokens.len().saturating_sub(1)
}

fn matching_brace(tokens: &[Token], open_idx: usize) -> usize {
    matching_delim(tokens, open_idx, "{", "}")
}

/// Parses every `lint:allow(…)` pragma out of the file's comments.
pub fn pragmas(comments: &[Comment]) -> Vec<Pragma> {
    let mut out = Vec::new();
    for c in comments {
        // Only a comment that *is* a pragma counts — prose that merely
        // mentions `lint:allow(…)` (docs, this file) is ignored.
        let body = c.text.trim_start_matches(['/', '*', '!']).trim_start();
        let Some(rest) = body.strip_prefix("lint:allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        let rules: Vec<String> = rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        let tail = rest[close + 1..].trim_start();
        let justified = tail
            .strip_prefix(':')
            .map(str::trim)
            .is_some_and(|j| !j.is_empty());
        out.push(Pragma {
            rules,
            line: c.line,
            justified,
        });
    }
    out
}

/// The crates whose results feed `Outcome` records; hash-order
/// iteration anywhere in them (tests included — the equivalence suites
/// compare distributions) risks run-to-run nondeterminism.
const OUTCOME_CRATES: &[&str] = &["core", "parallel", "reloc", "bench", "root"];

/// The crates whose `src/` is governed by the panic policy (P1).
const PANIC_POLICY_CRATES: &[&str] = &["core", "parallel", "reloc", "rng"];

/// The crates whose `src/` is governed by the narrowing-cast rule (N1).
const CAST_CRATES: &[&str] = &["core", "parallel"];

/// Crates allowed to read wall clocks (D1): the bench harness measures
/// time by definition.
const CLOCK_CRATES: &[&str] = &["bench"];

/// All rule identifiers a pragma or allowlist entry may name.
pub const RULE_IDS: &[&str] = &["D1", "D2", "D3", "P1", "N1", "C1", "C2"];

/// Runs every rule over one file and returns the *unsuppressed*
/// findings (pragma handling included).
pub fn check_file(file: &SourceFile) -> Vec<Finding> {
    let mut raw = Vec::new();
    rule_d1(file, &mut raw);
    rule_d2(file, &mut raw);
    rule_d3(file, &mut raw);
    rule_p1(file, &mut raw);
    rule_n1(file, &mut raw);
    rule_c1(file, &mut raw);
    rule_c2(file, &mut raw);
    apply_pragmas(file, raw)
}

/// Drops findings covered by a justified pragma on the same or the
/// preceding line; flags unjustified or unknown-rule pragmas.
fn apply_pragmas(file: &SourceFile, raw: Vec<Finding>) -> Vec<Finding> {
    let pragmas = pragmas(&file.lexed.comments);
    let mut out: Vec<Finding> = raw
        .into_iter()
        .filter(|f| {
            !pragmas.iter().any(|p| {
                p.justified
                    && p.rules.iter().any(|r| r == f.rule)
                    && (p.line == f.line || p.line + 1 == f.line)
            })
        })
        .collect();
    for p in &pragmas {
        if !p.justified {
            out.push(Finding {
                rule: "pragma",
                file: file.rel_path.clone(),
                line: p.line,
                message: format!(
                    "lint:allow({}) needs a justification: `// lint:allow({}): <why this is sound>`",
                    p.rules.join(", "),
                    p.rules.join(", "),
                ),
            });
        }
        for r in &p.rules {
            if !RULE_IDS.contains(&r.as_str()) {
                out.push(Finding {
                    rule: "pragma",
                    file: file.rel_path.clone(),
                    line: p.line,
                    message: format!("lint:allow names unknown rule `{r}` (known: {RULE_IDS:?})"),
                });
            }
        }
    }
    out.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    out
}

fn finding(file: &SourceFile, rule: &'static str, line: u32, message: String) -> Finding {
    Finding {
        rule,
        file: file.rel_path.clone(),
        line,
        message,
    }
}

/// D1 — wall-clock types leak nondeterminism into anything they touch;
/// only the bench harness may measure time.
fn rule_d1(file: &SourceFile, out: &mut Vec<Finding>) {
    if CLOCK_CRATES.contains(&file.crate_dir.as_str()) {
        return;
    }
    for t in idents(&file.lexed.tokens) {
        if t.text == "Instant" || t.text == "SystemTime" {
            out.push(finding(
                file,
                "D1",
                t.line,
                format!(
                    "`{}` outside crates/bench: wall clocks are outside the determinism \
                     envelope; thread timing through the bench harness",
                    t.text
                ),
            ));
        }
    }
}

/// D2 — `HashMap`/`HashSet` iteration order varies run to run; in the
/// Outcome-producing crates require `BTreeMap`/`BTreeSet` or an
/// explicit sort.
fn rule_d2(file: &SourceFile, out: &mut Vec<Finding>) {
    if !OUTCOME_CRATES.contains(&file.crate_dir.as_str()) {
        return;
    }
    for t in idents(&file.lexed.tokens) {
        if t.text == "HashMap" || t.text == "HashSet" {
            out.push(finding(
                file,
                "D2",
                t.line,
                format!(
                    "`{}` in an Outcome-producing crate: iteration order is nondeterministic; \
                     use BTreeMap/BTreeSet or sort before iterating",
                    t.text
                ),
            ));
        }
    }
}

/// D3 — every RNG must be constructed from the `bib_rng::seed` path
/// types (`SeedSequence`/`StreamRng`/`default_rng`); ambient entropy
/// makes a run unreproducible by construction.
fn rule_d3(file: &SourceFile, out: &mut Vec<Finding>) {
    const ENTROPY: &[&str] = &[
        "from_entropy",
        "thread_rng",
        "ThreadRng",
        "OsRng",
        "getrandom",
        "random_seed",
    ];
    for t in idents(&file.lexed.tokens) {
        if ENTROPY.contains(&t.text.as_str()) {
            out.push(finding(
                file,
                "D3",
                t.line,
                format!(
                    "`{}` draws ambient entropy: construct RNGs from SeedSequence/StreamRng \
                     (crates/rng/src/seed.rs) so every stream is replayable",
                    t.text
                ),
            ));
        }
    }
}

/// P1 — library code in the simulation crates must not panic without
/// stating the violated invariant: `.unwrap()` and `.expect("")` carry
/// no diagnosis when a run dies hours into a sweep.
fn rule_p1(file: &SourceFile, out: &mut Vec<Finding>) {
    if !PANIC_POLICY_CRATES.contains(&file.crate_dir.as_str()) || file.section != Section::Src {
        return;
    }
    let toks = &file.lexed.tokens;
    for i in 0..toks.len() {
        if toks[i].text != "." || file.in_test_code(toks[i].line) {
            continue;
        }
        let Some(name) = toks.get(i + 1) else {
            continue;
        };
        if name.kind != TokenKind::Ident {
            continue;
        }
        let bare_unwrap = name.text == "unwrap"
            && toks.get(i + 2).is_some_and(|t| t.text == "(")
            && toks.get(i + 3).is_some_and(|t| t.text == ")");
        let empty_expect = name.text == "expect"
            && toks.get(i + 2).is_some_and(|t| t.text == "(")
            && toks
                .get(i + 3)
                .is_some_and(|t| t.kind == TokenKind::Str && str_is_empty(&t.text))
            && toks.get(i + 4).is_some_and(|t| t.text == ")");
        if bare_unwrap || empty_expect {
            out.push(finding(
                file,
                "P1",
                name.line,
                format!(
                    "bare `{}` in library code: state the invariant \
                     (`.expect(\"<why this cannot fail>\")`) or return a Result",
                    if bare_unwrap {
                        "unwrap()"
                    } else {
                        "expect(\"\")"
                    },
                ),
            ));
        }
    }
}

/// Whether a string literal's written form is empty (`""`, `r""`, …).
fn str_is_empty(text: &str) -> bool {
    text.trim_start_matches(['b', 'r', '#'])
        .trim_end_matches('#')
        == "\"\""
}

/// N1 — narrowing `as` casts to ≤32-bit integers in the load/count
/// arithmetic crates silently truncate at m = n² scales; prefer
/// widening (`u64::from`), `try_into` with an invariant message, or
/// checked helpers. (Target-type heuristic: a cast *to* a ≤32-bit
/// integer is flagged regardless of source type, which a lexer cannot
/// know; provably-narrow sources are grandfathered via lint.toml.)
fn rule_n1(file: &SourceFile, out: &mut Vec<Finding>) {
    if !CAST_CRATES.contains(&file.crate_dir.as_str()) || file.section != Section::Src {
        return;
    }
    const NARROW: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];
    let toks = &file.lexed.tokens;
    for i in 0..toks.len().saturating_sub(1) {
        if toks[i].text != "as" || toks[i].kind != TokenKind::Ident {
            continue;
        }
        if file.in_test_code(toks[i].line) {
            continue;
        }
        // Exclude `use x as y` renames: the previous meaningful token
        // of a cast is never an ident path segment ending a `use` tree,
        // but renames are always `Ident as Ident` inside a `use` item.
        // Cheap disambiguation: casts to primitive types only.
        let target = &toks[i + 1];
        if target.kind == TokenKind::Ident && NARROW.contains(&target.text.as_str()) {
            out.push(finding(
                file,
                "N1",
                target.line,
                format!(
                    "narrowing cast `as {}` in count/load arithmetic: widen with `u64::from`, \
                     or use `try_into().expect(\"<range invariant>\")` / checked helpers",
                    target.text
                ),
            ));
        }
    }
}

/// C1 — the concurrency-readiness contract the sharded CAS engine will
/// be built under: unsafe code and atomics are only admissible with
/// their proof obligations written down next to them.
fn rule_c1(file: &SourceFile, out: &mut Vec<Finding>) {
    const MEMORY_ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
    const ATOMIC_OPS: &[&str] = &[
        "compare_exchange",
        "compare_exchange_weak",
        "fetch_add",
        "fetch_sub",
        "fetch_and",
        "fetch_or",
        "fetch_xor",
        "fetch_update",
    ];
    let toks = &file.lexed.tokens;

    // (a) every crate root must keep `#![forbid(unsafe_code)]` — or
    // carry a SAFETY comment explaining the relaxation.
    if file.rel_path.ends_with("src/lib.rs") {
        let has_forbid = toks.windows(7).any(|w| {
            w[0].text == "#"
                && w[1].text == "!"
                && w[2].text == "["
                && w[3].text == "forbid"
                && w[4].text == "("
                && w[5].text == "unsafe_code"
                && w[6].text == ")"
        });
        let has_safety_note = file
            .lexed
            .comments
            .iter()
            .any(|c| c.text.contains("SAFETY:"));
        if !has_forbid && !has_safety_note {
            out.push(finding(
                file,
                "C1",
                1,
                "crate root lacks `#![forbid(unsafe_code)]`: keep it, or relax it together \
                 with a `// SAFETY:` comment stating the crate-level contract"
                    .to_string(),
            ));
        }
    }

    // Marker comments reach through their own continuation lines: a
    // wrapped `// ORDERING: …` paragraph counts from its last line.
    let comments = &file.lexed.comments;
    let mut marker_spans: Vec<(u32, u32)> = Vec::new();
    for (ci, c) in comments.iter().enumerate() {
        if !(c.text.contains("SAFETY:") || c.text.contains("ORDERING:")) {
            continue;
        }
        let mut end = c.end_line;
        for next in &comments[ci + 1..] {
            if next.line == end + 1 {
                end = next.end_line;
            } else {
                break;
            }
        }
        marker_spans.push((c.line, end));
    }

    // (b)/(c) token-level obligations. The `unsafe_code` ident inside
    // `forbid(unsafe_code)` is the contract itself and never matches
    // here (it is a distinct identifier from the `unsafe` keyword).
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        let is_atomic_use = (t.text.starts_with("Atomic") && t.text.len() > "Atomic".len())
            || ATOMIC_OPS.contains(&t.text.as_str())
            || (t.text == "Ordering"
                && toks.get(i + 1).is_some_and(|x| x.text == ":")
                && toks.get(i + 2).is_some_and(|x| x.text == ":")
                && toks
                    .get(i + 3)
                    .is_some_and(|x| MEMORY_ORDERINGS.contains(&x.text.as_str())));
        let obligation = if t.text == "unsafe" {
            Some("SAFETY:")
        } else if is_atomic_use {
            Some("ORDERING:")
        } else {
            None
        };
        let Some(marker) = obligation else { continue };
        let near = marker_spans
            .iter()
            .any(|&(lo, hi)| lo <= t.line && hi + 3 >= t.line);
        if !near {
            out.push(finding(
                file,
                "C1",
                t.line,
                format!(
                    "`{}` without an adjacent `// {marker}` comment (within 3 lines above): \
                     write down the invariant/ordering argument it relies on",
                    t.text
                ),
            ));
        }
    }
}

/// C2 — CAS retry loops must carry a termination argument. A
/// `compare_exchange` that loses can spin forever unless something
/// bounds the retries (a monotone lattice, a claimant count, a
/// single-writer guarantee); the argument has to be written down in an
/// adjacent `// RETRY:` comment, C1-style.
fn rule_c2(file: &SourceFile, out: &mut Vec<Finding>) {
    const CAS_OPS: &[&str] = &["compare_exchange", "compare_exchange_weak", "fetch_update"];

    // Marker comments reach through their own continuation lines, same
    // adjacency contract as C1's SAFETY/ORDERING markers.
    let comments = &file.lexed.comments;
    let mut marker_spans: Vec<(u32, u32)> = Vec::new();
    for (ci, c) in comments.iter().enumerate() {
        if !c.text.contains("RETRY:") {
            continue;
        }
        let mut end = c.end_line;
        for next in &comments[ci + 1..] {
            if next.line == end + 1 {
                end = next.end_line;
            } else {
                break;
            }
        }
        marker_spans.push((c.line, end));
    }

    for t in idents(&file.lexed.tokens) {
        if !CAS_OPS.contains(&t.text.as_str()) {
            continue;
        }
        let near = marker_spans
            .iter()
            .any(|&(lo, hi)| lo <= t.line && hi + 3 >= t.line);
        if !near {
            out.push(finding(
                file,
                "C2",
                t.line,
                format!(
                    "`{}` without an adjacent `// RETRY:` comment (within 3 lines above): \
                     write down why the retry loop terminates (monotone state, bounded \
                     claimants, single writer, …)",
                    t.text
                ),
            ));
        }
    }
}

fn idents(tokens: &[Token]) -> impl Iterator<Item = &Token> {
    tokens.iter().filter(|t| t.kind == TokenKind::Ident)
}
