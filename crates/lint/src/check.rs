//! The rule engine: file classification, token-pattern rules, allow
//! annotations and the tree checker.
//!
//! Every rule is **deny by default**. A site that legitimately violates a
//! rule is allow-listed in place with
//!
//! ```text
//! // rn-lint: allow(<rule>[, <rule>…]) — <reason>
//! ```
//!
//! on the offending line or the line directly above it. The reason is
//! mandatory, unknown rule names are themselves findings, and an annotation
//! that suppresses nothing is flagged as stale — the allowlist cannot rot
//! silently.
//!
//! Rules are scoped by *path*, mirroring the workspace's determinism
//! contract: everything under `crates/*/`, `src/`, `tests/` and `examples/`
//! is scanned (the `shims/` stand-ins for external crates are not), with
//! per-rule carve-outs documented on [`RULES`].

use crate::lex::{lex, Comment, Lexed, Tok, TokKind};
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One registered rule: its stable kebab-case name and one-line contract.
#[derive(Debug, Clone, Copy)]
pub struct Rule {
    /// Stable kebab-case identifier (used in `allow(...)` annotations).
    pub name: &'static str,
    /// One-line statement of the contract the rule enforces.
    pub summary: &'static str,
}

/// The registered rule set, in report order. `tests/golden_rules.txt` pins
/// the rendered listing, so additions and rewordings are reviewed diffs.
pub const RULES: &[Rule] = &[
    Rule {
        name: "no-std-hash",
        summary: "std HashMap/HashSet are banned: iteration order is nondeterministic; \
                  use BTreeMap/BTreeSet, a sorted Vec, or WordBitset",
    },
    Rule {
        name: "no-wall-clock",
        summary: "Instant::now/SystemTime are banned outside annotated timing seams: \
                  results must be a pure function of the seed, never the clock",
    },
    Rule {
        name: "rng-discipline",
        summary: "RNG construction (seed_from_u64/from_seed/from_entropy/thread_rng/from_rng) \
                  belongs in rn_sim::rng: call sites use stream_rng/rng_from_seed so seed \
                  streams stay per-axis independent (test code exempt)",
    },
    Rule {
        name: "clear-before-reserve",
        summary: "a pooled buffer must .clear()/.reset() earlier in the same function \
                  before .reserve(): reserve counts beyond the *current* length \
                  (the PR-9 steady-state leak class; test code exempt)",
    },
    Rule {
        name: "forbid-unsafe-root",
        summary: "every crate root (lib.rs, main.rs, src/bin/*.rs) carries \
                  #![forbid(unsafe_code)]",
    },
    Rule {
        name: "safety-comment",
        summary: "each `unsafe` token needs a `// SAFETY:` justification on its line \
                  or within the three lines above (applies to test code too)",
    },
    Rule {
        name: "panic-docs",
        summary: "a pub fn in rn_sim::engine/rn_sim::bitset that can panic \
                  (assert!/panic!/unwrap/expect) must carry a `# Panics` doc section",
    },
    Rule {
        name: "lint-hygiene",
        summary: "rn-lint annotations must name known rules, carry a reason after \
                  an em-dash, and actually suppress a finding",
    },
];

fn rule_known(name: &str) -> bool {
    RULES.iter().any(|r| r.name == name)
}

/// One diagnostic: a rule violation at a file/line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Repo-relative path with forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// The violated rule's name (an entry of [`RULES`]).
    pub rule: &'static str,
    /// Human-readable explanation with the offending construct named.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: deny({}): {}", self.file, self.line, self.rule, self.message)
    }
}

/// How one file participates in the scan, derived purely from its
/// repo-relative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileScope {
    /// Crate/binary root: must carry `#![forbid(unsafe_code)]`.
    pub crate_root: bool,
    /// `crates/sim/src/rng.rs` — the one home of RNG construction.
    pub rng_home: bool,
    /// Panic-documentation scope (`rn_sim::engine` / `rn_sim::bitset`).
    pub panic_docs: bool,
    /// Whole-file test/bench/example code (relaxes the determinism-rng and
    /// reserve rules; `#[cfg(test)]` modules inside src files get the same
    /// relaxation region-wise).
    pub test_code: bool,
}

/// Classifies a repo-relative path (`/`-separated); `None` means the file
/// is out of scope (shims, target, non-Rust files).
pub fn classify(rel: &str) -> Option<FileScope> {
    if !rel.ends_with(".rs") {
        return None;
    }
    let in_crates = rel.starts_with("crates/");
    let in_root =
        rel.starts_with("src/") || rel.starts_with("tests/") || rel.starts_with("examples/");
    if !in_crates && !in_root {
        return None;
    }
    let test_code = rel.starts_with("tests/")
        || rel.starts_with("examples/")
        || rel.contains("/tests/")
        || rel.contains("/benches/")
        || rel.contains("/examples/");
    let crate_root = rel == "src/lib.rs"
        || rel == "src/main.rs"
        || (rel.starts_with("crates/")
            && (rel.ends_with("/src/lib.rs") || rel.ends_with("/src/main.rs")))
        || rel.contains("/src/bin/");
    Some(FileScope {
        crate_root,
        rng_home: rel == "crates/sim/src/rng.rs",
        panic_docs: rel == "crates/sim/src/engine.rs" || rel == "crates/sim/src/bitset.rs",
        test_code,
    })
}

/// A parsed `// rn-lint: allow(...)` annotation.
struct Allow {
    line: u32,
    rules: Vec<String>,
    used: bool,
}

/// Checks one file's source under its path-derived scope, returning the
/// unsuppressed findings (sorted by line, then rule).
pub fn check_file(rel: &str, src: &str) -> Vec<Finding> {
    let Some(scope) = classify(rel) else {
        return Vec::new();
    };
    let lexed = lex(src);
    let test_regions = test_mod_regions(&lexed.toks);
    let in_test =
        |idx: usize| scope.test_code || test_regions.iter().any(|&(s, e)| idx >= s && idx < e);

    let mut findings: Vec<Finding> = Vec::new();
    let mut hygiene: Vec<Finding> = Vec::new();
    let mut allows = parse_allows(rel, &lexed.comments, &mut hygiene);

    rule_no_std_hash(rel, &lexed, &mut findings);
    rule_no_wall_clock(rel, &lexed, &mut findings);
    if !scope.rng_home {
        rule_rng_discipline(rel, &lexed, &in_test, &mut findings);
    }
    rule_clear_before_reserve(rel, &lexed, &in_test, &mut findings);
    if scope.crate_root {
        rule_forbid_unsafe_root(rel, &lexed, &mut findings);
    }
    rule_safety_comment(rel, &lexed, &mut findings);
    if scope.panic_docs {
        rule_panic_docs(rel, &lexed, &in_test, &mut findings);
    }

    // Apply the allowlist: a finding is suppressed by a matching annotation
    // on its line or the line directly above. lint-hygiene findings are not
    // suppressible (the allowlist cannot vouch for itself).
    findings.retain(|f| {
        for a in allows.iter_mut() {
            if (a.line == f.line || a.line + 1 == f.line) && a.rules.iter().any(|r| r == f.rule) {
                a.used = true;
                return false;
            }
        }
        true
    });
    for a in &allows {
        if !a.used {
            hygiene.push(Finding {
                file: rel.to_string(),
                line: a.line,
                rule: "lint-hygiene",
                message: format!(
                    "stale annotation: allow({}) suppresses nothing on this or the next line",
                    a.rules.join(", ")
                ),
            });
        }
    }
    findings.extend(hygiene);
    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    findings
}

// ---------------------------------------------------------------------------
// Annotations
// ---------------------------------------------------------------------------

fn parse_allows(rel: &str, comments: &[Comment], hygiene: &mut Vec<Finding>) -> Vec<Allow> {
    let mut out = Vec::new();
    for c in comments {
        // Annotations are plain comments whose body starts with `rn-lint:`.
        // Doc comments are exempt so documentation can show the syntax.
        if c.is_doc() {
            continue;
        }
        let body = c.text.trim_start_matches(['/', '*']).trim_start();
        let Some(rest) = body.strip_prefix("rn-lint:") else {
            continue;
        };
        let rest = rest.trim_start();
        let bad = |msg: String| Finding {
            file: rel.to_string(),
            line: c.line,
            rule: "lint-hygiene",
            message: msg,
        };
        let Some(args) = rest.strip_prefix("allow(") else {
            hygiene.push(bad(format!(
                "malformed annotation {:?}: expected `rn-lint: allow(<rule>) — <reason>`",
                rest
            )));
            continue;
        };
        let Some(close) = args.find(')') else {
            hygiene.push(bad("unclosed allow( list".to_string()));
            continue;
        };
        let rules: Vec<String> = args[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect();
        if rules.is_empty() {
            hygiene.push(bad("empty allow() list".to_string()));
            continue;
        }
        let mut ok = true;
        for r in &rules {
            if !rule_known(r) {
                hygiene.push(bad(format!("unknown rule `{r}` in allow list")));
                ok = false;
            }
        }
        let reason = args[close + 1..].trim_start().trim_start_matches(['—', '–', '-', ':']).trim();
        if reason.is_empty() {
            hygiene.push(bad(format!(
                "allow({}) without a reason: annotations must say why",
                rules.join(", ")
            )));
            ok = false;
        }
        if ok {
            out.push(Allow { line: c.line, rules, used: false });
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Token helpers
// ---------------------------------------------------------------------------

fn ident_at(toks: &[Tok], i: usize) -> Option<&str> {
    match toks.get(i).map(|t| &t.kind) {
        Some(TokKind::Ident(s)) => Some(s),
        _ => None,
    }
}

fn punct_at(toks: &[Tok], i: usize, c: char) -> bool {
    matches!(toks.get(i).map(|t| &t.kind), Some(TokKind::Punct(p)) if *p == c)
}

/// Index just past the `}` matching the `{` at `open` (or `toks.len()`).
fn brace_match(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        match t.kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth -= 1;
                if depth == 0 {
                    return i + 1;
                }
            }
            _ => {}
        }
    }
    toks.len()
}

/// Token-index ranges of `#[cfg(test)] mod … { … }` bodies.
fn test_mod_regions(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 6 < toks.len() {
        let attr = punct_at(toks, i, '#')
            && punct_at(toks, i + 1, '[')
            && ident_at(toks, i + 2) == Some("cfg")
            && punct_at(toks, i + 3, '(')
            && ident_at(toks, i + 4) == Some("test")
            && punct_at(toks, i + 5, ')')
            && punct_at(toks, i + 6, ']');
        if !attr {
            i += 1;
            continue;
        }
        // Skip any further attributes, then expect `mod <name> {`.
        let mut j = i + 7;
        while punct_at(toks, j, '#') && punct_at(toks, j + 1, '[') {
            let mut depth = 0usize;
            let mut k = j + 1;
            while k < toks.len() {
                match toks[k].kind {
                    TokKind::Punct('[') => depth += 1,
                    TokKind::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            j = k + 1;
        }
        if ident_at(toks, j) == Some("mod") && punct_at(toks, j + 2, '{') {
            let end = brace_match(toks, j + 2);
            out.push((i, end));
            i = j + 3; // regions may not nest in practice; resume inside is fine
        } else {
            i += 1;
        }
    }
    out
}

/// Renders the dotted receiver chain ending just before token `dot`
/// (the index of the `.` of a method call), e.g. `self.alg4_main.participating`
/// or `knowing[i]`. Returns `None` when the preceding token is not a chain.
fn receiver_before(toks: &[Tok], dot: usize) -> Option<String> {
    let mut parts: Vec<String> = Vec::new();
    let mut j = dot; // exclusive upper bound; walk backwards
    loop {
        if j == 0 {
            break;
        }
        let seg = match &toks[j - 1].kind {
            TokKind::Ident(s) => {
                j -= 1;
                s.clone()
            }
            TokKind::Punct(']') => {
                // Collect `ident[ … ]` as one segment.
                let mut depth = 0usize;
                let mut k = j - 1;
                loop {
                    match toks[k].kind {
                        TokKind::Punct(']') => depth += 1,
                        TokKind::Punct('[') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if k == 0 {
                        return None;
                    }
                    k -= 1;
                }
                let name = ident_at(toks, k.checked_sub(1)?)?.to_string();
                let inner: String = toks[k + 1..j - 1].iter().map(render_tok).collect();
                j = k - 1;
                format!("{name}[{inner}]")
            }
            _ => break,
        };
        parts.push(seg);
        if j > 0 && punct_at(toks, j - 1, '.') && j >= 2 {
            j -= 1; // continue through the chain
        } else {
            break;
        }
    }
    if parts.is_empty() {
        return None;
    }
    parts.reverse();
    Some(parts.join("."))
}

fn render_tok(t: &Tok) -> String {
    match &t.kind {
        TokKind::Ident(s) => s.clone(),
        TokKind::Lifetime(s) => format!("'{s}"),
        TokKind::Punct(c) => c.to_string(),
        TokKind::Literal => "_".to_string(),
    }
}

/// For a `fn` keyword at `fn_idx`, the body token range `(open, close)`
/// exclusive of the braces themselves — or `None` for bodyless decls.
fn fn_body(toks: &[Tok], fn_idx: usize) -> Option<(usize, usize)> {
    let mut depth = 0i32;
    let mut i = fn_idx + 1;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => depth -= 1,
            TokKind::Punct('{') if depth == 0 => {
                let end = brace_match(toks, i);
                return Some((i + 1, end.saturating_sub(1)));
            }
            TokKind::Punct(';') if depth == 0 => return None,
            _ => {}
        }
        i += 1;
    }
    None
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

fn rule_no_std_hash(rel: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    for t in &lexed.toks {
        if let TokKind::Ident(s) = &t.kind {
            if s == "HashMap" || s == "HashSet" {
                out.push(Finding {
                    file: rel.to_string(),
                    line: t.line,
                    rule: "no-std-hash",
                    message: format!(
                        "`{s}` has nondeterministic iteration order; use BTreeMap/BTreeSet, \
                         a sorted Vec, or rn_sim::WordBitset"
                    ),
                });
            }
        }
    }
}

fn rule_no_wall_clock(rel: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lexed.toks;
    for i in 0..toks.len() {
        match ident_at(toks, i) {
            Some("Instant")
                if punct_at(toks, i + 1, ':')
                    && punct_at(toks, i + 2, ':')
                    && ident_at(toks, i + 3) == Some("now") =>
            {
                out.push(Finding {
                    file: rel.to_string(),
                    line: toks[i].line,
                    rule: "no-wall-clock",
                    message: "`Instant::now` reads the wall clock; results must be a pure \
                              function of the seed (timing seams carry an allow annotation)"
                        .to_string(),
                });
            }
            Some("SystemTime") => {
                out.push(Finding {
                    file: rel.to_string(),
                    line: toks[i].line,
                    rule: "no-wall-clock",
                    message: "`SystemTime` reads the wall clock; results must be a pure \
                              function of the seed"
                        .to_string(),
                });
            }
            _ => {}
        }
    }
}

const RNG_CONSTRUCTORS: &[&str] =
    &["seed_from_u64", "from_seed", "from_entropy", "thread_rng", "from_rng"];

fn rule_rng_discipline(
    rel: &str,
    lexed: &Lexed,
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    for (i, t) in lexed.toks.iter().enumerate() {
        if let TokKind::Ident(s) = &t.kind {
            if RNG_CONSTRUCTORS.contains(&s.as_str()) && !in_test(i) {
                out.push(Finding {
                    file: rel.to_string(),
                    line: t.line,
                    rule: "rng-discipline",
                    message: format!(
                        "`{s}` constructs an RNG outside rn_sim::rng; derive streams with \
                         rng::stream_rng / rng::rng_from_seed so per-axis seed independence holds"
                    ),
                });
            }
        }
    }
}

const CLEARING_METHODS: &[&str] = &["clear", "clear_all", "reset", "reset_capacity"];

fn rule_clear_before_reserve(
    rel: &str,
    lexed: &Lexed,
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    let toks = &lexed.toks;
    let mut i = 0usize;
    while i < toks.len() {
        if ident_at(toks, i) != Some("fn") || in_test(i) {
            i += 1;
            continue;
        }
        let Some((body_s, body_e)) = fn_body(toks, i) else {
            i += 1;
            continue;
        };
        for k in body_s..body_e {
            let is_reserve = punct_at(toks, k, '.')
                && matches!(ident_at(toks, k + 1), Some("reserve") | Some("reserve_exact"))
                && punct_at(toks, k + 2, '(');
            if !is_reserve {
                continue;
            }
            let Some(recv) = receiver_before(toks, k) else {
                continue;
            };
            let mut cleared = false;
            for c in body_s..k {
                let is_clear = punct_at(toks, c, '.')
                    && ident_at(toks, c + 1).is_some_and(|m| CLEARING_METHODS.contains(&m))
                    && punct_at(toks, c + 2, '(');
                if !is_clear {
                    continue;
                }
                if let Some(crecv) = receiver_before(toks, c) {
                    if crecv == recv || recv.starts_with(&format!("{crecv}.")) {
                        cleared = true;
                        break;
                    }
                }
            }
            if !cleared {
                out.push(Finding {
                    file: rel.to_string(),
                    line: toks[k + 1].line,
                    rule: "clear-before-reserve",
                    message: format!(
                        "`{recv}.{}` without an earlier `.clear()`/`.reset()` on `{recv}` in \
                         this function: `reserve` counts beyond the current length, so a pooled \
                         buffer that skips the clear reallocates every trial",
                        ident_at(toks, k + 1).unwrap_or("reserve"),
                    ),
                });
            }
        }
        i = body_e.max(i + 1);
    }
}

fn rule_forbid_unsafe_root(rel: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    let toks = &lexed.toks;
    let found = (0..toks.len()).any(|i| {
        punct_at(toks, i, '#')
            && punct_at(toks, i + 1, '!')
            && punct_at(toks, i + 2, '[')
            && ident_at(toks, i + 3) == Some("forbid")
            && punct_at(toks, i + 4, '(')
            && ident_at(toks, i + 5) == Some("unsafe_code")
            && punct_at(toks, i + 6, ')')
            && punct_at(toks, i + 7, ']')
    });
    if !found {
        out.push(Finding {
            file: rel.to_string(),
            line: 1,
            rule: "forbid-unsafe-root",
            message: "crate root lacks `#![forbid(unsafe_code)]`".to_string(),
        });
    }
}

fn rule_safety_comment(rel: &str, lexed: &Lexed, out: &mut Vec<Finding>) {
    for t in &lexed.toks {
        if !matches!(&t.kind, TokKind::Ident(s) if s == "unsafe") {
            continue;
        }
        let covered = lexed
            .comments
            .iter()
            .any(|c| c.text.contains("SAFETY:") && c.line + 3 >= t.line && c.line <= t.line);
        if !covered {
            out.push(Finding {
                file: rel.to_string(),
                line: t.line,
                rule: "safety-comment",
                message: "`unsafe` without a `// SAFETY:` justification on this line or the \
                          three lines above"
                    .to_string(),
            });
        }
    }
}

const PANIC_MACROS: &[&str] =
    &["assert", "assert_eq", "assert_ne", "panic", "unreachable", "todo", "unimplemented"];

fn rule_panic_docs(
    rel: &str,
    lexed: &Lexed,
    in_test: &dyn Fn(usize) -> bool,
    out: &mut Vec<Finding>,
) {
    let toks = &lexed.toks;
    let mut i = 0usize;
    while i < toks.len() {
        if ident_at(toks, i) != Some("pub") || in_test(i) {
            i += 1;
            continue;
        }
        let pub_idx = i;
        let mut j = i + 1;
        // Optional visibility argument: pub(crate), pub(in …).
        if punct_at(toks, j, '(') {
            let mut depth = 0usize;
            while j < toks.len() {
                match toks[j].kind {
                    TokKind::Punct('(') => depth += 1,
                    TokKind::Punct(')') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            j += 1;
        }
        // Optional qualifiers before `fn`.
        while matches!(
            ident_at(toks, j),
            Some("const") | Some("async") | Some("unsafe") | Some("extern")
        ) || matches!(toks.get(j).map(|t| &t.kind), Some(TokKind::Literal))
        {
            j += 1;
        }
        if ident_at(toks, j) != Some("fn") {
            i += 1;
            continue;
        }
        let name = ident_at(toks, j + 1).unwrap_or("?").to_string();
        let Some((body_s, body_e)) = fn_body(toks, j) else {
            i = j + 1;
            continue;
        };
        if body_can_panic(toks, body_s, body_e) && !docs_mention_panics(lexed, toks, pub_idx) {
            out.push(Finding {
                file: rel.to_string(),
                line: toks[pub_idx].line,
                rule: "panic-docs",
                message: format!(
                    "pub fn `{name}` can panic (assert!/panic!/unwrap/expect in its body) but \
                     its doc comment has no `# Panics` section"
                ),
            });
        }
        i = body_e.max(j + 1);
    }
}

fn body_can_panic(toks: &[Tok], s: usize, e: usize) -> bool {
    for k in s..e {
        if let Some(id) = ident_at(toks, k) {
            if PANIC_MACROS.contains(&id) && punct_at(toks, k + 1, '!') {
                return true;
            }
            if (id == "unwrap" || id == "expect")
                && k > 0
                && punct_at(toks, k - 1, '.')
                && punct_at(toks, k + 1, '(')
            {
                return true;
            }
        }
    }
    false
}

/// Whether the doc block attached above the item starting at token
/// `item_idx` contains a `# Panics` section. Attributes between the docs
/// and the item are skipped by line-gap logic: all doc comments strictly
/// between the previous code token and the item's first line attach.
fn docs_mention_panics(lexed: &Lexed, toks: &[Tok], item_idx: usize) -> bool {
    // Walk back over any attribute groups `#[…]` directly above the item.
    let mut first = item_idx;
    while first >= 2 && punct_at(toks, first - 1, ']') {
        let mut depth = 0usize;
        let mut k = first - 1;
        loop {
            match toks[k].kind {
                TokKind::Punct(']') => depth += 1,
                TokKind::Punct('[') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            if k == 0 {
                return false;
            }
            k -= 1;
        }
        if k >= 1 && punct_at(toks, k - 1, '#') {
            first = k - 1;
        } else {
            break;
        }
    }
    let item_line = toks[item_idx].line.min(toks[first].line);
    let prev_code_line = toks[..first].last().map_or(0, |t| t.line);
    lexed
        .comments
        .iter()
        .filter(|c| c.is_doc() && c.line > prev_code_line && c.line < item_line)
        .any(|c| c.text.contains("# Panics"))
}

// ---------------------------------------------------------------------------
// Tree checking and reporting
// ---------------------------------------------------------------------------

/// The result of checking a tree: per-file findings plus scan statistics.
#[derive(Debug, Clone)]
pub struct Report {
    /// Number of files scanned.
    pub files: usize,
    /// All unsuppressed findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
}

impl Report {
    /// Whether the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the human-readable report (`--check` output; CI tees this
    /// into the step summary).
    pub fn render(&self) -> String {
        let mut s =
            format!("rn-lint: checked {} files against {} rules\n", self.files, RULES.len());
        for f in &self.findings {
            s.push_str(&f.to_string());
            s.push('\n');
        }
        if self.findings.is_empty() {
            s.push_str("clean: no findings\n");
        } else {
            s.push_str(&format!("{} finding(s)\n", self.findings.len()));
        }
        s
    }
}

/// Checks every in-scope `.rs` file under `root` (the workspace root).
///
/// # Errors
///
/// Propagates I/O errors from directory walks and file reads.
pub fn check_tree(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut findings = Vec::new();
    let mut checked = 0usize;
    for path in &files {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        if classify(&rel).is_none() {
            continue;
        }
        let src = fs::read_to_string(path)?;
        checked += 1;
        findings.extend(check_file(&rel, &src));
    }
    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    Ok(Report { files: checked, findings })
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for e in entries {
        let path = e.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|x| x == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Renders the registered rule table (`--rules` output; pinned by
/// `tests/golden_rules.txt` so rule additions are reviewed diffs).
pub fn rules_listing() -> String {
    let mut s = String::from(
        "rn-lint registered rules (deny by default)\n\
         allow one site with `// rn-lint: allow(<rule>) — <reason>` on the offending line\n\
         or the line directly above it; stale or reasonless annotations are findings.\n\n",
    );
    for r in RULES {
        let summary = r.summary.split_whitespace().collect::<Vec<_>>().join(" ");
        s.push_str(&format!("{:22}{}\n", r.name, summary));
    }
    s
}
