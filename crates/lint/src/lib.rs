//! `rn_lint` — a repo-aware determinism & discipline analyzer.
//!
//! Every guarantee this reproduction makes — byte-identical result JSON at
//! any `--threads` value, per-axis seed streams, Frontier ≡ Reference engine
//! equivalence, and the zero-allocation steady state — is a *discipline*.
//! This crate turns those disciplines into deny-by-default static rules over
//! the workspace source tree, checked as a tier-1 integration test and a CI
//! job:
//!
//! ```text
//! cargo run -p rn_lint -- --check          # scan the tree, exit 1 on findings
//! cargo run -p rn_lint -- --rules          # print the registered rule table
//! ```
//!
//! The core is a hand-rolled Rust tokenizer ([`lex`](mod@lex)) — no syn, no dylint,
//! no dependencies at all — that correctly skips line/nested-block comments,
//! strings, raw strings, char literals and lifetimes, so the token-pattern
//! rules in [`check`] never fire on prose or string contents. Sites that
//! legitimately break a rule carry an in-place annotation:
//!
//! ```text
//! // rn-lint: allow(<rule>) — <reason>
//! ```
//!
//! Annotations are themselves checked: unknown rules, missing reasons, and
//! stale allows that suppress nothing are `lint-hygiene` findings.

#![forbid(unsafe_code)]

pub mod check;
pub mod lex;

pub use check::{check_file, check_tree, classify, rules_listing, Finding, Report, Rule, RULES};
pub use lex::{lex, Comment, Lexed, Tok, TokKind};
