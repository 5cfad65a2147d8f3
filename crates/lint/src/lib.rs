//! `ssdx-lint`: the workspace invariant auditor.
//!
//! The platform's load-bearing contracts are promises no compiler checks:
//! byte-identical replay ([`Explorer`]'s determinism contract), hash-order
//! independence (`ssdx_sim::hash::FastHashMap` everywhere a map touches
//! simulation state), `unsafe` confined to `crates/alloctrack`, wall-clock
//! reads confined to the harness crates. This crate checks them
//! mechanically: a hand-rolled lexer masks strings and comments, a
//! declarative rule/scope table ([`rules::RULES`]) says which contract
//! covers which paths, and violations render as rustc-style diagnostics
//! (or `--json`).
//!
//! Run it two ways — both wired into CI so neither can rot:
//!
//! ```text
//! cargo run -p ssdx-lint -- --workspace     # the CLI
//! cargo test -q                             # tests/lint_clean.rs runs the same pass
//! ```
//!
//! Suppression is inline-only and audited (see [`engine`] for the model):
//!
//! ```text
//! // ssdx-lint::allow(rule-name): why this exact site is sound
//! ```
//!
//! [`Explorer`]: https://example.invalid/ssdexplorer-rs
//!
//! # Example
//!
//! ```
//! use ssdx_lint::{lint_source, registry};
//!
//! let rules = registry();
//! let offending = "use std::collections::HashMap;\n";
//! let diags = lint_source("crates/core/src/fresh.rs", offending, &rules);
//! assert_eq!(diags.len(), 1);
//! assert_eq!(diags[0].rule, "no-default-hasher");
//! assert_eq!((diags[0].line, diags[0].col), (1, 23)); // points at `HashMap`
//!
//! // The same text is fine where the scope table exempts it, and as
//! // prose: a comment or string naming a type is not a violation.
//! let prose = "// discussing std::collections::HashMap is fine\n";
//! assert!(lint_source("crates/core/src/fresh.rs", prose, &rules).is_empty());
//! ```

pub mod analysis;
pub mod diag;
pub mod engine;
pub mod lexer;
pub mod parse;
pub mod rules;

pub use analysis::{
    analysis_spec, api_snapshots, update_api_snapshots, AnalysisSpec, AnalysisStats, ANALYSES,
    API_CRATES, API_DIR, LAYERS,
};
pub use diag::{render_json, render_text, Diagnostic};
pub use engine::{
    collect_sources, in_scope, lint_source, lint_workspace, SourceFile, SourceText,
    WorkspaceReport, SKIP_DIRS,
};
pub use parse::{parse_file, ParsedFile, PubItem, UsePath};
pub use rules::{meta, registry, spec, Finding, Rule, RuleSpec, HOT_PATHS, RULES};
