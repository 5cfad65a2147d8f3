//! Tier-1 gate: the workspace is `ssdx-lint` clean.
//!
//! This runs the full invariant audit — every rule in the registry over
//! every workspace source — inside `cargo test -q`, so a violation of the
//! determinism / purity / confinement contracts fails the build locally,
//! not just in CI. See ARCHITECTURE.md § "Invariants & enforcement" for
//! what the rules guard and how to suppress one legitimately.

use std::fs;
use std::path::Path;

use ssdx_lint::{
    api_snapshots, collect_sources, lint_workspace, registry, render_text, ANALYSES, API_CRATES,
    API_DIR, HOT_PATHS, LAYERS, RULES,
};

#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = lint_workspace(root).expect("workspace sources readable");
    assert!(
        report.diagnostics.is_empty(),
        "ssdx-lint found contract violations:\n\n{}",
        render_text(&report.diagnostics, report.files_scanned)
    );
    // Guard against the audit silently going blind: if the walker ever
    // stops finding sources (renamed dirs, broken skip list), a "clean"
    // result would be vacuous. The workspace has ~100 .rs files today,
    // and the cross-file analyses must have seen every crate in their
    // tables — a skipped manifest or source tree makes "clean" a lie.
    assert!(
        report.files_scanned >= 80,
        "only {} files scanned — the source walker looks broken",
        report.files_scanned
    );
    assert_eq!(
        report.layer_crates_checked,
        LAYERS.len(),
        "the layering analysis skipped a crate from its table"
    );
    assert_eq!(
        report.api_crates_checked,
        API_CRATES.len(),
        "the api-drift analysis skipped a tracked crate"
    );
}

/// Regenerating the committed API snapshots must be a no-op: a drifted
/// snapshot fails the lint pass above, but a *stale-on-disk* snapshot
/// that happens to match an old surface would too — this pins the exact
/// rendered bytes, same as CI's `--update-api && git diff` step.
#[test]
fn api_snapshots_are_fresh() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let files = collect_sources(root).expect("workspace sources readable");
    let rendered = api_snapshots(&files);
    assert_eq!(
        rendered.len(),
        API_CRATES.len(),
        "every API-tracked crate renders a snapshot"
    );
    for (name, contents) in rendered {
        let path = root.join(API_DIR).join(format!("{name}.api"));
        let committed = fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("snapshot {} unreadable: {e}", path.display()));
        assert_eq!(
            committed, contents,
            "{name}.api is stale; run `cargo run -p ssdx-lint -- --update-api`"
        );
    }
}

/// Every `crates/` workspace member sits in the layer table (and the
/// table names only real members), so a new crate cannot dodge the
/// layering analysis by simply not being listed.
#[test]
fn layer_table_covers_all_members() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let manifest = fs::read_to_string(root.join("Cargo.toml")).expect("root manifest");
    let mut members: Vec<&str> = manifest
        .lines()
        .map(str::trim)
        .filter_map(|l| l.strip_prefix('"').and_then(|l| l.strip_suffix("\",")))
        .filter(|m| m.starts_with("crates/"))
        .collect();
    members.sort_unstable();
    members.dedup();
    assert!(
        members.len() >= 13,
        "member parse looks broken: {members:?}"
    );
    for member in &members {
        assert!(
            LAYERS.iter().any(|c| c.dir == *member),
            "workspace member `{member}` is missing from the LAYERS table \
             (crates/lint/src/analysis.rs)"
        );
    }
    for layer in LAYERS {
        assert!(
            layer.dir.is_empty() || members.contains(&layer.dir),
            "LAYERS names `{}`, which is not a workspace member",
            layer.dir
        );
    }
    for analysis in ANALYSES {
        assert!(!analysis.name.is_empty());
    }
}

/// Every path the rule tables name exists, so deleting or moving a file
/// cannot silently shrink an audit: a stale `HOT_PATHS` entry drops a file
/// from the no-panic audit, and a stale exemption hides the next file that
/// takes its place.
#[test]
fn rule_tables_name_only_existing_paths() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let exempt = RULES
        .iter()
        .flat_map(|spec| spec.exempt.iter().map(|(path, _)| *path));
    for path in HOT_PATHS.iter().copied().chain(exempt) {
        assert!(
            root.join(path).exists(),
            "rule table path `{path}` does not exist (crates/lint/src/rules.rs)"
        );
    }
}

#[test]
fn a_fresh_violation_fails_the_audit() {
    // Prove the gate has teeth: an in-memory file with a std HashMap at a
    // library path must produce a finding. If this stops failing-the-bad-
    // case, the clean test above proves nothing.
    let rules = registry();
    let source = "use std::collections::HashMap;\n";
    let diags = ssdx_lint::lint_source("crates/core/src/fresh_violation.rs", source, &rules);
    assert_eq!(diags.len(), 1, "expected exactly one finding: {diags:?}");
    assert_eq!(diags[0].rule, "no-default-hasher");
    assert_eq!((diags[0].line, diags[0].col), (1, 23));
}

#[test]
fn registry_matches_the_declarative_table() {
    let rules = registry();
    assert_eq!(rules.len(), RULES.len());
    assert!(rules.len() >= 6, "the contract set must not shrink");
    for (rule, spec) in rules.iter().zip(RULES) {
        assert_eq!(rule.name(), spec.name);
    }
}
