//! The lint driver: scoping, suppression auditing, and the workspace walk.
//!
//! # Suppression model
//!
//! Suppression is inline-only and audited. The single accepted form is a
//! comment:
//!
//! ```text
//! // ssdx-lint::allow(rule-name): why this exact site is sound
//! ```
//!
//! An allow binds to its own line when it trails code. When it stands
//! alone (only whitespace before the `//`), it covers the first following
//! line that is not blank or comment-only, so a justification may wrap
//! over several comment lines. Three audit diagnostics keep the mechanism
//! honest:
//!
//! - [`meta::BARE_SUPPRESSION`]: the `: reason` is missing or empty. A bare
//!   allow reports *and does not suppress* — the underlying finding still
//!   fires.
//! - [`meta::UNKNOWN_RULE`]: the named rule is not in the registry (likely
//!   a typo silently suppressing nothing).
//! - [`meta::UNUSED_SUPPRESSION`]: a well-formed allow that matched no
//!   finding — stale after a refactor, so it must be removed.
//!
//! Determinism: the walker visits files in sorted path order and every
//! diagnostic list is sorted by `(path, line, col, rule)`, so two runs over
//! the same tree emit byte-identical reports — the linter holds itself to
//! the contract it enforces.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::diag::Diagnostic;
use crate::lexer::{self, Region};
use crate::rules::{self, meta, Rule};

/// Directories (workspace-relative) the walker never descends into, with
/// the reason each is excluded from the audit.
pub const SKIP_DIRS: &[(&str, &str)] = &[
    (
        "crates/lint/tests/fixtures",
        "the ui-test corpus: files here violate rules on purpose",
    ),
    (
        "vendor",
        "vendored third-party stand-ins are not ours to audit",
    ),
    ("target", "build output"),
];

/// A lexed source file ready for rules to scan.
pub struct SourceFile<'a> {
    rel_path: &'a str,
    text: &'a str,
    regions: Vec<Region>,
    code: Vec<bool>,
    line_starts: Vec<usize>,
}

impl<'a> SourceFile<'a> {
    /// Lex `text` (a file at workspace-relative `rel_path`).
    pub fn parse(rel_path: &'a str, text: &'a str) -> Self {
        let regions = lexer::lex(text);
        let code = lexer::code_mask(text, &regions);
        let mut line_starts = vec![0usize];
        for (i, b) in text.bytes().enumerate() {
            if b == b'\n' {
                line_starts.push(i + 1);
            }
        }
        SourceFile {
            rel_path,
            text,
            regions,
            code,
            line_starts,
        }
    }

    /// The raw source text.
    pub fn text(&self) -> &str {
        self.text
    }

    /// Workspace-relative path used for scope matching and diagnostics.
    pub fn rel_path(&self) -> &str {
        self.rel_path
    }

    /// The lexed regions, tiling the file.
    pub fn regions(&self) -> &[Region] {
        &self.regions
    }

    /// True iff every byte of `[start, end)` is code (outside literals and
    /// comments).
    pub fn range_is_code(&self, start: usize, end: usize) -> bool {
        self.code[start..end].iter().all(|&c| c)
    }

    /// 1-based `(line, col)` of a byte offset; columns count characters.
    pub fn line_col(&self, offset: usize) -> (usize, usize) {
        let line_idx = match self.line_starts.binary_search(&offset) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let col = self.text[self.line_starts[line_idx]..offset]
            .chars()
            .count()
            + 1;
        (line_idx + 1, col)
    }

    /// The full text of a 1-based line, without its newline.
    pub fn line_text(&self, line: usize) -> &str {
        let start = self.line_starts[line - 1];
        let end = self
            .line_starts
            .get(line)
            .map_or(self.text.len(), |&next| next);
        self.text[start..end].trim_end_matches(['\n', '\r'])
    }
}

/// One parsed `ssdx-lint::allow(...)` directive.
#[derive(Debug)]
struct Allow {
    /// Byte offset of the directive (for locating audit diagnostics).
    offset: usize,
    /// The rule name inside the parentheses.
    rule: String,
    /// Whether a non-empty `: reason` follows.
    has_reason: bool,
    /// The line this allow covers: its own line when it trails code, or —
    /// for a standalone allow, whose justification may wrap over several
    /// comment lines — the first following line that is not blank or
    /// comment-only.
    covers: usize,
    /// Set when the allow suppresses at least one finding.
    used: bool,
}

const ALLOW_MARKER: &str = "ssdx-lint::allow(";

/// Scan comment regions for allow directives.
fn parse_allows(file: &SourceFile<'_>) -> Vec<Allow> {
    let mut allows = Vec::new();
    for region in file.regions() {
        // Directives live in ordinary comments only: doc comments are
        // prose, where the allow form may legitimately appear as an
        // *example* of the syntax (this crate's own docs do exactly that)
        // without being a directive.
        if !matches!(
            region.kind,
            lexer::RegionKind::LineComment | lexer::RegionKind::BlockComment
        ) {
            continue;
        }
        let comment = &file.text()[region.start..region.end];
        let mut from = 0usize;
        while let Some(pos) = comment[from..].find(ALLOW_MARKER) {
            let marker_at = from + pos;
            let args_at = marker_at + ALLOW_MARKER.len();
            let rest = &comment[args_at..];
            let Some(close) = rest.find(')') else {
                from = args_at;
                continue;
            };
            let rule = rest[..close].trim().to_string();
            // Mandatory form after the parens: `: <non-empty reason>`,
            // read to the end of the line (or comment).
            let after = &rest[close + 1..];
            let line_end = after.find('\n').unwrap_or(after.len());
            let tail = after[..line_end].trim_start();
            let has_reason = tail
                .strip_prefix(':')
                .map(|r| !r.trim().trim_end_matches("*/").trim().is_empty())
                .unwrap_or(false);
            let offset = region.start + marker_at;
            let (line, _) = file.line_col(offset);
            // Standalone = nothing but whitespace and the `//` opener
            // before the marker on its line (line-comment form only).
            let line_prefix = &file.text()[file_line_start(file, line)..offset];
            let standalone = line_prefix
                .trim_start()
                .trim_start_matches('/')
                .trim()
                .is_empty();
            let covers = if standalone {
                next_code_line(file, line)
            } else {
                line
            };
            allows.push(Allow {
                offset,
                rule,
                has_reason,
                covers,
                used: false,
            });
            from = args_at + close;
        }
    }
    allows
}

fn file_line_start(file: &SourceFile<'_>, line: usize) -> usize {
    file.line_starts[line - 1]
}

/// First line after `line` that is not blank or comment-only — what a
/// standalone allow (possibly with a multi-line justification) covers.
fn next_code_line(file: &SourceFile<'_>, line: usize) -> usize {
    let last = file.line_starts.len();
    let mut candidate = line + 1;
    while candidate <= last {
        let text = file.line_text(candidate).trim_start();
        if !text.is_empty() && !text.starts_with("//") {
            return candidate;
        }
        candidate += 1;
    }
    // Nothing follows: keep the allow bound to its own line; the
    // unused-suppression audit will flag it.
    line
}

/// Does `rel_path` match `pattern` (segment-prefix, `*` = one segment)?
fn path_matches(pattern: &str, rel_path: &str) -> bool {
    let mut path_segs = rel_path.split('/');
    for pat_seg in pattern.split('/') {
        match path_segs.next() {
            Some(seg) if pat_seg == "*" || pat_seg == seg => {}
            _ => return false,
        }
    }
    true
}

/// Is `rule` in scope for `rel_path`, per the declarative table?
pub fn in_scope(rule: &str, rel_path: &str) -> bool {
    let Some(spec) = rules::spec(rule) else {
        return false;
    };
    spec.include.iter().any(|p| path_matches(p, rel_path))
        && !spec.exempt.iter().any(|(p, _)| path_matches(p, rel_path))
}

/// Lint a single in-memory source against `rules_set`.
///
/// `rel_path` is workspace-relative and drives scope matching, so callers
/// can probe "what would the linter say about this file at this path"
/// without touching the filesystem — which is how the fixtures and the
/// fresh-violation tier-1 test work.
pub fn lint_source(rel_path: &str, text: &str, rules_set: &[Box<dyn Rule>]) -> Vec<Diagnostic> {
    let file = SourceFile::parse(rel_path, text);
    let mut allows = parse_allows(&file);
    let known_rule = |name: &str| rules_set.iter().any(|r| r.name() == name);
    let mut diags = Vec::new();

    for rule in rules_set {
        if !in_scope(rule.name(), rel_path) {
            continue;
        }
        for finding in rule.check(&file) {
            let (line, col) = file.line_col(finding.offset);
            let suppressed = allows.iter_mut().any(|a| {
                let applies = a.has_reason
                    && known_rule(&a.rule)
                    && a.rule == finding.rule
                    && a.covers == line;
                if applies {
                    a.used = true;
                }
                applies
            });
            if suppressed {
                continue;
            }
            diags.push(Diagnostic {
                rule: finding.rule,
                path: rel_path.to_string(),
                line,
                col,
                width: text[finding.offset..finding.offset + finding.len]
                    .chars()
                    .count(),
                message: finding.message,
                snippet: file.line_text(line).to_string(),
                help: Some(rule.help()),
            });
        }
    }

    for allow in &allows {
        let (line, col) = file.line_col(allow.offset);
        let snippet = file.line_text(line).to_string();
        if !known_rule(&allow.rule) {
            diags.push(Diagnostic {
                rule: meta::UNKNOWN_RULE,
                path: rel_path.to_string(),
                line,
                col,
                width: ALLOW_MARKER.chars().count() + allow.rule.chars().count() + 1,
                message: format!(
                    "allow names `{}`, which is not a registered rule",
                    allow.rule
                ),
                snippet,
                help: Some("run `ssdx-lint --list` for the registry"),
            });
        } else if !allow.has_reason {
            diags.push(Diagnostic {
                rule: meta::BARE_SUPPRESSION,
                path: rel_path.to_string(),
                line,
                col,
                width: ALLOW_MARKER.chars().count() + allow.rule.chars().count() + 1,
                message: format!(
                    "suppression of `{}` without a reason; a bare allow does not suppress",
                    allow.rule
                ),
                snippet,
                help: Some("write `// ssdx-lint::allow(rule): <why this site is sound>`"),
            });
        } else if !allow.used {
            diags.push(Diagnostic {
                rule: meta::UNUSED_SUPPRESSION,
                path: rel_path.to_string(),
                line,
                col,
                width: ALLOW_MARKER.chars().count() + allow.rule.chars().count() + 1,
                message: format!(
                    "allow for `{}` suppressed nothing here — remove the stale directive",
                    allow.rule
                ),
                snippet,
                help: Some("stale allows hide the next real violation at this site"),
            });
        }
    }

    diags.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    diags
}

/// The result of a full workspace pass.
#[derive(Debug)]
pub struct WorkspaceReport {
    /// Every diagnostic, sorted by `(path, line, col, rule)`.
    pub diagnostics: Vec<Diagnostic>,
    /// How many `.rs` files the walker actually lexed.
    pub files_scanned: usize,
    /// Crates whose manifest the layering analysis parsed.
    pub layer_crates_checked: usize,
    /// Crates whose public surface the api-drift analysis compared.
    pub api_crates_checked: usize,
}

/// One collected source file, workspace-relative path plus contents —
/// what the per-file rules and the cross-file analyses both consume.
#[derive(Debug, Clone)]
pub struct SourceText {
    /// Workspace-relative path, `/`-separated.
    pub rel: String,
    /// The file's full text.
    pub text: String,
}

/// Read every Rust source the audit covers, in sorted path order.
pub fn collect_sources(root: &Path) -> io::Result<Vec<SourceText>> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        collect_rs_files(root, &root.join(top), &mut files)?;
    }
    files.sort();
    let mut out = Vec::with_capacity(files.len());
    for rel in files {
        let text = fs::read_to_string(root.join(&rel))?;
        out.push(SourceText {
            rel: rel.to_string_lossy().replace('\\', "/"),
            text,
        });
    }
    Ok(out)
}

/// Lint every Rust source under `root` (a workspace checkout): the
/// per-file rules first, then the cross-file analyses
/// ([`crate::analysis`]) over the same collected sources.
pub fn lint_workspace(root: &Path) -> io::Result<WorkspaceReport> {
    let rules_set = rules::registry();
    let files = collect_sources(root)?;

    let mut diagnostics = Vec::new();
    for file in &files {
        diagnostics.extend(lint_source(&file.rel, &file.text, &rules_set));
    }
    let (analysis_diags, stats) = crate::analysis::run(root, &files)?;
    diagnostics.extend(analysis_diags);
    diagnostics
        .sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    Ok(WorkspaceReport {
        diagnostics,
        files_scanned: files.len(),
        layer_crates_checked: stats.layer_crates_checked,
        api_crates_checked: stats.api_crates_checked,
    })
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    let rel = dir.strip_prefix(root).unwrap_or(dir);
    let rel_str = rel.to_string_lossy().replace('\\', "/");
    if SKIP_DIRS
        .iter()
        .any(|(skip, _)| path_matches(skip, &rel_str))
    {
        return Ok(());
    }
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for entry in entries {
        if entry.is_dir() {
            collect_rs_files(root, &entry, out)?;
        } else if entry.extension().is_some_and(|ext| ext == "rs") {
            out.push(entry.strip_prefix(root).unwrap_or(&entry).to_path_buf());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::registry;

    fn diags(path: &str, text: &str) -> Vec<Diagnostic> {
        lint_source(path, text, &registry())
    }

    #[test]
    fn scope_matching_segments_and_wildcards() {
        assert!(path_matches("crates/*/src", "crates/core/src/ssd.rs"));
        assert!(!path_matches("crates/*/src", "crates/core/tests/x.rs"));
        assert!(path_matches("crates/bench", "crates/bench/src/lib.rs"));
        assert!(path_matches(
            "crates/bench/src/lib.rs",
            "crates/bench/src/lib.rs"
        ));
        assert!(!path_matches("crates/bench/src/lib.rs", "crates/bench/src"));
        assert!(!path_matches("src", "crates/core/src/lib.rs"));
    }

    #[test]
    fn finding_located_with_line_and_col() {
        let src = "fn f() {\n    let m = std::collections::Hash_Map_o();\n}\n"
            .replace("Hash_Map_o", "HashMap::new");
        let d = diags("crates/core/src/x.rs", &src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "no-default-hasher");
        assert_eq!(d[0].line, 2);
        assert!(d[0].snippet.contains("collections"));
    }

    #[test]
    fn exempt_paths_do_not_fire() {
        let src = "use std::time::In_stant;\n".replace("In_stant", "Instant");
        assert!(diags("crates/bench/src/lib.rs", &src).is_empty());
        // No platform-layer path is exempt.
        assert_eq!(diags("crates/core/src/speed.rs", &src).len(), 1);
        assert_eq!(diags("crates/core/src/session.rs", &src).len(), 1);
    }

    #[test]
    fn trailing_and_standalone_allows_suppress() {
        let rule_hit = "std::collections::Hash_Map".replace("_M", "M");
        let trailing =
            format!("use {rule_hit}; // ssdx-lint::allow(no-default-hasher): test shim over std\n");
        assert!(diags("crates/core/src/x.rs", &trailing).is_empty());

        let standalone = format!(
            "// ssdx-lint::allow(no-default-hasher): test shim over std\nuse {rule_hit};\n"
        );
        assert!(diags("crates/core/src/x.rs", &standalone).is_empty());
    }

    #[test]
    fn bare_allow_reports_and_does_not_suppress() {
        let rule_hit = "std::collections::Hash_Map".replace("_M", "M");
        let src = format!("use {rule_hit}; // ssdx-lint::allow(no-default-hasher)\n");
        let d = diags("crates/core/src/x.rs", &src);
        let rules_hit: Vec<&str> = d.iter().map(|d| d.rule).collect();
        assert!(rules_hit.contains(&"no-default-hasher"));
        assert!(rules_hit.contains(&meta::BARE_SUPPRESSION));
    }

    #[test]
    fn unknown_and_unused_allows_are_audited() {
        let unknown = "fn f() {} // ssdx-lint::allow(no-such-rule): typo'd\n";
        let d = diags("crates/core/src/x.rs", unknown);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, meta::UNKNOWN_RULE);

        let unused = "fn f() {} // ssdx-lint::allow(no-wall-clock): nothing here\n";
        let d = diags("crates/core/src/x.rs", unused);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, meta::UNUSED_SUPPRESSION);
    }

    #[test]
    fn patterns_in_strings_and_comments_do_not_fire() {
        let src = "\
// a comment naming std::collections::Hash_Map is prose
fn f() -> &'static str {
    \"std::time::In_stant and thread::spawn as data\"
}
";
        // The underscore split keeps this test file itself clean; the
        // probe text under test has the real tokens.
        let probe = src
            .replace("Hash_Map", "HashMap")
            .replace("In_stant", "Instant");
        assert!(diags("crates/core/src/x.rs", &probe).is_empty());
    }
}
