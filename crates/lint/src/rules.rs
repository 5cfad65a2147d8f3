//! The rule registry: what the workspace promises, written down as checks.
//!
//! Every rule here is grounded in a contract some other part of the
//! platform depends on — byte-identical replay (`Explorer`'s determinism
//! contract), hash-order independence (`ssdx_sim::hash::FastHashMap`),
//! `unsafe` confinement (`crates/alloctrack`), wall-clock confinement
//! (the harness crates). The full mapping from contract to
//! enforcement lives in ARCHITECTURE.md ("Invariants & enforcement"), and
//! CI greps that every rule named in [`RULES`] appears there.
//!
//! # Extending the table
//!
//! Rules and their scopes are one declarative table, [`RULES`]: a new
//! invariant is a new [`RuleSpec`] entry (plus a fixture under
//! `tests/fixtures/` — the fixture suite fails if a registered rule has no
//! fixture proving it fires). Structural exemptions (whole paths a rule
//! does not cover) carry a written reason in the table; everything
//! finer-grained uses the audited inline form:
//!
//! ```text
//! // ssdx-lint::allow(rule-name): why this exact site is sound
//! ```

use crate::engine::SourceFile;

/// A diagnostic-to-be: a rule match at a byte offset, pre-suppression.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Registry name of the rule that fired.
    pub rule: &'static str,
    /// Byte offset of the match in the file.
    pub offset: usize,
    /// Byte length of the matched text.
    pub len: usize,
    /// Human message describing this specific match.
    pub message: String,
}

/// A single invariant check over one source file.
///
/// Implementations see the whole [`SourceFile`] (text, lexed regions, code
/// mask) and report [`Finding`]s; scoping and suppression are handled by
/// the engine, so a rule only answers "does this pattern occur in code?".
pub trait Rule {
    /// Registry name (kebab-case; what `ssdx-lint::allow(...)` references).
    fn name(&self) -> &'static str;
    /// One-line statement of the contract the rule enforces.
    fn contract(&self) -> &'static str;
    /// What to do instead when the rule fires.
    fn help(&self) -> &'static str;
    /// Scan `file` and return every match, in offset order.
    fn check(&self, file: &SourceFile<'_>) -> Vec<Finding>;
}

/// Where a rule applies, expressed as workspace-relative path patterns.
///
/// Patterns are `/`-separated segment prefixes; a `*` segment matches
/// exactly one path segment (`crates/*/src` covers `crates/core/src/ssd.rs`
/// but not `crates/core/tests/x.rs`). A file is in scope iff it matches an
/// `include` pattern and no `exempt` pattern. Exemptions are structural and
/// carry their justification here, in the table, where review sees them.
#[derive(Debug, Clone, Copy)]
pub struct RuleSpec {
    /// Registry name (kebab-case; what `ssdx-lint::allow(...)` references).
    pub name: &'static str,
    /// One-line statement of the contract the rule enforces.
    pub contract: &'static str,
    /// What to do instead when the rule fires.
    pub help: &'static str,
    /// Literal token patterns matched word-boundary-exactly in code regions.
    pub patterns: &'static [&'static str],
    /// Path patterns the rule covers.
    pub include: &'static [&'static str],
    /// `(path pattern, why that path is exempt)`.
    pub exempt: &'static [(&'static str, &'static str)],
    /// Skip matches inside `#[cfg(test)]` items (per [`crate::parse`]):
    /// for rules whose contract binds production code only.
    pub skip_test_code: bool,
}

/// Every Rust source the walker visits (workspace-relative roots).
const EVERYWHERE: &[&str] = &["crates", "src", "tests", "examples"];
/// Library sources only: crate `src/` trees plus the root facade.
const LIB_SOURCES: &[&str] = &["crates/*/src", "src"];

/// The declarative rule + scope table. One entry per shipped rule.
pub const RULES: &[RuleSpec] = &[
    RuleSpec {
        name: "no-default-hasher",
        contract: "hash-order independence: simulation state never lives in an entropy-seeded map",
        help: "use ssdx_sim::hash::FastHashMap (keyed lookups and order-independent folds only) \
               or a BTreeMap/BTreeSet where iteration order is observable",
        patterns: &["HashMap", "HashSet"],
        include: EVERYWHERE,
        exempt: &[(
            "crates/ftl/tests/oracle",
            "the pre-rewrite FTL kept verbatim as the state-identity oracle; editing it would \
             void its 'preserved unmodified' guarantee",
        )],
        skip_test_code: false,
    },
    RuleSpec {
        name: "no-wall-clock",
        contract: "reproducibility: simulation code never observes host time",
        help: "simulated time comes from ssdx_sim::SimTime; wall-clock reads belong in \
               the harness layer (the bench crate, the load generator), never in the platform",
        patterns: &["Instant", "SystemTime"],
        include: EVERYWHERE,
        exempt: &[
            (
                "crates/bench",
                "the KCPS and speedup meters behind `experiments fig6` and `experiments \
                 speedup` time real executions by design",
            ),
            (
                "crates/server/src/load.rs",
                "the load generator measures client-observed service latency, which is \
                 wall-clock by definition; simulation results stay SimTime-pure",
            ),
        ],
        skip_test_code: false,
    },
    RuleSpec {
        name: "unsafe-outside-alloctrack",
        contract: "memory safety: `unsafe` is confined to the counting-allocator harness",
        help: "the workspace forbids unsafe_code; a crate that truly needs it extends this \
               scope table in a reviewed PR instead of re-enabling the lint locally",
        patterns: &["unsafe", "unsafe_code"],
        include: EVERYWHERE,
        exempt: &[(
            "crates/alloctrack",
            "implementing GlobalAlloc requires unsafe; this is the audited exception the rule \
             exists to protect",
        )],
        skip_test_code: false,
    },
    RuleSpec {
        name: "no-thread-spawn-outside-parallel",
        contract: "determinism under concurrency: all threading flows through ParallelExecutor",
        help: "use ssdx_core::parallel::ParallelExecutor (deterministic per-job seeding, \
               ordered collection) instead of ambient threads",
        patterns: &[
            "std::thread",
            "thread::spawn",
            "thread::scope",
            "thread::Builder",
            "available_parallelism",
            "rayon",
        ],
        include: EVERYWHERE,
        exempt: &[
            (
                "crates/core/src/parallel.rs",
                "the executor itself is the one owner of OS threads",
            ),
            (
                "crates/server",
                "service I/O concurrency (acceptor, connection readers/writers, load \
                 generator) is not simulation work; determinism is preserved per \
                 session, not per thread schedule",
            ),
        ],
        skip_test_code: false,
    },
    RuleSpec {
        name: "no-ambient-randomness",
        contract: "byte-identical replay: every random draw comes from a seeded SimRng",
        help: "thread a SimRng (or a value derived from the config seed) into the call site; \
               ambient entropy cannot be replayed",
        patterns: &[
            "RandomState",
            "DefaultHasher",
            "thread_rng",
            "from_entropy",
            "getrandom",
            "OsRng",
        ],
        include: EVERYWHERE,
        exempt: &[],
        skip_test_code: false,
    },
    RuleSpec {
        name: "no-print-in-lib",
        contract: "library crates stay silent: human-facing output belongs to binaries, \
                   examples, and tests",
        help: "return data and let the caller render it; the experiments binary, examples/ \
               and tests/ may print",
        patterns: &["println!", "print!", "eprintln!", "eprint!", "dbg!"],
        include: LIB_SOURCES,
        exempt: &[
            (
                "crates/bench/src",
                "the experiments binary and its helpers are the workspace's CLI surface",
            ),
            (
                "crates/server/src/bin",
                "the server/client/loadgen binaries are CLI surface; the server library \
                 itself logs only through an injected writer handle and stays exempt-free",
            ),
        ],
        skip_test_code: false,
    },
    RuleSpec {
        name: "no-panic-in-hot-path",
        contract: "hot paths never panic: the mapping, session step loop, DRAM buffer, and \
                   command paths degrade through Result, not process death",
        help: "return a Result (the *_try twin pattern), use let-else/match on the Option, \
               or justify the invariant with an audited \
               `ssdx-lint::allow(no-panic-in-hot-path): <why>`",
        patterns: &["unwrap", "expect", "panic!", "unreachable!", "todo!"],
        include: HOT_PATHS,
        exempt: &[],
        skip_test_code: true,
    },
];

/// The designated hot-path modules: code on the per-command simulation
/// path, where a panic kills a multi-hour sweep. The list is deliberately
/// file-precise — widening it is a reviewed table change, and a tier-1 test
/// fails if an entry names a file that no longer exists.
pub const HOT_PATHS: &[&str] = &[
    "crates/dram/src/buffer.rs",
    "crates/dram/src/bank.rs",
    "crates/ftl/src/mapping.rs",
    "crates/core/src/session.rs",
    "crates/channel/src/controller.rs",
    "crates/nand/src/die.rs",
    "crates/nand/src/onfi.rs",
];

/// Names of the suppression-audit diagnostics the engine itself emits.
/// These are not pattern rules but appear in diagnostics and fixtures the
/// same way, and ARCHITECTURE.md documents them alongside [`RULES`].
pub mod meta {
    /// An `ssdx-lint::allow(...)` with no `: reason` — suppressing without
    /// saying why is itself a finding, and the allow does not suppress.
    pub const BARE_SUPPRESSION: &str = "bare-suppression";
    /// An allow naming a rule the registry does not know.
    pub const UNKNOWN_RULE: &str = "unknown-rule-in-allow";
    /// A well-formed allow that suppressed nothing — stale, so flagged.
    pub const UNUSED_SUPPRESSION: &str = "unused-suppression";
}

/// Look up a rule's spec (scope + metadata) by name.
pub fn spec(name: &str) -> Option<&'static RuleSpec> {
    RULES.iter().find(|s| s.name == name)
}

/// Build the default registry: one [`PatternRule`] per [`RULES`] entry.
pub fn registry() -> Vec<Box<dyn Rule>> {
    RULES
        .iter()
        .map(|spec| Box::new(PatternRule { spec }) as Box<dyn Rule>)
        .collect()
}

/// A rule that flags literal token patterns appearing in code regions.
///
/// Matches are word-boundary exact: `HashMap` does not fire inside
/// `FastHashMap`, `unsafe` does not fire inside `unsafe_code` (which has
/// its own pattern). Matches inside strings, chars, and comments never
/// fire — that is the lexer's guarantee.
pub struct PatternRule {
    spec: &'static RuleSpec,
}

impl Rule for PatternRule {
    fn name(&self) -> &'static str {
        self.spec.name
    }

    fn contract(&self) -> &'static str {
        self.spec.contract
    }

    fn help(&self) -> &'static str {
        self.spec.help
    }

    fn check(&self, file: &SourceFile<'_>) -> Vec<Finding> {
        // Test-code exemption is opt-in per rule and span-precise: the
        // item parser reports each `#[cfg(test)]` item's byte range.
        let test_spans = if self.spec.skip_test_code {
            crate::parse::test_spans(file.text())
        } else {
            Vec::new()
        };
        let in_test = |offset: usize| test_spans.iter().any(|&(s, e)| s <= offset && offset < e);
        let mut findings = Vec::new();
        for pattern in self.spec.patterns {
            for offset in find_word_matches(file.text(), pattern) {
                if file.range_is_code(offset, offset + pattern.len()) && !in_test(offset) {
                    findings.push(Finding {
                        rule: self.spec.name,
                        offset,
                        len: pattern.len(),
                        message: format!("`{pattern}` violates: {}", self.spec.contract),
                    });
                }
            }
        }
        findings.sort_by_key(|f| f.offset);
        findings
    }
}

/// All word-boundary occurrences of `pattern` in `text` (byte offsets).
fn find_word_matches(text: &str, pattern: &str) -> Vec<usize> {
    let bytes = text.as_bytes();
    let mut out = Vec::new();
    let mut from = 0usize;
    while let Some(pos) = text[from..].find(pattern) {
        let start = from + pos;
        let end = start + pattern.len();
        let left_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let right_ok = end == bytes.len() || !is_ident_byte(bytes[end]);
        if left_ok && right_ok {
            out.push(start);
        }
        from = start + 1;
    }
    out
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_the_table() {
        let rules = registry();
        assert_eq!(rules.len(), RULES.len());
        assert!(rules.len() >= 6, "the contract set must not shrink");
        let mut names: Vec<&str> = rules.iter().map(|r| r.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), rules.len(), "rule names must be unique");
    }

    #[test]
    fn specs_are_well_formed() {
        for spec in RULES {
            assert!(!spec.patterns.is_empty(), "{}: no patterns", spec.name);
            assert!(!spec.include.is_empty(), "{}: no scope", spec.name);
            assert!(!spec.contract.is_empty() && !spec.help.is_empty());
            assert!(
                spec.name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-'),
                "{}: rule names are kebab-case",
                spec.name
            );
            for (_, why) in spec.exempt {
                assert!(!why.is_empty(), "{}: exemptions carry a reason", spec.name);
            }
        }
    }

    #[test]
    fn word_boundaries_are_respected() {
        let hay = "FastHashMap HashMapX a_HashMap HashMap x HashMap";
        let hits = find_word_matches(hay, "HashMap");
        // Only the two standalone occurrences.
        assert_eq!(hits.len(), 2);
        assert!(hits.iter().all(|&p| {
            let s = &hay[p..p + "HashMap".len()];
            s == "HashMap"
        }));
    }
}
