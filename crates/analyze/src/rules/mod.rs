//! The five invariants `surf-analyze` enforces. Each rule module exposes its `NAME`, a
//! scope predicate (`governs` or crate-level targeting), and a pure `check_*` entry point
//! over pre-lexed sources so the fixtures in its tests never touch the filesystem.

use crate::Diagnostic;

pub mod float_determinism;
pub mod lock_hygiene;
pub mod panic_path;
pub mod unsafe_boundary;
pub mod vendor_integrity;

/// Diagnostics for scope entries — workspace-relative files a rule governs by name — that
/// match none of `sources` (`(rel, text)` pairs). A deleted or renamed module would
/// otherwise drop out of the gate silently. Each finding points at the entry's line in
/// `rule_file`, the rule's own source.
pub(crate) fn stale_scope_entries(
    rule: &str,
    rule_file: &str,
    entries: &[&str],
    sources: &[(&str, &str)],
) -> Vec<Diagnostic> {
    let rule_text = sources
        .iter()
        .find(|(rel, _)| *rel == rule_file)
        .map_or("", |(_, text)| *text);
    entries
        .iter()
        .filter(|entry| !sources.iter().any(|(rel, _)| rel == *entry))
        .map(|entry| {
            let line = rule_text
                .find(&format!("\"{entry}\""))
                .map_or(1, |at| crate::lexer::line_of(rule_text, at));
            Diagnostic::new(
                rule,
                rule_file,
                line,
                &format!("scope entry `{entry}` names no source file — remove or rename it"),
            )
        })
        .collect()
}

/// Static description of one rule, for `surf-analyze list`.
pub struct RuleInfo {
    /// Rule name as used in diagnostics and `// lint: allow(<name>)` directives.
    pub name: &'static str,
    /// One-line statement of the invariant.
    pub summary: &'static str,
    /// How to legitimately get past the rule when it is wrong or deliberate.
    pub escape: &'static str,
}

/// All rules, in the order `check` runs them.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: panic_path::NAME,
        summary: "no unwrap/expect/panic!/unreachable!/todo!/unimplemented! in serve \
                  request-handling modules (server, registry, routes, http, conn, event loop, \
                  queue, obs) and the obs crate",
        escape: "// lint: allow(panic-path) — <reason>",
    },
    RuleInfo {
        name: lock_hygiene::NAME,
        summary: "no second lock acquisition or blocking I/O while a Mutex/RwLock guard is \
                  live, and the cross-function lock acquisition-order graph must be acyclic",
        escape: "// lint: allow(lock-hygiene) — <reason>  (order cycles cannot be allowed)",
    },
    RuleInfo {
        name: unsafe_boundary::NAME,
        summary: "every workspace crate root carries #![forbid(unsafe_code)] unless listed \
                  in analyze/unsafe_boundary.toml, where each unsafe needs a // SAFETY: note",
        escape: "add the crate to analyze/unsafe_boundary.toml with a written reason",
    },
    RuleInfo {
        name: float_determinism::NAME,
        summary: "no float accumulation over unordered HashMap/HashSet iteration in the \
                  parity-critical modules (ml tree/compiled/matrix/kde, data index*)",
        escape: "// lint: allow(float-determinism) — <reason>",
    },
    RuleInfo {
        name: vendor_integrity::NAME,
        summary: "vendor/ matches the recorded content-hash manifest \
                  (analyze/vendor_manifest.txt)",
        escape: "regenerate the manifest: cargo run -p surf-analyze -- baseline",
    },
];
