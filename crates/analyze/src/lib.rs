//! `surf-analyze` — a dependency-free static-analysis gate for the workspace's
//! concurrency, panic and determinism invariants.
//!
//! The serving subsystem promises structured-error responses under concurrency, and the
//! training/inference stack promises bit-identical results; both promises are enforced by
//! tests only at the points the tests happen to exercise. This crate enforces their
//! *source-level* preconditions everywhere, on every build, with zero dependencies beyond
//! `std` (it gates the build, so it cannot pull anything into it):
//!
//! | rule | invariant |
//! |------|-----------|
//! | [`panic-path`](rules::panic_path) | no panicking constructs in serve request handling |
//! | [`lock-hygiene`](rules::lock_hygiene) | no nested/blocking critical sections, acyclic lock order |
//! | [`unsafe-boundary`](rules::unsafe_boundary) | `forbid(unsafe_code)` outside the checked-in allowlist |
//! | [`float-determinism`](rules::float_determinism) | no float sums over unordered iteration in parity modules |
//! | [`vendor-integrity`](rules::vendor_integrity) | `vendor/` matches its content-hash manifest |
//!
//! The scanner is a small hand-rolled lexer ([`lexer`]) — it understands strings,
//! comments, raw strings and `#[cfg(test)]` regions, not full Rust grammar. Rules are
//! deliberately heuristic; the precision knob is the per-line escape hatch
//! `// lint: allow(<rule>) — <reason>` ([`allow`]), which requires a written reason.

#![forbid(unsafe_code)]

pub mod allow;
pub mod lexer;
pub mod rules;
pub mod walk;

use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One finding, addressed `file:line` like a compiler diagnostic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Rule that produced the finding (or `allow-directive` for malformed escapes).
    pub rule: String,
    /// Workspace-relative file path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Human-readable statement of the problem and the way out.
    pub message: String,
}

impl Diagnostic {
    /// Builds a diagnostic; plain constructor, no formatting.
    pub fn new(rule: &str, file: &str, line: usize, message: &str) -> Self {
        Self {
            rule: rule.to_string(),
            file: file.to_string(),
            line,
            message: message.to_string(),
        }
    }
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Drops diagnostics covered by a `// lint: allow(<rule>) — <reason>` directive in the
/// same file.
pub fn filter_allowed(diags: Vec<Diagnostic>, allowlist: &allow::Allowlist) -> Vec<Diagnostic> {
    diags
        .into_iter()
        .filter(|d| !allowlist.allowed(&d.rule, d.line))
        .collect()
}

/// Ascends from `start` to the workspace root: the nearest ancestor whose `Cargo.toml`
/// contains a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if manifest.is_file() {
            if let Ok(text) = fs::read_to_string(&manifest) {
                if text.lines().any(|l| l.trim() == "[workspace]") {
                    return Some(d);
                }
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Runs every rule over the workspace at `root` and returns the surviving diagnostics,
/// sorted by file, line, rule.
pub fn run_check(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let sources = walk::rust_sources(root)?;
    let crates = walk::workspace_crates(root)?;

    // Lex every file once; rules share the scan.
    let scanned: Vec<(String, lexer::Scanned)> = sources
        .iter()
        .map(|s| (s.rel.clone(), lexer::scan(&s.text)))
        .collect();
    let allowlists: BTreeMap<&str, allow::Allowlist> = scanned
        .iter()
        .map(|(rel, sc)| (rel.as_str(), allow::Allowlist::from_scanned(sc)))
        .collect();

    let mut out = Vec::new();

    // Malformed allow directives are findings in their own right.
    for (rel, list) in &allowlists {
        out.extend(list.problem_diagnostics(rel));
    }

    // Per-file source rules, each filtered through the file's own allowlist.
    let mut graph = rules::lock_hygiene::LockGraph::default();
    for (rel, sc) in &scanned {
        let list = &allowlists[rel.as_str()];
        if rules::panic_path::governs(rel) {
            out.extend(filter_allowed(
                rules::panic_path::check_scanned(rel, sc),
                list,
            ));
        }
        if rules::float_determinism::governs(rel) {
            out.extend(filter_allowed(
                rules::float_determinism::check_scanned(rel, sc),
                list,
            ));
        }
        if rules::lock_hygiene::governs(rel) {
            out.extend(filter_allowed(
                rules::lock_hygiene::check_scanned(rel, sc, &mut graph),
                list,
            ));
        }
    }

    // Lock-order cycles are a cross-file property; no inline allow applies.
    out.extend(graph.cycle_diagnostics());

    // A scope entry naming no file would drop a deleted or renamed module from its rule.
    let files: Vec<(&str, &str)> = sources
        .iter()
        .map(|s| (s.rel.as_str(), s.text.as_str()))
        .collect();
    out.extend(rules::panic_path::stale_entries(&files));
    out.extend(rules::float_determinism::stale_entries(&files));

    // Unsafe boundary: group sources by owning crate (longest dir prefix wins).
    let unsafe_allowlist =
        match fs::read_to_string(root.join(rules::unsafe_boundary::ALLOWLIST_PATH)) {
            Ok(text) => {
                let (list, problems) = rules::unsafe_boundary::UnsafeAllowlist::parse(&text);
                for problem in problems {
                    out.push(Diagnostic::new(
                        rules::unsafe_boundary::NAME,
                        rules::unsafe_boundary::ALLOWLIST_PATH,
                        1,
                        &problem,
                    ));
                }
                list
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                rules::unsafe_boundary::UnsafeAllowlist::default()
            }
            Err(e) => return Err(e),
        };
    for krate in &crates {
        let crate_sources: Vec<(&str, &lexer::Scanned)> = scanned
            .iter()
            .filter(|(rel, _)| owning_crate(rel, &crates) == Some(krate.dir.as_str()))
            .map(|(rel, sc)| (rel.as_str(), sc))
            .collect();
        for diag in rules::unsafe_boundary::check_crate(krate, &crate_sources, &unsafe_allowlist) {
            let keep = allowlists
                .get(diag.file.as_str())
                .map(|list| !list.allowed(&diag.rule, diag.line))
                .unwrap_or(true);
            if keep {
                out.push(diag);
            }
        }
    }
    out.extend(rules::unsafe_boundary::stale_entries(
        &unsafe_allowlist,
        &crates,
    ));

    // Vendored code is covered by the hash manifest, not the source rules.
    out.extend(rules::vendor_integrity::check(root)?);

    out.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.as_str()).cmp(&(b.file.as_str(), b.line, b.rule.as_str()))
    });
    Ok(out)
}

/// The `dir` of the crate owning `rel`: longest matching directory prefix, with the root
/// package (empty `dir`) owning everything outside `crates/`.
fn owning_crate<'a>(rel: &str, crates: &'a [walk::WorkspaceCrate]) -> Option<&'a str> {
    crates
        .iter()
        .filter(|k| {
            if k.dir.is_empty() {
                !rel.starts_with("crates/")
            } else {
                rel.starts_with(&format!("{}/", k.dir))
            }
        })
        .max_by_key(|k| k.dir.len())
        .map(|k| k.dir.as_str())
}

/// Regenerates the checked-in baselines: the vendor hash manifest, and (only if absent)
/// the unsafe-boundary allowlist template. Returns a description of what was written.
pub fn run_baseline(root: &Path) -> io::Result<Vec<String>> {
    let mut actions = Vec::new();
    fs::create_dir_all(root.join("analyze"))?;

    let hashes = rules::vendor_integrity::hash_vendor_tree(root)?;
    let manifest = rules::vendor_integrity::render_manifest(&hashes);
    let manifest_path = root.join(rules::vendor_integrity::MANIFEST_PATH);
    let changed = fs::read_to_string(&manifest_path).map(|old| old != manifest);
    fs::write(&manifest_path, manifest)?;
    actions.push(match changed {
        Ok(false) => format!(
            "{} unchanged ({} vendored files)",
            rules::vendor_integrity::MANIFEST_PATH,
            hashes.len()
        ),
        _ => format!(
            "wrote {} ({} vendored files)",
            rules::vendor_integrity::MANIFEST_PATH,
            hashes.len()
        ),
    });

    let allowlist_path = root.join(rules::unsafe_boundary::ALLOWLIST_PATH);
    if !allowlist_path.is_file() {
        fs::write(&allowlist_path, rules::unsafe_boundary::ALLOWLIST_TEMPLATE)?;
        actions.push(format!(
            "wrote {} (empty template)",
            rules::unsafe_boundary::ALLOWLIST_PATH
        ));
    }
    Ok(actions)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filter_allowed_drops_only_covered_lines() {
        let scanned = lexer::scan("x(); // lint: allow(panic-path) — fixture\ny();\n");
        let list = allow::Allowlist::from_scanned(&scanned);
        let diags = vec![
            Diagnostic::new("panic-path", "f.rs", 1, "covered"),
            Diagnostic::new("panic-path", "f.rs", 2, "kept"),
            Diagnostic::new("lock-hygiene", "f.rs", 1, "different rule, kept"),
        ];
        let kept = filter_allowed(diags, &list);
        assert_eq!(kept.len(), 2, "{kept:?}");
    }

    #[test]
    fn owning_crate_prefers_longest_prefix() {
        let crates = vec![
            walk::WorkspaceCrate {
                name: "surf".into(),
                lib_root: Some("src/lib.rs".into()),
                dir: String::new(),
            },
            walk::WorkspaceCrate {
                name: "surf-serve".into(),
                lib_root: Some("crates/serve/src/lib.rs".into()),
                dir: "crates/serve".into(),
            },
        ];
        assert_eq!(
            owning_crate("crates/serve/src/routes.rs", &crates),
            Some("crates/serve")
        );
        assert_eq!(owning_crate("src/lib.rs", &crates), Some(""));
        assert_eq!(owning_crate("crates/unknown/src/lib.rs", &crates), None);
    }

    #[test]
    fn diagnostic_display_is_file_line_rule_message() {
        let d = Diagnostic::new("panic-path", "crates/serve/src/server.rs", 42, "boom");
        assert_eq!(
            d.to_string(),
            "crates/serve/src/server.rs:42: [panic-path] boom"
        );
    }
}
