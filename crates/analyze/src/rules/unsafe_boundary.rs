//! **unsafe-boundary** — `#![forbid(unsafe_code)]` everywhere, except through one
//! checked-in gate.
//!
//! The workspace ships with a blanket `#![forbid(unsafe_code)]`, and each hole through it
//! is opened deliberately, with a written reason: `surf-reactor`'s epoll FFI, and
//! `surf-ml`'s one call into the AVX2 build of the KDE box loop. This rule keeps the
//! on-ramp narrow:
//!
//! * every non-vendored crate's `src/lib.rs` must carry `#![forbid(unsafe_code)]` (or
//!   `#![deny(unsafe_code)]`), **unless** the crate is listed in
//!   `analyze/unsafe_boundary.toml` with a written reason;
//! * any `unsafe` token in a crate *not* on the allowlist is flagged — this also covers
//!   `src/bin/` and `tests/` targets, which are separate crate roots the library-level
//!   `forbid` does not reach;
//! * in an allowlisted crate, every `unsafe` occurrence must carry a `// SAFETY:` comment
//!   on the same line or within the three lines above it (the same contract
//!   `clippy::undocumented_unsafe_blocks` enforces, but applied by the gate even where
//!   clippy does not run);
//! * allowlist entries for crates that no longer exist are flagged as stale.
//!
//! To open the boundary for a new kernel crate: add `[crate-name]` with a `reason` to
//! `analyze/unsafe_boundary.toml`, drop the `forbid` from that crate's root, and write a
//! `// SAFETY:` argument above every block. Silently deleting `forbid(unsafe_code)`
//! anywhere else fails the gate.

use crate::lexer::{self, Scanned};
use crate::walk::WorkspaceCrate;
use crate::Diagnostic;
use std::collections::BTreeMap;

/// Rule name as used in diagnostics and allow directives.
pub const NAME: &str = "unsafe-boundary";

/// Workspace-relative path of the allowlist.
pub const ALLOWLIST_PATH: &str = "analyze/unsafe_boundary.toml";

/// The template written by `surf-analyze baseline` when no allowlist exists yet.
pub const ALLOWLIST_TEMPLATE: &str = "\
# unsafe-boundary allowlist — crates permitted to contain `unsafe` code.
#
# Every entry is a section naming the crate, with a mandatory `reason`:
#
#     [surf-reactor]
#     reason = \"epoll FFI behind a safe API\"
#
# An allowlisted crate may drop `#![forbid(unsafe_code)]` from its root, but every
# `unsafe` occurrence in it must carry a `// SAFETY:` comment on the same line or the
# three lines above. All other crates must keep the forbid. Checked by:
#
#     cargo run -p surf-analyze -- check
";

/// Parsed allowlist: crate name → reason.
#[derive(Debug, Default, Clone)]
pub struct UnsafeAllowlist {
    entries: BTreeMap<String, String>,
}

impl UnsafeAllowlist {
    /// Parses the minimal TOML dialect the allowlist uses: `[section]` headers and
    /// `reason = "..."` keys, `#` comments. Returns the list plus any format problems.
    pub fn parse(text: &str) -> (Self, Vec<String>) {
        let mut entries = BTreeMap::new();
        let mut problems = Vec::new();
        let mut current: Option<String> = None;
        for (idx, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                let name = name.trim().to_string();
                if name.is_empty() {
                    problems.push(format!("line {}: empty section name", idx + 1));
                } else {
                    entries.insert(name.clone(), String::new());
                    current = Some(name);
                }
                continue;
            }
            if let Some(value) = line.strip_prefix("reason") {
                let value = value.trim_start();
                let Some(value) = value.strip_prefix('=') else {
                    problems.push(format!("line {}: expected `reason = \"...\"`", idx + 1));
                    continue;
                };
                let value = value.trim().trim_matches('"').trim();
                match &current {
                    Some(name) if !value.is_empty() => {
                        entries.insert(name.clone(), value.to_string());
                    }
                    Some(_) => problems.push(format!("line {}: empty reason", idx + 1)),
                    None => problems.push(format!(
                        "line {}: `reason` outside a [crate] section",
                        idx + 1
                    )),
                }
                continue;
            }
            problems.push(format!("line {}: unrecognized line `{line}`", idx + 1));
        }
        for (name, reason) in &entries {
            if reason.is_empty() {
                problems.push(format!("[{name}] has no `reason = \"...\"` — every hole through the unsafe boundary must be justified"));
            }
        }
        (Self { entries }, problems)
    }

    /// Whether a crate is allowed to contain `unsafe`.
    pub fn allows(&self, crate_name: &str) -> bool {
        self.entries.contains_key(crate_name)
    }

    /// Entry names, for staleness checking.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }
}

/// Checks the boundary for one crate given its scanned sources (`(rel, scanned)` pairs,
/// with `lib_rel` identifying the library root among them).
pub fn check_crate(
    krate: &WorkspaceCrate,
    sources: &[(&str, &Scanned)],
    allowlist: &UnsafeAllowlist,
) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let allowed = allowlist.allows(&krate.name);

    if !allowed {
        if let Some(lib_rel) = &krate.lib_root {
            if let Some((rel, scanned)) = sources.iter().find(|(rel, _)| rel == lib_rel) {
                if !has_forbid_unsafe(&scanned.code) {
                    out.push(Diagnostic::new(
                        NAME,
                        rel,
                        1,
                        &format!(
                            "crate `{}` lacks #![forbid(unsafe_code)] and is not listed in \
                             {ALLOWLIST_PATH} — add the forbid, or add an allowlist entry \
                             with a reason",
                            krate.name
                        ),
                    ));
                }
            }
        }
    }

    for (rel, scanned) in sources {
        for ident in lexer::idents(&scanned.code) {
            if ident.text != "unsafe" {
                continue;
            }
            let line = lexer::line_of(&scanned.code, ident.start);
            if !allowed {
                out.push(Diagnostic::new(
                    NAME,
                    rel,
                    line,
                    &format!(
                        "`unsafe` in crate `{}`, which is not listed in {ALLOWLIST_PATH}",
                        krate.name
                    ),
                ));
            } else if !has_adjacent_safety_comment(scanned, line) {
                out.push(Diagnostic::new(
                    NAME,
                    rel,
                    line,
                    "`unsafe` without an adjacent `// SAFETY:` comment (same line or the \
                     three lines above): write down why the invariants hold",
                ));
            }
        }
    }
    out
}

/// Diagnostics for allowlist entries naming crates that no longer exist.
pub fn stale_entries(allowlist: &UnsafeAllowlist, crates: &[WorkspaceCrate]) -> Vec<Diagnostic> {
    allowlist
        .names()
        .filter(|name| !crates.iter().any(|k| k.name == *name))
        .map(|name| {
            Diagnostic::new(
                NAME,
                ALLOWLIST_PATH,
                1,
                &format!("allowlist entry `[{name}]` names no workspace crate — remove it"),
            )
        })
        .collect()
}

/// Whether a crate root's code view carries `#![forbid(unsafe_code)]` or
/// `#![deny(unsafe_code)]`.
pub fn has_forbid_unsafe(code: &str) -> bool {
    let stripped: String = code.chars().filter(|c| !c.is_whitespace()).collect();
    stripped.contains("#![forbid(unsafe_code)]") || stripped.contains("#![deny(unsafe_code)]")
}

fn has_adjacent_safety_comment(scanned: &Scanned, line: usize) -> bool {
    scanned.comments.iter().any(|c| {
        c.line + 3 >= line && c.line <= line && c.text.to_ascii_uppercase().contains("SAFETY")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn krate(name: &str) -> WorkspaceCrate {
        WorkspaceCrate {
            name: name.to_string(),
            lib_root: Some("crates/x/src/lib.rs".to_string()),
            dir: "crates/x".to_string(),
        }
    }

    #[test]
    fn missing_forbid_fires() {
        let lib = scan("//! docs\npub fn f() {}\n");
        let diags = check_crate(
            &krate("surf-x"),
            &[("crates/x/src/lib.rs", &lib)],
            &UnsafeAllowlist::default(),
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("forbid"));
    }

    #[test]
    fn forbid_present_is_quiet() {
        let lib = scan("//! docs\n#![forbid(unsafe_code)]\npub fn f() {}\n");
        let diags = check_crate(
            &krate("surf-x"),
            &[("crates/x/src/lib.rs", &lib)],
            &UnsafeAllowlist::default(),
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn unsafe_outside_allowlist_fires_even_in_a_bin() {
        let lib = scan("#![forbid(unsafe_code)]\n");
        let bin = scan("fn main() { unsafe { std::hint::unreachable_unchecked() } }\n");
        let diags = check_crate(
            &krate("surf-x"),
            &[
                ("crates/x/src/lib.rs", &lib),
                ("crates/x/src/bin/tool.rs", &bin),
            ],
            &UnsafeAllowlist::default(),
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].file, "crates/x/src/bin/tool.rs");
    }

    #[test]
    fn allowlisted_crate_needs_safety_comments() {
        let (allow, problems) = UnsafeAllowlist::parse("[surf-x]\nreason = \"simd kernel\"\n");
        assert!(problems.is_empty(), "{problems:?}");
        let no_comment = scan("pub fn f() { unsafe { fast_path() } }\n");
        let with_comment =
            scan("pub fn f() {\n    // SAFETY: lanes are in-bounds by construction (len % 8 == 0)\n    unsafe { fast_path() }\n}\n");
        let diags = check_crate(
            &krate("surf-x"),
            &[("crates/x/src/a.rs", &no_comment)],
            &allow,
        );
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("SAFETY"));
        let diags = check_crate(
            &krate("surf-x"),
            &[("crates/x/src/b.rs", &with_comment)],
            &allow,
        );
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn allowlist_requires_reasons_and_flags_stale_entries() {
        let (_, problems) = UnsafeAllowlist::parse("[surf-x]\n");
        assert_eq!(problems.len(), 1, "{problems:?}");
        let (allow, _) = UnsafeAllowlist::parse("[surf-gone]\nreason = \"was removed\"\n");
        let stale = stale_entries(&allow, &[krate("surf-x")]);
        assert_eq!(stale.len(), 1, "{stale:?}");
    }

    #[test]
    fn unsafe_in_strings_and_comments_is_ignored() {
        let lib = scan("#![forbid(unsafe_code)]\n// this crate has no unsafe code\nconst X: &str = \"unsafe\";\n");
        let diags = check_crate(
            &krate("surf-x"),
            &[("crates/x/src/lib.rs", &lib)],
            &UnsafeAllowlist::default(),
        );
        assert!(diags.is_empty(), "{diags:?}");
    }
}
