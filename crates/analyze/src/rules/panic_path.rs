//! **panic-path** — no panicking constructs in serve request-handling modules.
//!
//! A worker thread that panics takes its connection (and, under a poisoned lock, every
//! subsequent request touching that lock) down with it, silently. The serving crate's
//! contract is that *every* failure surfaces as a structured `{"error":{...}}` response,
//! so its request-handling modules must not contain `.unwrap()`, `.expect(...)`,
//! `panic!`, `unreachable!`, `todo!` or `unimplemented!` outside `#[cfg(test)]` code.
//! Lock poisoning in particular must either produce a structured 500
//! (`ServeError::LockPoisoned`) or recover the guard (`PoisonError::into_inner`) with a
//! comment arguing why the protected state stays valid. A [`TARGET_FILES`] entry that
//! names no source file is a finding too, so deleting or renaming a governed module cannot
//! quietly shrink the rule's scope.
//!
//! Escape hatch: `// lint: allow(panic-path) — <reason>` on the offending line.

use crate::lexer::{self, Scanned};
use crate::Diagnostic;

/// Rule name as used in diagnostics and allow directives.
pub const NAME: &str = "panic-path";

/// Workspace-relative path of this rule's source, where [`TARGET_FILES`] lives.
const RULE_FILE: &str = "crates/analyze/src/rules/panic_path.rs";

/// Workspace-relative files the rule governs: the modules that run on worker threads and
/// hold the serving subsystem's shared state.
pub const TARGET_FILES: &[&str] = &[
    "crates/serve/src/server.rs",
    "crates/serve/src/registry.rs",
    "crates/serve/src/routes.rs",
    "crates/serve/src/http.rs",
    "crates/serve/src/conn.rs",
    "crates/serve/src/event_loop.rs",
    "crates/serve/src/queue.rs",
    "crates/serve/src/obs.rs",
    "crates/obs/src/lib.rs",
    "crates/obs/src/metrics.rs",
    "crates/obs/src/trace.rs",
    "crates/obs/src/expo.rs",
];

/// Whether the rule governs this workspace-relative path.
pub fn governs(rel: &str) -> bool {
    TARGET_FILES.contains(&rel)
}

/// Diagnostics for [`TARGET_FILES`] entries that name none of `sources` (`(rel, text)`).
pub fn stale_entries(sources: &[(&str, &str)]) -> Vec<Diagnostic> {
    super::stale_scope_entries(NAME, RULE_FILE, TARGET_FILES, sources)
}

const PANIC_METHODS: &[&str] = &["unwrap", "expect"];
const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Scans one (already lexed) file. `rel` is only used to label diagnostics.
pub fn check_scanned(rel: &str, scanned: &Scanned) -> Vec<Diagnostic> {
    let code = lexer::mask_cfg_test(&scanned.code);
    let mut out = Vec::new();
    for ident in lexer::idents(&code) {
        let next = lexer::next_nonspace(&code, ident.end).map(|(_, b)| b);
        if PANIC_METHODS.contains(&ident.text) {
            let prev = lexer::prev_nonspace(&code, ident.start).map(|(_, b)| b);
            if prev == Some(b'.') && next == Some(b'(') {
                out.push(Diagnostic::new(
                    NAME,
                    rel,
                    lexer::line_of(&code, ident.start),
                    &format!(
                        ".{}() can panic a worker thread: return a structured error \
                         (ServeError::LockPoisoned for poisoned locks) or recover the guard",
                        ident.text
                    ),
                ));
            }
        } else if PANIC_MACROS.contains(&ident.text) && next == Some(b'!') {
            out.push(Diagnostic::new(
                NAME,
                rel,
                lexer::line_of(&code, ident.start),
                &format!(
                    "{}! in a request-handling module: every failure must map to a \
                     structured JSON error response",
                    ident.text
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn run(src: &str) -> Vec<Diagnostic> {
        crate::filter_allowed(
            check_scanned("crates/serve/src/server.rs", &scan(src)),
            &crate::allow::Allowlist::from_scanned(&scan(src)),
        )
    }

    #[test]
    fn fires_on_unwrap_expect_and_panic_macros() {
        let src = "fn f() {\n    let g = m.lock().unwrap();\n    let h = m.lock().expect(\"poisoned\");\n    panic!(\"boom\");\n    unreachable!();\n}\n";
        let diags = run(src);
        assert_eq!(diags.len(), 4, "{diags:?}");
        assert_eq!(diags[0].line, 2);
        assert_eq!(diags[1].line, 3);
    }

    #[test]
    fn quiet_on_structured_error_handling() {
        let src = "fn f() -> Result<(), E> {\n    let g = m.lock().map_err(|_| E::LockPoisoned)?;\n    let h = m.lock().unwrap_or_else(std::sync::PoisonError::into_inner);\n    g.use_it();\n    Ok(())\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn quiet_on_strings_comments_and_test_code() {
        let src = "fn f() { let s = \".unwrap()\"; } // .expect() in a comment\n#[cfg(test)]\nmod tests {\n    fn t() { x.unwrap(); panic!(); }\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn a_target_file_missing_from_the_sources_is_stale() {
        let sources: Vec<(&str, &str)> = TARGET_FILES
            .iter()
            .filter(|rel| **rel != "crates/serve/src/registry.rs")
            .map(|rel| (*rel, ""))
            .collect();
        let stale = stale_entries(&sources);
        assert_eq!(stale.len(), 1, "{stale:?}");
        assert!(stale[0].message.contains("crates/serve/src/registry.rs"));
        assert_eq!(stale[0].file, RULE_FILE);
        let all: Vec<(&str, &str)> = TARGET_FILES.iter().map(|rel| (*rel, "")).collect();
        assert!(stale_entries(&all).is_empty());
    }

    #[test]
    fn allow_directive_silences_one_line_only() {
        let src = "fn f() {\n    // lint: allow(panic-path) — this invariant is checked at construction\n    x.unwrap();\n    y.unwrap();\n}\n";
        let diags = run(src);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 4);
    }

    #[test]
    fn unwrap_or_variants_are_not_panics() {
        let src = "fn f() { a.unwrap_or(0); b.unwrap_or_else(|| 1); c.unwrap_or_default(); d.expect_err(\"e\"); }\n";
        // expect_err does panic, but it is a distinct identifier the rule deliberately
        // leaves to review; the point here is that unwrap_or* never false-positives.
        assert!(run(src).is_empty());
    }
}
