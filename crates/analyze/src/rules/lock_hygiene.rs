//! **lock-hygiene** — guard-lifetime tracking and a global lock-acquisition-order graph.
//!
//! The serving subsystem's concurrency story is "short, non-nested critical sections":
//! request handlers take one lock at a time (the registry's read lock, the job queue's
//! mutex), never block on I/O while holding one, and never create an acquisition-order
//! cycle between two locks. This rule enforces those three properties from source:
//!
//! 1. **No nested acquisition.** Within a function, acquiring a second lock
//!    (`.lock()`, `.read()`, `.write()` — zero-argument calls only, which distinguishes
//!    `RwLock::read()` from `io::Read::read(&mut buf)`) while a guard is live is flagged.
//!    A guard bound with `let` lives to the end of its block (or an explicit `drop(guard)`);
//!    an unbound guard (`self.slots.read()?.get(..)`) lives to the end of its statement.
//! 2. **No blocking calls under a guard.** `read_to_end`, `read_to_string`, `read_exact`,
//!    `write_all`, `accept` and `recv` while any guard is live is flagged: a critical
//!    section that waits on the network (or on another thread) serializes every other
//!    request behind it.
//! 3. **No acquisition-order cycles.** Every nested acquisition — allowed or not — records
//!    a `first-lock → second-lock` edge in a workspace-global graph (lock identity is the
//!    receiver's final path segment, namespaced by crate). A cycle in that graph is a
//!    deadlock waiting for the right thread interleaving, so it fails the build and cannot
//!    be silenced inline: break the cycle or re-architect.
//!
//! The tracking is deliberately lexical (no type inference, no inter-procedural guard
//! flow); acquisitions hidden behind helper functions are each analyzed where they occur.
//! Escape hatch for 1/2: `// lint: allow(lock-hygiene) — <reason>` on the flagged line.

use crate::lexer::{self, Scanned};
use crate::Diagnostic;
use std::collections::{BTreeMap, BTreeSet};

/// Rule name as used in diagnostics and allow directives.
pub const NAME: &str = "lock-hygiene";

/// Whether the rule governs this workspace-relative path: every non-test production source
/// (integration tests and benches exercise, not implement, the locking discipline).
pub fn governs(rel: &str) -> bool {
    !rel.contains("/tests/") && !rel.contains("/benches/") && !rel.starts_with("tests/")
}

const LOCK_METHODS: &[&str] = &["lock", "read", "write"];
const BLOCKING_CALLS: &[&str] = &[
    "read_to_end",
    "read_to_string",
    "read_exact",
    "write_all",
    "accept",
    "recv",
];

/// The workspace-global acquisition-order graph, fed by every scanned file.
#[derive(Debug, Default)]
pub struct LockGraph {
    /// `A → {B, ...}`: lock B was acquired somewhere while lock A was held.
    edges: BTreeMap<String, BTreeSet<String>>,
    /// One representative source site per edge, for diagnostics.
    sites: BTreeMap<(String, String), (String, usize)>,
}

impl LockGraph {
    fn record(&mut self, held: &str, acquired: &str, file: &str, line: usize) {
        self.edges
            .entry(held.to_string())
            .or_default()
            .insert(acquired.to_string());
        self.sites
            .entry((held.to_string(), acquired.to_string()))
            .or_insert((file.to_string(), line));
    }

    /// Cycle detection over the recorded edges. Each cycle is reported once, anchored at
    /// one of its recorded acquisition sites. Cycles cannot be `lint: allow`ed: they are a
    /// cross-site property, so no single line can own the justification.
    pub fn cycle_diagnostics(&self) -> Vec<Diagnostic> {
        let mut out = Vec::new();
        let mut reported: BTreeSet<Vec<String>> = BTreeSet::new();
        for start in self.edges.keys() {
            let mut stack = vec![start.clone()];
            let mut on_stack: BTreeSet<String> = [start.clone()].into();
            self.dfs(start, &mut stack, &mut on_stack, &mut reported, &mut out);
        }
        out
    }

    fn dfs(
        &self,
        node: &str,
        stack: &mut Vec<String>,
        on_stack: &mut BTreeSet<String>,
        reported: &mut BTreeSet<Vec<String>>,
        out: &mut Vec<Diagnostic>,
    ) {
        let Some(nexts) = self.edges.get(node) else {
            return;
        };
        for next in nexts {
            if let Some(pos) = stack.iter().position(|n| n == next) {
                // Found a cycle: canonicalize (rotate to the smallest element) to report
                // each distinct cycle once.
                let mut cycle: Vec<String> = stack[pos..].to_vec();
                let min = cycle
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, n)| n.as_str())
                    .map(|(i, _)| i)
                    .unwrap_or(0);
                cycle.rotate_left(min);
                if reported.insert(cycle.clone()) {
                    let (file, line) = self
                        .sites
                        .get(&(node.to_string(), next.to_string()))
                        .cloned()
                        .unwrap_or_else(|| ("<unknown>".to_string(), 0));
                    out.push(Diagnostic::new(
                        NAME,
                        &file,
                        line,
                        &format!(
                            "lock acquisition-order cycle: {} — a deadlock under the right \
                             interleaving; break the cycle (this edge closes it)",
                            cycle.join(" → "),
                        ),
                    ));
                }
                continue;
            }
            stack.push(next.clone());
            on_stack.insert(next.clone());
            self.dfs(next, stack, on_stack, reported, out);
            stack.pop();
            on_stack.remove(next);
        }
    }
}

/// One live guard during the scan of a function body.
#[derive(Debug)]
struct Guard {
    /// Lock identity (crate-namespaced receiver segment).
    id: String,
    /// Binding name, when `let`-bound (enables `drop(name)` tracking).
    name: Option<String>,
    /// Brace depth at acquisition; the guard dies when depth drops below this.
    depth: usize,
    /// Whether the guard is a statement-scoped temporary (no `let` binding).
    temporary: bool,
}

/// Scans one (already lexed) file, appending acquisition-order edges to `graph`.
/// `rel` labels diagnostics and namespaces lock identities.
pub fn check_scanned(rel: &str, scanned: &Scanned, graph: &mut LockGraph) -> Vec<Diagnostic> {
    let code = lexer::mask_cfg_test(&scanned.code);
    let namespace = crate_namespace(rel);
    let mut out = Vec::new();
    let bytes = code.as_bytes();
    let idents = lexer::idents(&code);

    // Find function bodies: `fn name ... {` (skipping declarations ending in `;`).
    let mut i = 0;
    while i < idents.len() {
        if idents[i].text != "fn" {
            i += 1;
            continue;
        }
        let Some(name) = idents.get(i + 1) else {
            break;
        };
        // Locate the body opener: first `{` before a `;` at paren depth 0.
        let mut j = name.end;
        let mut paren = 0i32;
        let mut body = None;
        while j < bytes.len() {
            match bytes[j] {
                b'(' | b'[' => paren += 1,
                b')' | b']' => paren -= 1,
                b'{' if paren == 0 => {
                    body = Some(j);
                    break;
                }
                b';' if paren == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = body else {
            i += 1;
            continue;
        };
        let close = lexer::matching_close(&code, open);
        scan_body(
            &code, &idents, open, close, &namespace, rel, graph, &mut out,
        );
        // Continue after the body; nested `fn`s inside it were scanned as part of it,
        // which over-approximates guard liveness across the nesting — acceptable, and
        // rescanning them standalone would double-report.
        i = idents.partition_point(|id| id.start < close);
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn scan_body(
    code: &str,
    idents: &[lexer::Ident<'_>],
    open: usize,
    close: usize,
    namespace: &str,
    rel: &str,
    graph: &mut LockGraph,
    out: &mut Vec<Diagnostic>,
) {
    let bytes = code.as_bytes();
    let mut guards: Vec<Guard> = Vec::new();
    let first = idents.partition_point(|id| id.start <= open);
    let mut next_ident = first;
    let mut depth = 1usize;
    let mut pos = open + 1;
    while pos < close {
        // Advance over structural bytes up to the next identifier (or the body end).
        let ident_start = idents
            .get(next_ident)
            .map(|id| id.start)
            .unwrap_or(close)
            .min(close);
        while pos < ident_start {
            match bytes[pos] {
                b'{' => depth += 1,
                b'}' => {
                    depth = depth.saturating_sub(1);
                    guards.retain(|g| g.depth <= depth);
                }
                b';' => {
                    guards.retain(|g| !(g.temporary && g.depth >= depth));
                }
                _ => {}
            }
            pos += 1;
        }
        if pos >= close {
            break;
        }
        let ident = &idents[next_ident];
        next_ident += 1;
        pos = ident.end;

        let prev = lexer::prev_nonspace(code, ident.start).map(|(_, b)| b);
        let next = lexer::next_nonspace(code, ident.end).map(|(_, b)| b);

        if ident.text == "drop" && next == Some(b'(') {
            // `drop(name)` releases a named guard early.
            if let Some((open_paren, _)) = lexer::next_nonspace(code, ident.end) {
                let inner: String = code
                    [open_paren + 1..lexer::matching_close(code, open_paren).min(close)]
                    .trim()
                    .to_string();
                guards.retain(|g| g.name.as_deref() != Some(inner.as_str()));
            }
            continue;
        }

        if LOCK_METHODS.contains(&ident.text) && prev == Some(b'.') && next == Some(b'(') {
            // Zero-argument call only: `.read()` is a lock, `.read(&mut buf)` is I/O.
            let open_paren = lexer::next_nonspace(code, ident.end).map(|(i, _)| i);
            let zero_arg = open_paren
                .and_then(|p| lexer::next_nonspace(code, p + 1))
                .map(|(_, b)| b == b')')
                .unwrap_or(false);
            if !zero_arg {
                continue;
            }
            let line = lexer::line_of(code, ident.start);
            let id = format!("{namespace}::{}", receiver_segment(code, ident.start));
            for held in &guards {
                if held.id != id {
                    graph.record(&held.id, &id, rel, line);
                }
                out.push(Diagnostic::new(
                    NAME,
                    rel,
                    line,
                    &format!(
                        "acquires `{}` while guard on `{}` is live: nested critical \
                         sections invite deadlock — narrow the first guard's scope",
                        id, held.id
                    ),
                ));
            }
            let call_close = open_paren
                .map(|p| lexer::matching_close(code, p))
                .unwrap_or(ident.end);
            let consumed = chain_consumes_guard(code, call_close + 1);
            guards.push(make_guard(code, ident.start, id, depth, consumed));
            continue;
        }

        if BLOCKING_CALLS.contains(&ident.text)
            && next == Some(b'(')
            && matches!(prev, Some(b'.'))
            && !guards.is_empty()
        {
            let line = lexer::line_of(code, ident.start);
            let held: Vec<&str> = guards.iter().map(|g| g.id.as_str()).collect();
            out.push(Diagnostic::new(
                NAME,
                rel,
                line,
                &format!(
                    "blocking call `.{}()` while holding {}: the critical section now \
                     waits on I/O and serializes every contender — release the guard first",
                    ident.text,
                    held.join(", "),
                ),
            ));
        }
    }
}

/// Methods that pass a lock guard through a call chain rather than consuming it:
/// `m.lock().unwrap()`, `m.read().map_err(|_| E::Poisoned)?` still bind the guard itself.
const GUARD_PRESERVING: &[&str] = &["unwrap", "expect", "unwrap_or_else", "map_err"];

/// Whether the method chain following a lock call (starting at `pos`, just past the call's
/// closing paren) consumes the guard before the statement ends — `m.read().map(|s| ...)`
/// binds the *mapped value*, not the guard, so the guard dies at the `;` even under `let`.
fn chain_consumes_guard(code: &str, mut pos: usize) -> bool {
    loop {
        match lexer::next_nonspace(code, pos) {
            Some((p, b'?')) => pos = p + 1,
            Some((p, b'.')) => {
                let bytes = code.as_bytes();
                let mut end = p + 1;
                while end < bytes.len() && bytes[end].is_ascii_whitespace() {
                    end += 1;
                }
                let start = end;
                while end < bytes.len() && lexer::is_ident_byte(bytes[end]) {
                    end += 1;
                }
                if start == end || !GUARD_PRESERVING.contains(&&code[start..end]) {
                    return true;
                }
                match lexer::next_nonspace(code, end) {
                    Some((paren, b'(')) => pos = lexer::matching_close(code, paren) + 1,
                    _ => return true,
                }
            }
            _ => return false, // `;`, `)`, end of chain: the guard itself is what's bound
        }
    }
}

/// Builds a guard for the acquisition at `at`, deciding `let`-binding by scanning back to
/// the start of the enclosing statement. A guard consumed by its own method chain is
/// statement-scoped no matter how the statement binds the result.
fn make_guard(code: &str, at: usize, id: String, depth: usize, consumed: bool) -> Guard {
    let bytes = code.as_bytes();
    // Statement start: the byte after the previous `;`, `{` or `}`.
    let mut start = at;
    while start > 0 && !matches!(bytes[start - 1], b';' | b'{' | b'}') {
        start -= 1;
    }
    let stmt_idents = lexer::idents(&code[start..at]);
    if !consumed && stmt_idents.first().map(|id| id.text) == Some("let") {
        // `let [mut] name = ...` — patterns (`let (a, b) = ...`) fall back to a
        // conservatively block-scoped anonymous guard.
        let name = stmt_idents
            .iter()
            .skip(1)
            .find(|id| id.text != "mut")
            .map(|id| id.text.to_string());
        Guard {
            id,
            name,
            depth,
            temporary: false,
        }
    } else {
        Guard {
            id,
            name: None,
            depth,
            temporary: true,
        }
    }
}

/// The lock's identity: the final receiver segment before the locking call —
/// `self.slots.read()` → `slots`, `shard.lock()` → `shard`,
/// `self.shard_for(&key).lock()` → `shard_for`.
fn receiver_segment(code: &str, method_start: usize) -> String {
    let bytes = code.as_bytes();
    let Some((dot, _)) = lexer::prev_nonspace(code, method_start) else {
        return "<unknown>".to_string();
    };
    // Before the dot: either an identifier or a `)` / `]` closing a call/index.
    let mut end = match lexer::prev_nonspace(code, dot) {
        Some((i, b')')) | Some((i, b']')) => {
            // Walk back over the balanced group to the ident before it.
            let open = matching_open(code, i);
            match lexer::prev_nonspace(code, open) {
                Some((j, b)) if lexer::is_ident_byte(b) => j + 1,
                _ => return "<expr>".to_string(),
            }
        }
        Some((i, b)) if lexer::is_ident_byte(b) => i + 1,
        _ => return "<expr>".to_string(),
    };
    let mut start = end;
    while start > 0 && lexer::is_ident_byte(bytes[start - 1]) {
        start -= 1;
    }
    if start == end {
        end = start;
    }
    code[start..end].to_string()
}

/// Byte offset of the `(`/`[`/`{` matching the closer at `close`.
fn matching_open(code: &str, close: usize) -> usize {
    let bytes = code.as_bytes();
    let (o, c) = match bytes[close] {
        b')' => (b'(', b')'),
        b']' => (b'[', b']'),
        b'}' => (b'{', b'}'),
        _ => return close,
    };
    let mut depth = 0usize;
    for i in (0..=close).rev() {
        if bytes[i] == c {
            depth += 1;
        } else if bytes[i] == o {
            depth -= 1;
            if depth == 0 {
                return i;
            }
        }
    }
    0
}

/// Crate namespace of a workspace-relative path: `crates/serve/src/registry.rs` → `serve`,
/// `src/lib.rs` → `surf`.
fn crate_namespace(rel: &str) -> String {
    let mut parts = rel.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("crate").to_string(),
        _ => "surf".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn run(src: &str) -> (Vec<Diagnostic>, LockGraph) {
        let scanned = scan(src);
        let mut graph = LockGraph::default();
        let diags = crate::filter_allowed(
            check_scanned("crates/serve/src/x.rs", &scanned, &mut graph),
            &crate::allow::Allowlist::from_scanned(&scanned),
        );
        (diags, graph)
    }

    #[test]
    fn nested_acquisition_fires() {
        let src = "fn f(&self) {\n    let a = self.alpha.lock();\n    let b = self.beta.lock();\n    use_both(a, b);\n}\n";
        let (diags, _) = run(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 3);
        assert!(diags[0].message.contains("beta"));
        assert!(diags[0].message.contains("alpha"));
    }

    #[test]
    fn sequential_scoped_guards_pass() {
        let src = "fn f(&self) {\n    { let a = self.alpha.lock(); use_it(a); }\n    { let b = self.beta.lock(); use_it(b); }\n}\n";
        let (diags, _) = run(src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn drop_releases_a_named_guard() {
        let src = "fn f(&self) {\n    let a = self.alpha.lock();\n    drop(a);\n    let b = self.beta.lock();\n}\n";
        let (diags, _) = run(src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn temporary_guard_dies_at_statement_end() {
        let src = "fn f(&self) -> usize {\n    let n = self.slots.read().map(|s| s.len()).unwrap_or(0);\n    let m = self.other.read().map(|s| s.len()).unwrap_or(0);\n    n + m\n}\n";
        let (diags, _) = run(src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn io_read_with_buffer_is_not_a_lock() {
        let src = "fn f(stream: &mut TcpStream) {\n    let mut chunk = [0u8; 1024];\n    let n = stream.read(&mut chunk);\n    let g = self.state.lock();\n}\n";
        let (diags, _) = run(src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn blocking_call_under_guard_fires_and_allow_silences() {
        let src = "fn f(&self) {\n    let g = self.queue.lock();\n    g.recv();\n}\n";
        let (diags, _) = run(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("recv"));

        let allowed = "fn f(&self) {\n    let g = self.queue.lock();\n    // lint: allow(lock-hygiene) — parking on the queue is the handoff itself\n    g.recv();\n}\n";
        let (diags, _) = run(allowed);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn for_loop_guard_dies_each_iteration() {
        let src = "fn f(&self) {\n    for shard in &self.shards {\n        let mut s = shard.lock();\n        s.clear();\n    }\n    let g = self.counter.lock();\n}\n";
        let (diags, _) = run(src);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn acquisition_order_cycle_fails_even_when_nesting_is_allowed() {
        let src = "fn ab(&self) {\n    let a = self.alpha.lock();\n    // lint: allow(lock-hygiene) — fixture\n    let b = self.beta.lock();\n}\nfn ba(&self) {\n    let b = self.beta.lock();\n    // lint: allow(lock-hygiene) — fixture\n    let a = self.alpha.lock();\n}\n";
        let (diags, graph) = run(src);
        assert!(diags.is_empty(), "allows silence the nesting: {diags:?}");
        let cycles = graph.cycle_diagnostics();
        assert_eq!(cycles.len(), 1, "{cycles:?}");
        assert!(cycles[0].message.contains("alpha"));
        assert!(cycles[0].message.contains("beta"));
    }

    #[test]
    fn consistent_order_has_no_cycle() {
        let src = "fn ab(&self) {\n    let a = self.alpha.lock();\n    // lint: allow(lock-hygiene) — fixture\n    let b = self.beta.lock();\n}\nfn ab2(&self) {\n    let a = self.alpha.lock();\n    // lint: allow(lock-hygiene) — fixture\n    let b = self.beta.lock();\n}\n";
        let (_, graph) = run(src);
        assert!(graph.cycle_diagnostics().is_empty());
    }

    #[test]
    fn chained_receiver_identity() {
        let src = "fn f(&self) {\n    let s = self.shard_for(&key).lock();\n    let t = self.shard_for(&key).lock();\n}\n";
        let (diags, graph) = run(src);
        // Same lock id on both sides: nesting is still flagged (possible self-deadlock)...
        assert_eq!(diags.len(), 1, "{diags:?}");
        // ...but no self-edge pollutes the order graph.
        assert!(graph.cycle_diagnostics().is_empty());
    }
}
