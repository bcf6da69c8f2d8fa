//! **float-determinism** — no float accumulation over unordered iteration in
//! parity-critical modules.
//!
//! The repo's strongest correctness artifacts are its bit-identity suites: the histogram
//! training engine reproduces the exact engine's trees bit for bit, and the compiled
//! inference engine reproduces the node walker bit for bit. Float addition is not
//! associative, so summing values in `HashMap`/`HashSet` iteration order — which is
//! unspecified and changes across runs once the default `RandomState` hasher is involved —
//! silently breaks those guarantees. In the modules those suites protect, any
//! `+=`/`.sum()`/`.product()` fed by `HashMap`/`HashSet` iteration is flagged; iterate a
//! sorted view (`BTreeMap`, sorted `Vec`) or restructure the accumulation instead.
//!
//! Detection is heuristic and name-based: the rule tracks bindings, fields and parameters
//! whose declared type or constructor mentions `HashMap`/`HashSet`, then looks for
//! iteration over them (`.iter()`, `.values()`, `.keys()`, `.drain()`, `.into_iter()`,
//! `for _ in &map`) whose enclosing statement or loop body accumulates. That trades a
//! little over-approximation (flagging an integer sum over a map, which is order-safe) for
//! zero type inference; integer cases are exactly what the escape hatch
//! `// lint: allow(float-determinism) — integer accumulation` is for. A [`TARGET_FILES`]
//! entry that names no source file is a finding too.

use crate::lexer::{self, Scanned};
use crate::Diagnostic;
use std::collections::BTreeSet;

/// Rule name as used in diagnostics and allow directives.
pub const NAME: &str = "float-determinism";

/// Workspace-relative path of this rule's source, where [`TARGET_FILES`] lives.
const RULE_FILE: &str = "crates/analyze/src/rules/float_determinism.rs";

/// Files the rule governs by name: the modules covered by the `hist_parity`,
/// `compiled_parity` and `kde_parity` bit-identity suites.
pub const TARGET_FILES: &[&str] = &[
    "crates/ml/src/tree.rs",
    "crates/ml/src/compiled.rs",
    "crates/ml/src/matrix.rs",
    "crates/ml/src/kde.rs",
];

/// Workspace-relative files the rule governs: [`TARGET_FILES`] plus every
/// `crates/data/src/index*` module (the `index_equivalence` suite's).
pub fn governs(rel: &str) -> bool {
    TARGET_FILES.contains(&rel)
        || (rel.starts_with("crates/data/src/index") && rel.ends_with(".rs"))
}

/// Diagnostics for [`TARGET_FILES`] entries that name none of `sources` (`(rel, text)`).
pub fn stale_entries(sources: &[(&str, &str)]) -> Vec<Diagnostic> {
    super::stale_scope_entries(NAME, RULE_FILE, TARGET_FILES, sources)
}

const UNORDERED_TYPES: &[&str] = &["HashMap", "HashSet"];
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "values",
    "values_mut",
    "keys",
    "drain",
    "into_iter",
    "into_values",
    "into_keys",
];

/// Scans one (already lexed) file. `rel` is only used to label diagnostics.
pub fn check_scanned(rel: &str, scanned: &Scanned) -> Vec<Diagnostic> {
    let code = lexer::mask_cfg_test(&scanned.code);
    let unordered = unordered_names(&code);
    if unordered.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    let mut flagged_lines = BTreeSet::new();
    for ident in lexer::idents(&code) {
        if !unordered.contains(ident.text) {
            continue;
        }
        // `map.iter()` / `map.values()` ... ?
        let mut trigger = None;
        if let Some((dot, b'.')) = lexer::next_nonspace(&code, ident.end) {
            if let Some(method) = ident_at(&code, dot + 1) {
                if ITER_METHODS.contains(&method.text)
                    && lexer::next_nonspace(&code, method.end).map(|(_, b)| b) == Some(b'(')
                {
                    trigger = Some(ident.start);
                }
            }
        }
        // `for v in &map {` / `for v in map {` ?
        if trigger.is_none() && is_for_in_target(&code, ident.start) {
            trigger = Some(ident.start);
        }
        let Some(trigger) = trigger else { continue };
        let window = accumulation_window(&code, trigger);
        if window_accumulates(&code[trigger..window]) {
            let line = lexer::line_of(&code, trigger);
            if flagged_lines.insert(line) {
                out.push(Diagnostic::new(
                    NAME,
                    rel,
                    line,
                    &format!(
                        "accumulation over unordered `{}` iteration: float sums depend on \
                         iteration order and break the bit-identity parity suites — iterate \
                         a sorted view instead",
                        ident.text
                    ),
                ));
            }
        }
    }
    out
}

/// Names whose declaration mentions an unordered container: `let m: HashMap<...>`,
/// `m = HashMap::new()`, struct fields `m: HashMap<...>`, parameters `m: &HashMap<...>`.
fn unordered_names(code: &str) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for ident in lexer::idents(code) {
        if !UNORDERED_TYPES.contains(&ident.text) {
            continue;
        }
        // Walk back over `&`, `&mut`, `::std::collections::` style paths to the marker
        // that tells us which name this type belongs to.
        let mut pos = ident.start;
        while let Some((p, b)) = lexer::prev_nonspace(code, pos) {
            match b {
                b'&' | b'<' => pos = p, // `&HashMap`, `Arc<HashMap<...>>` — keep walking
                b':' if p > 0 && code.as_bytes()[p - 1] == b':' => {
                    // `collections::HashMap` — skip the path segment before `::`.
                    match ident_ending_at(code, p - 1) {
                        Some(seg) => pos = seg.start,
                        None => break,
                    }
                }
                b':' => {
                    // `name: HashMap<...>` — binding, field or parameter.
                    if let Some(name) = ident_ending_at(code, p) {
                        if name.text != "mut" {
                            names.insert(name.text.to_string());
                        }
                    }
                    break;
                }
                b'=' => {
                    // `name = HashMap::new()` or `let name = HashMap::with_capacity(..)`.
                    if let Some(name) = ident_ending_at(code, p) {
                        names.insert(name.text.to_string());
                    }
                    break;
                }
                _ if lexer::is_ident_byte(b) => {
                    // A wrapper-type path segment (`Arc<HashMap<...>>`, `mut`): skip it and
                    // keep walking toward the `:` / `=` marker.
                    match ident_ending_at(code, p + 1) {
                        Some(prev) => pos = prev.start,
                        None => break,
                    }
                }
                _ => break,
            }
        }
    }
    names
}

/// The identifier starting at the first non-whitespace position at/after `at`, if any.
fn ident_at(code: &str, at: usize) -> Option<lexer::Ident<'_>> {
    let (start, b) = lexer::next_nonspace(code, at)?;
    if !(b.is_ascii_alphabetic() || b == b'_') {
        return None;
    }
    let bytes = code.as_bytes();
    let mut end = start;
    while end < bytes.len() && lexer::is_ident_byte(bytes[end]) {
        end += 1;
    }
    Some(lexer::Ident {
        text: &code[start..end],
        start,
        end,
    })
}

/// The identifier whose last byte sits immediately before `before` (ignoring nothing).
fn ident_ending_at(code: &str, before: usize) -> Option<lexer::Ident<'_>> {
    let (end_idx, b) = lexer::prev_nonspace(code, before)?;
    if !lexer::is_ident_byte(b) {
        return None;
    }
    let bytes = code.as_bytes();
    let mut start = end_idx;
    while start > 0 && lexer::is_ident_byte(bytes[start - 1]) {
        start -= 1;
    }
    Some(lexer::Ident {
        text: &code[start..end_idx + 1],
        start,
        end: end_idx + 1,
    })
}

/// Whether the identifier at `start` is the target of a `for ... in` loop header.
fn is_for_in_target(code: &str, start: usize) -> bool {
    // Scan back over `&`, `mut` to the previous identifier; require it to be `in`.
    let mut pos = start;
    loop {
        match lexer::prev_nonspace(code, pos) {
            Some((p, b'&')) => pos = p,
            Some((p, b)) if lexer::is_ident_byte(b) => {
                let Some(prev) = ident_ending_at(code, p + 1) else {
                    return false;
                };
                if prev.text == "mut" {
                    pos = prev.start;
                    continue;
                }
                return prev.text == "in";
            }
            _ => return false,
        }
    }
}

/// End (exclusive) of the accumulation window starting at `trigger`: through the enclosing
/// statement's `;`, extended through the matching `}` of any block (`for` body, closure
/// body) that opens first.
fn accumulation_window(code: &str, trigger: usize) -> usize {
    let bytes = code.as_bytes();
    let mut i = trigger;
    let mut depth = 0usize;
    while i < bytes.len() {
        match bytes[i] {
            b'{' => {
                let close = lexer::matching_close(code, i);
                return close.min(code.len());
            }
            b'(' | b'[' => depth += 1,
            b')' | b']' => {
                if depth == 0 {
                    return i;
                }
                depth -= 1;
            }
            b'}' if depth == 0 => return i, // enclosing block ended (tail expression)
            b';' if depth == 0 => return i,
            _ => {}
        }
        i += 1;
    }
    code.len()
}

/// Whether a window contains an accumulation: `+=`, `.sum(`, `.sum::<`, `.product(`.
fn window_accumulates(window: &str) -> bool {
    if window.contains("+=") || window.contains("*=") {
        return true;
    }
    for ident in lexer::idents(window) {
        if (ident.text == "sum" || ident.text == "product")
            && lexer::prev_nonspace(window, ident.start).map(|(_, b)| b) == Some(b'.')
            && matches!(
                lexer::next_nonspace(window, ident.end).map(|(_, b)| b),
                Some(b'(') | Some(b':')
            )
        {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn run(src: &str) -> Vec<Diagnostic> {
        crate::filter_allowed(
            check_scanned("crates/ml/src/tree.rs", &scan(src)),
            &crate::allow::Allowlist::from_scanned(&scan(src)),
        )
    }

    #[test]
    fn fires_on_values_sum() {
        let src = "fn f(cells: &HashMap<u64, f64>) -> f64 {\n    cells.values().sum()\n}\n";
        let diags = run(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 2);
    }

    #[test]
    fn fires_on_for_loop_accumulation() {
        let src = "fn f() {\n    let mut m = HashMap::new();\n    m.insert(1u64, 2.0f64);\n    let mut acc = 0.0;\n    for (_, v) in &m {\n        acc += v;\n    }\n}\n";
        let diags = run(src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 5);
    }

    #[test]
    fn quiet_on_sorted_views_and_non_accumulating_iteration() {
        let src = "fn f(m: &HashMap<u64, f64>, b: &BTreeMap<u64, f64>) -> f64 {\n    let mut keys: Vec<_> = m.keys().collect();\n    keys.sort();\n    let ordered: f64 = b.values().sum();\n    ordered\n}\n";
        assert!(run(src).is_empty(), "{:?}", run(src));
    }

    #[test]
    fn quiet_on_vec_accumulation() {
        let src = "fn f(v: &[f64]) -> f64 { v.iter().sum() }\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn allow_escape_hatch() {
        let src = "fn f(m: &HashMap<u64, u64>) -> u64 {\n    // lint: allow(float-determinism) — integer counts, order-independent\n    m.values().sum()\n}\n";
        assert!(run(src).is_empty());
    }

    #[test]
    fn a_target_file_missing_from_the_sources_is_stale() {
        let rule_source = std::fs::read_to_string(concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/src/rules/float_determinism.rs"
        ))
        .unwrap();
        let mut sources: Vec<(&str, &str)> = TARGET_FILES
            .iter()
            .filter(|rel| **rel != "crates/ml/src/matrix.rs")
            .map(|rel| (*rel, ""))
            .collect();
        sources.push((RULE_FILE, &rule_source));
        let stale = stale_entries(&sources);
        assert_eq!(stale.len(), 1, "{stale:?}");
        assert!(stale[0].message.contains("crates/ml/src/matrix.rs"));
        assert_eq!(stale[0].file, RULE_FILE);
        let line = rule_source.lines().nth(stale[0].line - 1).unwrap();
        assert!(
            line.contains("\"crates/ml/src/matrix.rs\""),
            "points at the entry: {line}"
        );
        sources.push(("crates/ml/src/matrix.rs", ""));
        assert!(stale_entries(&sources).is_empty());
    }

    #[test]
    fn hashset_drain_with_accumulation_fires() {
        let src = "fn f(s: &mut HashSet<u64>) {\n    let mut total = 0.0;\n    for x in s.drain() {\n        total += x as f64;\n    }\n}\n";
        assert_eq!(run(src).len(), 1);
    }
}
