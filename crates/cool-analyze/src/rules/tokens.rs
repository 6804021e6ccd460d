//! L006 — the per-file token rule.
//!
//! It needs nothing but one file's token stream, so it runs in the
//! driver's read loop on the same [`Scan`] the parser consumes, before the
//! tokens are dropped. Harness files and `#[cfg(test)]` regions are
//! exempt: a test may retry as it likes.

use crate::lexer::{Scan, Tok, TokKind};
use crate::parse::ParsedFile;
use crate::report::Finding;
use crate::source::in_regions;

/// Runs the rule over one scanned file.
pub fn check(file: &ParsedFile, scan: &Scan) -> Vec<Finding> {
    if file.test_like || !file.rel.starts_with("crates/cool-orb/src/") {
        return Vec::new();
    }
    let mut findings = check_l006(&file.rel, &scan.tokens);
    findings.retain(|f| !in_regions(f.line, &file.test_regions));
    findings
}

/// Method names whose presence inside a loop marks it as an
/// invocation-path retry loop. Exact ident match: `.invoke_once(` does
/// *not* trip on `invoke`.
const L006_CALLS: &[&str] = &["call", "send", "send_frame", "invoke"];

/// L006: a `loop`/`while` in cool-orb library code whose body performs an
/// invocation-path call (`.call(`, `.send(`, `.send_frame(`, `.invoke(`)
/// must be governed by a bounded `RetryPolicy` — detected as the ident
/// `RetryPolicy` appearing anywhere between the enclosing `fn` and the end
/// of the loop. Bare retry-forever loops are how calls hang instead of
/// failing attributed.
fn check_l006(rel_path: &str, toks: &[Tok]) -> Vec<Finding> {
    let mut findings = Vec::new();
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind != TokKind::Ident || (t.text != "loop" && t.text != "while") {
            continue;
        }
        let line = t.line;
        // Body extent: first `{` after the keyword to its matching `}`.
        // (A `while let` pattern brace would end the scan early — a
        // conservative under-approximation this codebase never hits.)
        let mut j = i + 1;
        while j < toks.len() && toks[j].text != "{" {
            j += 1;
        }
        if j >= toks.len() {
            continue;
        }
        let body_start = j;
        let mut depth = 0usize;
        let mut body_end = j;
        while j < toks.len() {
            match toks[j].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth -= 1;
                    if depth == 0 {
                        body_end = j;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let is_retry_call = (body_start..body_end).any(|k| {
            toks[k].text == "."
                && k + 2 < toks.len()
                && toks[k + 1].kind == TokKind::Ident
                && L006_CALLS.contains(&toks[k + 1].text.as_str())
                && toks[k + 2].text == "("
        });
        if !is_retry_call {
            continue;
        }
        let fn_start = (0..i)
            .rev()
            .find(|&k| toks[k].kind == TokKind::Ident && toks[k].text == "fn")
            .unwrap_or(0);
        let governed = toks[fn_start..=body_end]
            .iter()
            .any(|t| t.kind == TokKind::Ident && t.text == "RetryPolicy");
        if governed {
            continue;
        }
        findings.push(Finding::new(
            rel_path,
            line,
            "L006",
            "retry loop around an invocation-path call without a bounded \
             RetryPolicy; thread OrbConfig::retry through it, or annotate it \
             with an allow whose reason is the termination argument",
        ));
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;
    use crate::parse::parse_file;

    /// (rule, line) of what fires on `src` as if it lived at `rel_path`.
    fn check_at(rel_path: &str, src: &str) -> Vec<(&'static str, u32)> {
        let scan = scan(src);
        check(&parse_file(rel_path, &scan), &scan)
            .iter()
            .map(|f| (f.rule, f.line))
            .collect()
    }

    #[test]
    fn cfg_test_regions_and_harness_files_are_exempt() {
        let src = "fn f(b: &B) {\n    loop { b.call(r); }\n}\n#[cfg(test)]\nmod tests {\n    \
                   fn g(b: &B) { loop { b.call(r); } }\n}";
        assert_eq!(
            check_at("crates/cool-orb/src/binding.rs", src),
            [("L006", 2)],
            "only the library-code loop fires"
        );
        assert!(check_at("crates/cool-orb/tests/e2e.rs", src).is_empty());
    }

    #[test]
    fn l006_flags_bare_retry_loops_in_cool_orb_only() {
        let src = "fn f(b: &B) {\n    loop {\n        if b.call(r).is_ok() { return; }\n    }\n}\n\
                   fn g(b: &B, p: &RetryPolicy) {\n    loop {\n        b.call(r);\n    }\n}\n\
                   fn h(s: &S) {\n    loop {\n        s.invoke_once();\n    }\n}";
        assert_eq!(check_at("crates/cool-orb/src/binding.rs", src), [("L006", 2)]);
        assert!(check_at("crates/dacapo/src/runtime.rs", src).is_empty());
    }
}
