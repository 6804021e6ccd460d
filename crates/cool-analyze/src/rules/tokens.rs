//! L001, L002, L006, L007 — the per-file token rules.
//!
//! These four need nothing but one file's token stream, so they run in
//! the driver's read loop on the same [`Scan`] the parser consumes,
//! before the tokens are dropped. Harness files and `#[cfg(test)]`
//! regions are exempt: a test may sleep, unwrap, copy and retry.

use crate::lexer::{Scan, Tok, TokKind};
use crate::parse::ParsedFile;
use crate::report::Finding;
use crate::source::{in_regions, on_buffer_path};

/// Receiver identifiers L007 treats as `Bytes`/`Packet` values. The lexer
/// has no types, so the rule keys off the workspace's buffer-naming
/// conventions; a copy hidden behind another name escapes, a cheap clone
/// of something merely *named* `frame` needs an annotation — both are the
/// price of a token-level scan.
const L007_RECEIVERS: &[&str] = &[
    "frame", "frames", "body", "payload", "pkt", "packet", "batch", "buf", "bytes", "storage",
    "sub",
];

/// Runs the four rules over one scanned file.
pub fn check(file: &ParsedFile, scan: &Scan) -> Vec<Finding> {
    let mut findings = Vec::new();
    if file.test_like {
        return findings;
    }
    let rel_path = file.rel.as_str();
    let buffer_path = on_buffer_path(rel_path);
    let toks = &scan.tokens;

    for i in 0..toks.len() {
        // L001: `thread :: sleep`
        if i + 3 < toks.len()
            && toks[i].kind == TokKind::Ident
            && toks[i].text == "thread"
            && toks[i + 1].text == ":"
            && toks[i + 2].text == ":"
            && toks[i + 3].text == "sleep"
        {
            findings.push(Finding::new(
                rel_path,
                toks[i + 3].line,
                "L001",
                "thread::sleep polling in library code; use a condvar/park-based \
                 wait, or annotate a legitimate timed wait with an allow and \
                 its reason",
            ));
        }
        // L002: `. unwrap (` / `. expect (`
        if i + 2 < toks.len()
            && toks[i].text == "."
            && toks[i + 1].kind == TokKind::Ident
            && (toks[i + 1].text == "unwrap" || toks[i + 1].text == "expect")
            && toks[i + 2].text == "("
        {
            findings.push(Finding::new(
                rel_path,
                toks[i + 1].line,
                "L002",
                &format!(
                    ".{}() in library code; propagate an error instead, or \
                     annotate it with an allow and the reason it is provably \
                     infallible",
                    toks[i + 1].text
                ),
            ));
        }
        // L007: `<buffer>.to_vec()` / `<buffer>.clone()` on the zero-copy
        // path. Copies of shared buffers belong behind the Packet
        // copy-on-write or an annotated, justified site.
        if buffer_path
            && i + 3 < toks.len()
            && toks[i].kind == TokKind::Ident
            && L007_RECEIVERS.contains(&toks[i].text.as_str())
            && toks[i + 1].text == "."
            && toks[i + 2].kind == TokKind::Ident
            && (toks[i + 2].text == "to_vec" || toks[i + 2].text == "clone")
            && toks[i + 3].text == "("
        {
            findings.push(Finding::new(
                rel_path,
                toks[i + 2].line,
                "L007",
                &format!(
                    "`{}.{}()` copies a buffer on the zero-copy data path; \
                     borrow a `Bytes` view (slice/split_to) instead, or \
                     annotate it with an allow and the reason the copy is \
                     required (retransmit buffer, corruption injection)",
                    toks[i].text,
                    toks[i + 2].text
                ),
            ));
        }
    }
    if rel_path.starts_with("crates/cool-orb/src/") {
        findings.extend(check_l006(rel_path, toks));
    }
    // `#[cfg(test)]` regions, for all four rules at once.
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
    fn l001_flags_sleep() {
        let src = "fn f() { std::thread::sleep(d); }";
        assert_eq!(check_at("crates/x/src/lib.rs", src), [("L001", 1)]);
    }

    #[test]
    fn l002_flags_unwrap_expect_but_not_unwrap_or() {
        let src = "fn f() { a.unwrap(); b.expect(\"msg\"); c.unwrap_or(0); d.unwrap_or_else(g); }";
        assert_eq!(check_at("crates/x/src/lib.rs", src), [("L002", 1), ("L002", 1)]);
    }

    #[test]
    fn cfg_test_regions_and_harness_files_are_exempt() {
        let src = "fn f() { a.unwrap(); }\n#[cfg(test)]\nmod tests {\n    \
                   fn g(body: Bytes) { b.unwrap(); std::thread::sleep(d); body.to_vec(); }\n}";
        assert_eq!(
            check_at("crates/dacapo/src/lib.rs", src),
            [("L002", 1)],
            "only the library-code unwrap fires"
        );
        let not_test = "#[cfg(not(test))]\nfn f() { a.unwrap(); }";
        assert_eq!(check_at("crates/x/src/lib.rs", not_test).len(), 1);
        for harness in ["crates/x/tests/e2e.rs", "crates/bench/src/lib.rs", "build.rs"] {
            assert!(check_at(harness, src).is_empty(), "{harness}");
        }
    }

    #[test]
    fn l006_flags_bare_retry_loops_in_cool_orb_only() {
        let src = "fn f(b: &B) {\n    loop {\n        if b.call(r).is_ok() { return; }\n    }\n}\n\
                   fn g(b: &B, p: &RetryPolicy) {\n    loop {\n        b.call(r);\n    }\n}\n\
                   fn h(s: &S) {\n    loop {\n        s.invoke_once();\n    }\n}";
        assert_eq!(check_at("crates/cool-orb/src/binding.rs", src), [("L006", 2)]);
        assert!(check_at("crates/dacapo/src/runtime.rs", src).is_empty());
    }

    #[test]
    fn l007_flags_buffer_copies_only_on_the_buffer_path() {
        let src = "fn f(frame: Bytes) { let v = frame.to_vec(); let c = frame.clone(); }";
        assert_eq!(
            check_at("crates/dacapo/src/runtime.rs", src),
            [("L007", 1), ("L007", 1)]
        );
        // cool-giop is on the buffer path too.
        assert_eq!(check_at("crates/cool-giop/src/codec.rs", src).len(), 2);
        // Off the buffer path, or with a non-buffer receiver, nothing fires.
        assert!(check_at("crates/netsim/src/lib.rs", src).is_empty());
        let other = "fn f(config: Config) { let c = config.clone(); }";
        assert!(check_at("crates/dacapo/src/runtime.rs", other).is_empty());
    }
}
