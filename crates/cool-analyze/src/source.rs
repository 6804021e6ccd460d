//! What the analyzer knows about a source file before any rule looks at
//! it: its role (library or harness, from the path), which of its lines
//! are `#[cfg(test)]` code, which lines carry an inline exemption, and
//! whether it sits on the data path the scoped rules police.

use crate::lexer::{Comment, Tok, TokKind};
use std::collections::HashSet;

/// How a file participates in the analysis, derived from its
/// workspace-relative path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileRole {
    /// Library source: all rules apply outside `#[cfg(test)]` regions.
    LibSrc,
    /// Harness — integration tests, benches, examples, the measurement
    /// crate and the build script: code that runs next to the product, not
    /// in it. The whole file counts as test code: no rule fires in it, and
    /// L005 counts the `OrbError` variants it exercises.
    TestLike,
}

/// Classifies a workspace-relative path (forward slashes).
pub fn classify(rel_path: &str) -> FileRole {
    let test_dirs = ["tests/", "benches/", "examples/"];
    for part in test_dirs {
        if rel_path.starts_with(part) || rel_path.contains(&format!("/{part}")) {
            return FileRole::TestLike;
        }
    }
    if rel_path.starts_with("crates/bench/") || rel_path == "build.rs" {
        return FileRole::TestLike;
    }
    FileRole::LibSrc
}

/// True for files on the ORB / Da CaPo data path.
pub fn on_data_path(rel_path: &str) -> bool {
    rel_path.starts_with("crates/cool-orb/src/") || rel_path.starts_with("crates/dacapo/src/")
}

/// Line spans (1-based, inclusive) covered by `#[cfg(test)]` items.
///
/// This is a token-level approximation, deliberately conservative: a cfg
/// whose predicate mentions `test` without `not` marks the following item
/// (attribute-to-closing-brace, or to the terminating `;`) as test code.
pub fn test_regions(tokens: &[Tok]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0usize;
    while i + 4 < tokens.len() {
        if !(tokens[i].text == "#"
            && tokens[i + 1].text == "["
            && tokens[i + 2].kind == TokKind::Ident
            && tokens[i + 2].text == "cfg"
            && tokens[i + 3].text == "(")
        {
            i += 1;
            continue;
        }
        // Collect the predicate tokens up to the matching `]`.
        let start_line = tokens[i].line;
        let mut depth = 1usize; // we are past `(`
        let mut j = i + 4;
        let mut saw_test = false;
        let mut saw_not = false;
        while j < tokens.len() && depth > 0 {
            match tokens[j].text.as_str() {
                "(" => depth += 1,
                ")" => depth -= 1,
                "test" if tokens[j].kind == TokKind::Ident => saw_test = true,
                "not" if tokens[j].kind == TokKind::Ident => saw_not = true,
                _ => {}
            }
            j += 1;
        }
        // Skip the closing `]`.
        if tokens.get(j).map(|t| t.text.as_str()) == Some("]") {
            j += 1;
        }
        if !saw_test || saw_not {
            i = j;
            continue;
        }
        // Find the extent of the item the attribute decorates: either a
        // braced body (match braces) or a `;`-terminated statement.
        let mut brace_depth = 0usize;
        let mut entered = false;
        let mut end_line = start_line;
        while j < tokens.len() {
            match tokens[j].text.as_str() {
                "{" => {
                    brace_depth += 1;
                    entered = true;
                }
                "}" => {
                    brace_depth = brace_depth.saturating_sub(1);
                    if entered && brace_depth == 0 {
                        end_line = tokens[j].line;
                        j += 1;
                        break;
                    }
                }
                ";" if !entered => {
                    end_line = tokens[j].line;
                    j += 1;
                    break;
                }
                _ => {}
            }
            end_line = tokens[j].line;
            j += 1;
        }
        regions.push((start_line, end_line));
        i = j;
    }
    regions
}

pub fn in_regions(line: u32, regions: &[(u32, u32)]) -> bool {
    regions.iter().any(|&(a, b)| line >= a && line <= b)
}

/// One inline exemption, `// lint: allow(RULE, reason)` written on `line`.
/// It covers its own line and extends through any directly following allow
/// lines to the first non-allow line, `last` — so it can sit on the
/// offending line, immediately above it, or stacked with other allows
/// above it (one site may need more than one rule's exemption).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    pub rule: String,
    pub line: u32,
    pub last: u32,
}

impl Allow {
    pub fn covers(&self, line: u32) -> bool {
        (self.line..=self.last).contains(&line)
    }
}

/// The file's inline exemptions, in comment order. A bare `allow(RULE)`
/// without a reason is no exemption and is not returned.
pub fn inline_allows(comments: &[Comment]) -> Vec<Allow> {
    let mut allows: Vec<Allow> = Vec::new();
    for c in comments {
        let text = c.text.trim();
        let Some(rest) = text.strip_prefix("lint:").map(str::trim) else {
            continue;
        };
        let Some(args) = rest
            .strip_prefix("allow(")
            .and_then(|a| a.split(')').next())
        else {
            continue;
        };
        let Some((rule, reason)) = args.split_once(',') else {
            continue; // reason is mandatory; bare allow(RULE) does nothing
        };
        if reason.trim().is_empty() {
            continue;
        }
        allows.push(Allow {
            rule: rule.trim().to_owned(),
            line: c.line,
            last: c.line,
        });
    }
    let allow_lines: HashSet<u32> = allows.iter().map(|a| a.line).collect();
    for a in &mut allows {
        a.last = a.line + 1;
        while allow_lines.contains(&a.last) {
            a.last += 1;
        }
    }
    allows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    #[test]
    fn harness_paths_are_test_like_and_product_paths_are_not() {
        for harness in [
            "crates/x/tests/e2e.rs",
            "crates/x/benches/bench.rs",
            "examples/demo.rs",
            "tests/chaos.rs",
            "ledger/benches/probes.rs",
            "crates/bench/src/lib.rs",
            "crates/bench/src/bin/fig9.rs",
            "build.rs",
        ] {
            assert_eq!(classify(harness), FileRole::TestLike, "{harness}");
        }
        for product in [
            "src/lib.rs",
            "crates/dacapo/src/alayer.rs",
            "crates/chic/src/build.rs",
            "crates/cool-orb/src/binding.rs",
        ] {
            assert_eq!(classify(product), FileRole::LibSrc, "{product}");
        }
    }

    #[test]
    fn cfg_test_marks_its_item_and_cfg_not_test_does_not() {
        let src = "fn f() {}\n#[cfg(test)]\nmod tests {\n    fn g() {}\n}\n\
                   #[cfg(not(test))]\nfn h() {}\n#[cfg(test)]\nuse x::y;\nfn k() {}";
        assert_eq!(test_regions(&scan(src).tokens), vec![(2, 5), (8, 9)]);
    }

    #[test]
    fn stacked_allows_cover_the_site_below_the_stack() {
        // Two allow lines above one site: both rules must reach line 4.
        let src = "fn f() {\n    // lint: allow(A005, drained by flusher)\n    \
                   // lint: allow(A006, woken by the flusher's close)\n    cv.wait(g);\n}";
        let allows = inline_allows(&scan(src).comments);
        let at = |line: u32| -> Vec<&str> {
            allows.iter().filter(|a| a.covers(line)).map(|a| a.rule.as_str()).collect()
        };
        assert_eq!(at(4), ["A005", "A006"], "stacked rules reach the site");
        assert_eq!(allows[0].line, 2, "an allow knows the line it is written on");
        assert!(at(5).is_empty(), "coverage stops at the first non-allow line");
    }

    #[test]
    fn an_allow_without_a_reason_is_no_allow() {
        let src = "// lint: allow(A007)\nfn f() {}\n// lint: allow(A007, )\nfn g() {}";
        assert!(inline_allows(&scan(src).comments).is_empty());
    }
}
