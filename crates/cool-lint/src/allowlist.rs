//! The checked-in allowlist (`lint-allow.txt` at the workspace root).
//!
//! Format, one entry per line:
//!
//! ```text
//! # comment
//! build.rs L002 build script: panicking with context is the only error channel cargo gives us
//! ```
//!
//! An entry suppresses every finding of `RULE` in `path`. Entries are
//! deliberately expensive: each needs a written reason, the file may hold
//! at most [`MAX_ENTRIES`], and entries that no longer suppress anything
//! are themselves reported (rule `L000`) so the list cannot rot.

use crate::report::Finding;

/// Hard cap on allowlist size; beyond this the build fails.
pub const MAX_ENTRIES: usize = 25;

/// Per-namespace cap: at most this many entries whose rule shares a
/// leading letter (`L*` = cool-lint, `A*` = cool-analyze), so one tool's
/// exemptions cannot crowd out the other's budget.
pub const MAX_PER_NAMESPACE: usize = 15;

/// One parsed allowlist entry.
#[derive(Debug, Clone)]
pub struct Entry {
    /// Workspace-relative path the exemption applies to.
    pub path: String,
    /// Rule id.
    pub rule: String,
    /// Mandatory justification.
    pub reason: String,
    /// Line in `lint-allow.txt`, for findings about the entry itself.
    pub line: u32,
}

/// Parse result: entries plus findings about malformed/excess lines.
#[derive(Debug, Default)]
pub struct Allowlist {
    pub entries: Vec<Entry>,
    pub problems: Vec<Finding>,
}

/// Parses allowlist text. `source_name` is used for problem findings
/// (normally `lint-allow.txt`).
pub fn parse(source_name: &str, text: &str) -> Allowlist {
    let mut out = Allowlist::default();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = (idx + 1) as u32;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.splitn(3, char::is_whitespace);
        let (path, rule, reason) = (parts.next(), parts.next(), parts.next());
        match (path, rule, reason) {
            (Some(path), Some(rule), Some(reason)) if !reason.trim().is_empty() => {
                out.entries.push(Entry {
                    path: path.to_owned(),
                    rule: rule.to_owned(),
                    reason: reason.trim().to_owned(),
                    line: line_no,
                });
            }
            _ => {
                out.problems.push(Finding::new(
                    source_name,
                    line_no,
                    "L000",
                    "malformed allowlist entry; want `<path> <RULE> <reason>`",
                ));
            }
        }
    }
    if out.entries.len() > MAX_ENTRIES {
        out.problems.push(Finding::new(
            source_name,
            0,
            "L000",
            &format!(
                "allowlist has {} entries, cap is {} — fix violations instead of \
                 exempting them",
                out.entries.len(),
                MAX_ENTRIES
            ),
        ));
    }
    for ns in ['L', 'A'] {
        let n = out.entries.iter().filter(|e| e.rule.starts_with(ns)).count();
        if n > MAX_PER_NAMESPACE {
            out.problems.push(Finding::new(
                source_name,
                0,
                "L000",
                &format!(
                    "allowlist has {n} `{ns}*` entries, per-namespace cap is \
                     {MAX_PER_NAMESPACE} — fix violations instead of exempting them"
                ),
            ));
        }
    }
    out
}

impl Allowlist {
    /// Splits `findings` into (kept, suppressed_count), marking which
    /// entries matched. Returns the surviving findings.
    pub fn apply(&self, findings: Vec<Finding>, used: &mut [bool]) -> (Vec<Finding>, usize) {
        debug_assert_eq!(used.len(), self.entries.len());
        let mut kept = Vec::new();
        let mut suppressed = 0usize;
        for f in findings {
            let hit = self
                .entries
                .iter()
                .position(|e| e.path == f.file && e.rule == f.rule);
            match hit {
                Some(i) => {
                    used[i] = true;
                    suppressed += 1;
                }
                None => kept.push(f),
            }
        }
        (kept, suppressed)
    }

    /// Findings for entries that suppressed nothing this run.
    pub fn unused(&self, source_name: &str, used: &[bool]) -> Vec<Finding> {
        self.entries
            .iter()
            .zip(used)
            .filter(|(_, &u)| !u)
            .map(|(e, _)| {
                Finding::new(
                    source_name,
                    e.line,
                    "L000",
                    &format!(
                        "allowlist entry `{} {}` no longer matches any finding; remove it",
                        e.path, e.rule
                    ),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_entries_and_rejects_reasonless_lines() {
        let text = "# header\n\
                    crates/a/src/lib.rs L002 infallible by construction\n\
                    crates/b/src/lib.rs L001\n";
        let al = parse("lint-allow.txt", text);
        assert_eq!(al.entries.len(), 1);
        assert_eq!(al.problems.len(), 1);
        assert!(al.problems[0].message.contains("malformed"));
    }

    #[test]
    fn apply_suppresses_and_tracks_usage() {
        let al = parse(
            "lint-allow.txt",
            "a.rs L002 fine\nb.rs L001 also fine\n",
        );
        let findings = vec![
            Finding::new("a.rs", 1, "L002", "x"),
            Finding::new("a.rs", 2, "L001", "y"),
        ];
        let mut used = vec![false; al.entries.len()];
        let (kept, suppressed) = al.apply(findings, &mut used);
        assert_eq!(kept.len(), 1);
        assert_eq!(suppressed, 1);
        let unused = al.unused("lint-allow.txt", &used);
        assert_eq!(unused.len(), 1);
        assert!(unused[0].message.contains("b.rs L001"));
    }

    #[test]
    fn cap_is_enforced() {
        let mut text = String::new();
        for i in 0..(MAX_ENTRIES + 1) {
            text.push_str(&format!("f{i}.rs L002 reason\n"));
        }
        let al = parse("lint-allow.txt", &text);
        assert!(al.problems.iter().any(|p| p.message.contains("cap is")));
    }

    #[test]
    fn per_namespace_cap_is_enforced() {
        // Under the total cap but over the A-namespace cap.
        let mut text = String::new();
        for i in 0..(MAX_PER_NAMESPACE + 1) {
            text.push_str(&format!("f{i}.rs A005 reason\n"));
        }
        let al = parse("lint-allow.txt", &text);
        assert!(al.entries.len() <= MAX_ENTRIES);
        assert!(al
            .problems
            .iter()
            .any(|p| p.message.contains("per-namespace cap")));
        // A balanced mix under both caps is fine.
        let al = parse("lint-allow.txt", "a.rs L002 x\nb.rs A005 y\n");
        assert!(al.problems.is_empty());
    }
}
