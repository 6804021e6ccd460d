//! A008 — bounded blocking (hang-freedom) on the data path.
//!
//! The paper's QoS contract is that an invocation completes, degrades down
//! its ladder, or fails attributed — never hangs. This rule makes the
//! "never hangs" half static: every blocking call (a
//! `cool_telemetry::blocking` call, the one way library code blocks) in a
//! `cool-orb`/`dacapo` source file must be *bounded*, by one of:
//!
//! 1. **a timeout/deadline variant** — the name contains `timeout`,
//!    `deadline` or `until` (TCP connect exists only so);
//! 2. **a shutdown-path join** — `blocking::join` inside a shutdown root
//!    (`close`/`shutdown`/... segment, `Drop` impl) or a function the
//!    shutdown roots reach through the call graph: joins there wait for
//!    threads whose loops the close sentinels below are draining;
//! 3. **a documented close-sentinel drain** — the site's `file.rs::fn`
//!    label appears in the DESIGN.md §8.5 drain registry, which names the
//!    wakeup source (sentinel frame, dead-flag poke) that guarantees the
//!    block resolves at teardown. Registry entries that match no
//!    unbounded site are themselves findings, so the registry only ever
//!    shrinks with the code;
//! 4. **a reasoned inline allow** naming the wakeup source (the driver
//!    drops those findings afterwards, as for every rule).
//!
//! A site in a closure body counts under the function that textually
//! contains the closure: a worker loop's receive is checked no matter how
//! the worker is spawned.

use super::{is_shutdown_root, shutdown_reachable, Ctx};
use crate::report::Finding;
use crate::source::on_data_path;
use std::collections::HashSet;

/// Bounded by the operation's own name.
fn bounded_by_name(what: &str) -> bool {
    what.contains("timeout") || what.contains("deadline") || what.ends_with("_until")
}

/// Backticked substrings of `text`.
fn backticked(text: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut rest = text;
    while let Some(start) = rest.find('`') {
        let after = &rest[start + 1..];
        let Some(end) = after.find('`') else { break };
        names.push(after[..end].to_owned());
        rest = &after[end + 1..];
    }
    names
}

/// One §8.5 drain-registry entry: `` - `file.rs::fn` — wakeup story ``.
struct DrainEntry {
    label: String,
    line: u32,
}

/// Parses the `### 8.5` close-sentinel drain registry (bullet list with a
/// backticked `file.rs::fn` label per entry), absolute line numbers.
fn parse_drains(design: &str) -> Vec<DrainEntry> {
    let mut out = Vec::new();
    let mut in_sect = false;
    for (i, raw) in design.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with("### 8.5") {
            in_sect = true;
            continue;
        }
        if in_sect && (line.starts_with("## ") || line.starts_with("### ")) {
            break;
        }
        if !in_sect || !line.starts_with("- ") {
            continue;
        }
        let Some(label) = backticked(line).into_iter().find(|l| l.contains("::")) else {
            continue;
        };
        out.push(DrainEntry {
            label,
            line: (i + 1) as u32,
        });
    }
    out
}

pub fn check(ctx: &Ctx) -> Vec<Finding> {
    let ws = ctx.ws;
    let reach = shutdown_reachable(ctx);
    let drains = ctx.design.map(parse_drains).unwrap_or_default();

    let mut out = Vec::new();
    let mut used_drains: HashSet<&str> = HashSet::new();
    for (fi, file) in ws.files.iter().enumerate() {
        if file.test_like || !on_data_path(&file.rel) {
            continue;
        }
        let file_name = file.rel.rsplit('/').next().unwrap_or(&file.rel);
        for b in &file.blocks {
            if b.in_test || bounded_by_name(&b.what) {
                continue;
            }
            let f = b.fn_idx.map(|gi| (gi, &file.fns[gi]));
            // Shutdown-path joins wait for threads the close sentinels
            // (below) are draining; the join itself is the drain's end.
            if b.what == "join"
                && f.is_some_and(|(gi, f)| is_shutdown_root(f) || reach.contains(&(fi, gi)))
            {
                continue;
            }
            let name = f.map_or("<module>", |(_, f)| f.name.as_str());
            let label = format!("{file_name}::{name}");
            if let Some(d) = drains.iter().find(|d| d.label == label) {
                used_drains.insert(&d.label);
                continue;
            }
            out.push(Finding::new(
                &file.rel,
                b.line,
                "A008",
                &format!(
                    "unbounded blocking `{}()` on the data path at `{label}`: use a \
                     timeout/deadline variant, document the close-sentinel drain in \
                     DESIGN.md §8.5, or justify with an inline allow naming the wakeup \
                     source",
                    b.what
                ),
            ));
        }
    }
    // Registry rows that cover nothing are drift: the site was fixed,
    // moved, or renamed. Keep the registry an exact map of the code.
    for d in &drains {
        if !used_drains.contains(d.label.as_str()) {
            out.push(Finding::new(
                "DESIGN.md",
                d.line,
                "A008",
                &format!(
                    "drain-registry entry `{}` matches no unbounded blocking site on \
                     the data path; delete the entry or update its label",
                    d.label
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_entries_parse_with_absolute_lines() {
        let design = "# t\n## 8. Failure\n### 8.5 Close-sentinel drains\n\
                      Some prose.\n\
                      - `batch.rs::flusher_loop` — woken by the `None` sentinel close() sends\n\
                      - not an entry (no label)\n\
                      - `server.rs::start_exchange` — dead-flag poke\n\
                      ### 8.6 Other\n- `x.rs::y` — outside\n";
        let d = parse_drains(design);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].label, "batch.rs::flusher_loop");
        assert_eq!(d[0].line, 5);
        assert_eq!(d[1].label, "server.rs::start_exchange");
    }

    #[test]
    fn name_boundedness() {
        for ok in [
            "recv_timeout",
            "recv_deadline",
            "wait_while_until",
            "connect_timeout",
        ] {
            assert!(bounded_by_name(ok), "{ok}");
        }
        for bad in ["recv", "wait_while", "join"] {
            assert!(!bounded_by_name(bad), "{bad}");
        }
    }
}
