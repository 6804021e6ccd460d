//! The rule set.
//!
//! | Rule | Invariant                                                          |
//! |------|--------------------------------------------------------------------|
//! | L001 | no `thread::sleep` polling in library code                         |
//! | L002 | no `.unwrap()` / `.expect()` in library code                       |
//! | L005 | every `OrbError` variant is exercised somewhere in tests           |
//! | L006 | invocation-path retry loops in cool-orb reference `RetryPolicy`    |
//! | L007 | no buffer copies (`.to_vec()`/`.clone()`) on the zero-copy path    |
//! | A001 | lock ranks strictly increase along every static acquisition path   |
//! | A002 | no blocking operation (recv/wait/join/connect...) is reachable     |
//! |      | while a lock guard is live                                         |
//! | A003 | cool-giop codecs are symmetric: every encode has a decode and a    |
//! |      | round-trip test naming the type                                    |
//! | A004 | every telemetry name constant is emitted somewhere and documented  |
//! |      | in DESIGN.md §6                                                    |
//! | A005 | channel topology: every data-path queue is bounded (or carries an  |
//! |      | allow), matches the DESIGN.md §7.4 table (capacities included),    |
//! |      | and no documented cycle is all-blocking                            |
//! | A006 | condvar waits hold no other ordered lock, have a reachable notify, |
//! |      | and sit in a predicate loop                                        |
//! | A007 | every spawned thread has a join reachable from the shutdown path   |
//! | A008 | every blocking call on the data path is bounded: timeout/deadline  |
//! |      | variant, §8.5-documented close-sentinel drain, shutdown-path join, |
//! |      | or a connect chain proven bounded through the call graph           |
//! | A010 | `OrbError` sites on the data path carry their attribution payload  |
//! |      | (request id, attempts+last, replica identity)                      |
//!
//! A rule id is a name, not a namespace: the letter records which pass a
//! rule was born in, nothing more. No rule fires in test code — harness
//! files and `#[cfg(test)]` regions: tests sleep, unwrap and copy freely,
//! the lock-order checker's own tests provoke inversions on purpose, test
//! scaffolding spawns and queues die with the test process, and tests
//! construct unattributed errors to probe the retry machinery.
//!
//! A finding is suppressed by `// lint: allow(RULE, reason)` on the same
//! or the preceding line — the reason is mandatory, an annotation without
//! one does not suppress. Rules never look at the annotations themselves:
//! the driver matches them against findings in one place
//! ([`crate::analyze_workspace`]).

pub mod a001;
pub mod a002;
pub mod a003;
pub mod a004;
pub mod a005;
pub mod a006;
pub mod a007;
pub mod a008;
pub mod a010;
pub mod l005;
pub mod tokens;

/// Every rule the analyzer can emit.
pub const RULES: &[&str] = &[
    "L001", "L002", "L005", "L006", "L007", "A001", "A002", "A003", "A004", "A005", "A006",
    "A007", "A008", "A010",
];

use crate::callgraph::Graph;
use crate::facts::Workspace;
use crate::parse::{Event, EventKind, FnItem};
use crate::report::Finding;
use std::collections::HashSet;

/// Everything a rule can look at.
pub struct Ctx<'a> {
    pub ws: &'a Workspace,
    pub graph: &'a Graph,
    /// DESIGN.md text when present; doc-coupled checks degrade to skipped
    /// when the tree has none (fixture roots).
    pub design: Option<&'a str>,
}

/// Runs every rule that needs the whole workspace. The four per-file rules
/// ([`tokens`]) have already run by then, in the driver's read loop.
pub fn run_all(ctx: &Ctx) -> Vec<Finding> {
    let mut out = Vec::new();
    out.extend(l005::check(ctx));
    out.extend(a001::check(ctx));
    out.extend(a002::check(ctx));
    out.extend(a003::check(ctx));
    out.extend(a004::check(ctx));
    out.extend(a005::check(ctx));
    out.extend(a006::check(ctx));
    out.extend(a007::check(ctx));
    out.extend(a008::check(ctx));
    out.extend(a010::check(ctx));
    out
}

/// Function-name segments treated as shutdown-path roots (A007/A008).
pub const SHUTDOWN_ROOTS: &[&str] = &[
    "close", "shutdown", "stop", "teardown", "cancel", "abort", "drop",
];

/// Shutdown roots match per underscore segment, so `shutdown_graceful` and
/// `abort_partial_stack` qualify, plus every `Drop` impl method.
pub fn is_shutdown_root(f: &FnItem) -> bool {
    f.trait_name.as_deref() == Some("Drop")
        || f.name.split('_').any(|seg| SHUTDOWN_ROOTS.contains(&seg))
}

/// Every function reachable from a shutdown root through resolved call
/// edges, as (file index, fn index) keys.
pub fn shutdown_reachable(ctx: &Ctx) -> HashSet<(usize, usize)> {
    let mut reach: HashSet<(usize, usize)> = HashSet::new();
    let mut queue: Vec<(usize, usize)> = Vec::new();
    for (fi, file) in ctx.ws.files.iter().enumerate() {
        for (gi, f) in file.fns.iter().enumerate() {
            if !f.in_test && is_shutdown_root(f) && reach.insert((fi, gi)) {
                queue.push((fi, gi));
            }
        }
    }
    while let Some(key) = queue.pop() {
        if let Some(edges) = ctx.graph.edges.get(&key) {
            for &(_, target) in edges {
                if reach.insert(target) {
                    queue.push(target);
                }
            }
        }
    }
    reach
}

/// A guard live at some program point.
#[derive(Debug, Clone)]
pub struct Held {
    pub rank: u32,
    pub name: String,
    pub line: u32,
    release: usize,
}

/// Walks one function's events in token order, calling `visit` with the
/// set of guards live at each event. A guard enters the set *after* its
/// own acquisition event (the acquire itself is checked against the
/// previously-held set).
pub fn walk_fn<F: FnMut(&Event, &[Held])>(ws: &Workspace, fi: usize, gi: usize, mut visit: F) {
    let file = &ws.files[fi];
    let f = &file.fns[gi];
    let mut held: Vec<Held> = Vec::new();
    for e in &f.events {
        held.retain(|h| h.release >= e.tok);
        visit(e, &held);
        if let EventKind::Acquire { recv, release } = &e.kind {
            if let Some(info) = ws.resolve_guard(file, recv) {
                held.push(Held {
                    rank: info.rank,
                    name: info.name,
                    line: e.line,
                    release: *release,
                });
            }
        }
    }
}

/// The slice of `design` belonging to the section whose header line starts
/// with `header` (e.g. `"## 6"`), up to the next same-level header.
pub fn section<'a>(design: &'a str, header: &str) -> Option<&'a str> {
    let mut start = None;
    for (off, line) in line_offsets(design) {
        if start.is_none() {
            if line.starts_with(header) {
                start = Some(off);
            }
        } else if line.starts_with("## ") {
            return Some(&design[start.unwrap_or(0)..off]);
        }
    }
    start.map(|s| &design[s..])
}

/// (byte offset, line text) pairs for every line.
fn line_offsets(text: &str) -> impl Iterator<Item = (usize, &str)> {
    let mut off = 0usize;
    text.lines().map(move |line| {
        let this = off;
        off += line.len() + 1;
        (this, line)
    })
}

/// 1-based line number of the first line matching `pred` inside `text`.
pub fn line_of<F: Fn(&str) -> bool>(text: &str, pred: F) -> Option<u32> {
    for (i, line) in text.lines().enumerate() {
        if pred(line) {
            return Some((i + 1) as u32);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_are_sliced_by_same_level_headers() {
        let text = "# t\n## 6. Obs\nbody six\n### 6.1 sub\nmore\n## 7. Corr\nbody seven\n";
        let six = section(text, "## 6").expect("§6 exists");
        assert!(six.contains("body six"));
        assert!(six.contains("6.1 sub"), "subsections stay inside");
        assert!(!six.contains("body seven"));
        let seven = section(text, "## 7").expect("§7 exists");
        assert!(seven.contains("body seven"));
        assert!(section(text, "## 9").is_none());
    }
}
