//! A008 — bounded blocking (hang-freedom) on the data path.
//!
//! The paper's QoS contract is that an invocation completes, degrades down
//! its ladder, or fails attributed — never hangs. This rule makes the
//! "never hangs" half static: every potentially-blocking call site in a
//! `cool-orb`/`dacapo` source file (`recv`, `wait`, `join`, the
//! `dial`/`connect*` family — lock acquisition is A002's province) must be
//! *bounded*, by one of:
//!
//! 1. **a timeout/deadline variant** — the name contains `timeout` or
//!    `deadline`, or is `wait_until` (absolute-instant wait);
//! 2. **a shutdown-path join** — `handle.join()` inside a shutdown root
//!    (`close`/`shutdown`/... segment, `Drop` impl) or a function the
//!    shutdown roots reach through the call graph: joins there wait for
//!    threads whose loops the close sentinels below are draining;
//! 3. **a documented close-sentinel drain** — the site's `file.rs::fn`
//!    label appears in the DESIGN.md §8.5 drain registry, which names the
//!    wakeup source (sentinel frame, dead-flag poke) that guarantees the
//!    block resolves at teardown. Registry entries that match no
//!    unbounded site are themselves findings, so the registry only ever
//!    shrinks with the code;
//! 4. **a bounded connect chain** — for the `dial`/`connect*` family, the
//!    callee of that name (unique within the crate) transitively performs
//!    only bounded blocking. A chain that bottoms out in a raw
//!    `TcpStream::connect` (no timeout) or cycles is unbounded;
//! 5. **a reasoned inline allow** naming the wakeup source (the driver
//!    drops those findings afterwards, as for every rule).
//!
//! Closure bodies are deliberately excluded from the per-function event
//! streams (a spawn callback does not run at its definition site), so this
//! rule folds the `loose_blocks` fact back in under the textually
//! enclosing function's label — a worker loop's `recv()` is checked no
//! matter how the worker is spawned.

use super::a005::backticked;
use super::{is_shutdown_root, shutdown_reachable, Ctx};
use crate::callgraph::FnKey;
use crate::parse::EventKind;
use crate::report::Finding;
use crate::source::on_data_path;
use std::collections::{HashMap, HashSet};

/// Names that hand off to a connection-establishment routine; bounded iff
/// the routine itself only blocks boundedly (check 4).
const CONNECT_FAMILY: &[&str] = &[
    "dial",
    "connect",
    "connect_chorus",
    "connect_dacapo",
    "connect_chorus_with",
    "connect_dacapo_with",
];

/// Bounded by the operation's own name.
fn bounded_by_name(what: &str) -> bool {
    what.contains("timeout") || what.contains("deadline") || what == "wait_until"
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

    // (crate, fn name) -> unique non-test key, for connect-chain resolution.
    let mut by_name: HashMap<(&str, &str), Option<FnKey>> = HashMap::new();
    for (fi, file) in ws.files.iter().enumerate() {
        for (gi, f) in file.fns.iter().enumerate() {
            if f.in_test || file.test_like {
                continue;
            }
            by_name
                .entry((file.krate.as_str(), f.name.as_str()))
                .and_modify(|e| *e = None) // ambiguous
                .or_insert(Some((fi, gi)));
        }
    }
    // A connect-family operation is bounded when the routine it names
    // transitively performs only bounded blocking. Cycles (a `connect`
    // whose chain reaches another bare `connect`) fail the proof.
    fn chain_bounded(
        krate: &str,
        what: &str,
        ctx: &Ctx,
        by_name: &HashMap<(&str, &str), Option<FnKey>>,
        visiting: &mut HashSet<(String, String)>,
    ) -> bool {
        if bounded_by_name(what) {
            return true;
        }
        if !CONNECT_FAMILY.contains(&what) {
            return false;
        }
        if !visiting.insert((krate.to_owned(), what.to_owned())) {
            return false;
        }
        let Some(Some(key)) = by_name.get(&(krate, what)) else {
            return false;
        };
        let Some(sum) = ctx.graph.summaries.get(key) else {
            return false;
        };
        sum.blocks
            .keys()
            .all(|w| chain_bounded(krate, w, ctx, by_name, visiting))
    }

    // Harvest every blocking site: the per-fn event streams plus the
    // loose (closure-body) sites.
    struct Site {
        line: u32,
        what: String,
        label: String,
        /// Enclosing function, for the shutdown-join exemption.
        key: Option<FnKey>,
    }
    let mut out = Vec::new();
    let mut used_drains: HashSet<&str> = HashSet::new();
    for (fi, file) in ws.files.iter().enumerate() {
        if file.test_like || !on_data_path(&file.rel) {
            continue;
        }
        let file_name = file.rel.rsplit('/').next().unwrap_or(&file.rel);
        let mut sites: Vec<Site> = Vec::new();
        for (gi, f) in file.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            for e in &f.events {
                if let EventKind::Block { what } = &e.kind {
                    sites.push(Site {
                        line: e.line,
                        what: what.clone(),
                        label: format!("{file_name}::{}", f.name),
                        key: Some((fi, gi)),
                    });
                }
            }
        }
        for b in &file.loose_blocks {
            if b.in_test {
                continue;
            }
            let key = b.fn_name.as_ref().and_then(|n| {
                file.fns
                    .iter()
                    .position(|f| &f.name == n)
                    .map(|gi| (fi, gi))
            });
            sites.push(Site {
                line: b.line,
                what: b.what.clone(),
                label: format!(
                    "{file_name}::{}",
                    b.fn_name.as_deref().unwrap_or("<module>")
                ),
                key,
            });
        }

        for s in &sites {
            if bounded_by_name(&s.what) {
                continue;
            }
            // Shutdown-path joins wait for threads the close sentinels
            // (below) are draining; the join itself is the drain's end.
            if s.what == "join"
                && s.key.is_some_and(|(kfi, kgi)| {
                    let f = &ws.files[kfi].fns[kgi];
                    is_shutdown_root(f) || reach.contains(&(kfi, kgi))
                })
            {
                continue;
            }
            if let Some(d) = drains.iter().find(|d| d.label == s.label) {
                used_drains.insert(&d.label);
                continue;
            }
            if CONNECT_FAMILY.contains(&s.what.as_str()) {
                let mut visiting = HashSet::new();
                if chain_bounded(&file.krate, &s.what, ctx, &by_name, &mut visiting) {
                    continue;
                }
            }
            out.push(Finding::new(
                &file.rel,
                s.line,
                "A008",
                &format!(
                    "unbounded blocking `{}()` on the data path at `{}`: use a \
                     timeout/deadline variant, document the close-sentinel drain in \
                     DESIGN.md §8.5, or justify with an inline allow naming the wakeup \
                     source",
                    s.what, s.label
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
        for ok in ["recv_timeout", "wait_timeout_while", "recv_deadline", "wait_until", "connect_timeout"] {
            assert!(bounded_by_name(ok), "{ok}");
        }
        for bad in ["recv", "wait", "wait_while", "join", "connect", "dial"] {
            assert!(!bounded_by_name(bad), "{bad}");
        }
    }
}
