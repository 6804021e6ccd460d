//! A005 — channel-topology extraction + boundedness/backpressure.
//!
//! Harvests every channel/inbox construction site on the ORB/Da CaPo data
//! path (crossbeam `bounded`/`unbounded`, `FrameInbox::new`) and checks:
//!
//! 1. every unbounded queue on the data path is flagged — boundedness is
//!    the default, a grow-policy queue needs an inline allow with a drain
//!    story;
//! 2. the sites match the DESIGN.md §7.4 channel-topology table in both
//!    directions, including the *value* of a documented capacity constant
//!    (mutating `DISPATCH_QUEUE_DEPTH` without updating the table is drift);
//! 3. every table row's full-policy is one of `block`/`grow`/`drop` and
//!    consistent with the capacity column;
//! 4. every cycle in the documented producer→consumer graph (rows linked
//!    by `` `file.rs::fn` `` references in the drained-by column) has at
//!    least one non-`block` edge — an all-blocking ring can deadlock the
//!    moment every queue in it fills.
//!
//! The §7.4 checks degrade to skipped when the tree has no DESIGN.md
//! (fixture roots); the unbounded check still runs.

use super::{line_of, Ctx};
use crate::parse::{CapExpr, ChanKind};
use crate::report::Finding;
use crate::source::on_data_path;

pub fn check(ctx: &Ctx) -> Vec<Finding> {
    let mut out = Vec::new();
    let ws = ctx.ws;

    // Data-path construction sites, labelled `file.rs::fn` like the table.
    struct Site<'a> {
        rel: &'a str,
        krate: &'a str,
        label: String,
        kind: ChanKind,
        cap: Option<&'a CapExpr>,
        line: u32,
    }
    let mut sites: Vec<Site> = Vec::new();
    for file in &ws.files {
        if file.test_like || !on_data_path(&file.rel) {
            continue;
        }
        let file_name = file.rel.rsplit('/').next().unwrap_or(&file.rel);
        for c in &file.chan_ctors {
            if c.in_test {
                continue;
            }
            sites.push(Site {
                rel: &file.rel,
                krate: &file.krate,
                label: format!(
                    "{file_name}::{}",
                    c.fn_name.as_deref().unwrap_or("<module>")
                ),
                kind: c.kind,
                cap: c.cap.as_ref(),
                line: c.line,
            });
        }
    }

    // 1. Unbounded queues on the data path.
    for s in &sites {
        if s.kind != ChanKind::Bounded {
            let what = match s.kind {
                ChanKind::Unbounded => "unbounded channel",
                ChanKind::Inbox => "FrameInbox (unbounded until a sink drains it)",
                ChanKind::Bounded => unreachable!(),
            };
            out.push(Finding::new(
                s.rel,
                s.line,
                "A005",
                &format!(
                    "{what} constructed on the ORB/Da CaPo data path at `{}`; bound it or \
                     justify the grow policy with an inline allow naming the drain",
                    s.label
                ),
            ));
        }
    }

    let Some(design) = ctx.design else {
        return out;
    };
    let rows = parse_chan_rows(design);
    if rows.is_empty() {
        if !sites.is_empty() {
            let line = line_of(design, |l| l.trim_start().starts_with("## 7")).unwrap_or(1);
            out.push(Finding::new(
                "DESIGN.md",
                line,
                "A005",
                &format!(
                    "DESIGN.md has no §7.4 channel-topology table but the data path \
                     constructs {} channel(s)",
                    sites.len()
                ),
            ));
        }
        return out;
    }

    let cap_matches = |s: &Site, r: &ChanRow| -> bool {
        let ints = cell_ints(&r.cap_cell);
        let names = backticked(&r.cap_cell);
        match s.kind {
            ChanKind::Unbounded | ChanKind::Inbox => r.cap_cell.contains("unbounded"),
            ChanKind::Bounded => match s.cap {
                Some(CapExpr::Lit(n)) => ints.first() == Some(n),
                Some(CapExpr::Const(name)) => {
                    names.iter().any(|c| c == name)
                        && match ws.resolve_int_const(s.krate, name) {
                            Some(v) => ints.first() == Some(&v),
                            None => true,
                        }
                }
                Some(CapExpr::Dynamic(idents)) => {
                    names.iter().any(|c| idents.iter().any(|i| i == c))
                }
                None => false,
            },
        }
    };
    let describe = |s: &Site| -> String {
        match (s.kind, s.cap) {
            (ChanKind::Unbounded, _) => "unbounded".to_owned(),
            (ChanKind::Inbox, _) => "FrameInbox (unbounded)".to_owned(),
            (ChanKind::Bounded, Some(CapExpr::Lit(n))) => format!("bounded({n})"),
            (ChanKind::Bounded, Some(CapExpr::Const(name))) => {
                match ws.resolve_int_const(s.krate, name) {
                    Some(v) => format!("bounded({name} = {v})"),
                    None => format!("bounded({name})"),
                }
            }
            (ChanKind::Bounded, Some(CapExpr::Dynamic(idents))) => {
                format!("bounded(<dynamic: {}>)", idents.join(", "))
            }
            (ChanKind::Bounded, None) => "bounded(?)".to_owned(),
        }
    };

    // 2a. Every site has a matching row.
    for s in &sites {
        let here: Vec<&ChanRow> = rows
            .iter()
            .filter(|r| r.krate == s.krate && r.site == s.label)
            .collect();
        if here.is_empty() {
            out.push(Finding::new(
                s.rel,
                s.line,
                "A005",
                &format!(
                    "channel site `{}` ({}) is missing from the DESIGN.md §7.4 \
                     channel-topology table",
                    s.label,
                    describe(s)
                ),
            ));
        } else if !here.iter().any(|r| cap_matches(s, r)) {
            out.push(Finding::new(
                s.rel,
                s.line,
                "A005",
                &format!(
                    "channel capacity drifted from DESIGN.md §7.4: row(s) for `{}` (line {}) \
                     document `{}`, the code constructs {}",
                    s.label,
                    here[0].line,
                    here.iter()
                        .map(|r| r.cap_cell.as_str())
                        .collect::<Vec<_>>()
                        .join("` / `"),
                    describe(s)
                ),
            ));
        }
    }
    // 2b. Every row is backed by a matching site.
    for r in &rows {
        let here: Vec<&Site> = sites
            .iter()
            .filter(|s| s.krate == r.krate && s.label == r.site)
            .collect();
        if here.is_empty() {
            out.push(Finding::new(
                "DESIGN.md",
                r.line,
                "A005",
                &format!(
                    "channel-topology row `{}` matches no construction site on the data path",
                    r.site
                ),
            ));
        } else if !here.iter().any(|s| cap_matches(s, r)) {
            out.push(Finding::new(
                "DESIGN.md",
                r.line,
                "A005",
                &format!(
                    "channel-topology row `{}` documents capacity `{}` but no construction \
                     site at `{}` matches it",
                    r.site, r.cap_cell, r.site
                ),
            ));
        }
    }
    // 3. Policy vocabulary and capacity/policy consistency.
    for r in &rows {
        if !matches!(r.policy.as_str(), "block" | "grow" | "drop") {
            out.push(Finding::new(
                "DESIGN.md",
                r.line,
                "A005",
                &format!(
                    "channel-topology row `{}` has unknown full-policy `{}` \
                     (expected block|grow|drop)",
                    r.site, r.policy
                ),
            ));
        } else if r.cap_cell.contains("unbounded") != (r.policy == "grow") {
            out.push(Finding::new(
                "DESIGN.md",
                r.line,
                "A005",
                &format!(
                    "channel-topology row `{}`: policy `{}` is inconsistent with capacity \
                     `{}` — unbounded queues grow, bounded ones block or drop",
                    r.site, r.policy, r.cap_cell
                ),
            ));
        }
    }
    // 4. No all-blocking cycle in the documented graph.
    out.extend(blocking_cycles(&rows));
    out
}

/// A parsed §7.4 row: `| crate | site | capacity | full-policy | drained-by |`.
struct ChanRow {
    line: u32,
    krate: String,
    /// Backticked `file.rs::fn` label of the second cell.
    site: String,
    cap_cell: String,
    policy: String,
    drained: String,
}

/// Parses the `### 7.4` subsection's table with absolute DESIGN.md line
/// numbers. Header and separator rows (no backticked site cell) are
/// skipped.
fn parse_chan_rows(design: &str) -> Vec<ChanRow> {
    let mut rows = Vec::new();
    let mut in_sect = false;
    for (i, raw) in design.lines().enumerate() {
        let line = raw.trim();
        if line.starts_with("### 7.4") {
            in_sect = true;
            continue;
        }
        if in_sect && (line.starts_with("## ") || line.starts_with("### ")) {
            break;
        }
        if !in_sect || !line.starts_with('|') {
            continue;
        }
        let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
        if cells.len() < 5 {
            continue;
        }
        let Some(site) = backticked(cells[1]).into_iter().next() else {
            continue; // header or |---| separator
        };
        rows.push(ChanRow {
            line: (i + 1) as u32,
            krate: cells[0].trim_matches('`').to_owned(),
            site,
            cap_cell: cells[2].to_owned(),
            policy: cells[3].to_owned(),
            drained: cells[4].to_owned(),
        });
    }
    rows
}

/// Backticked substrings of a table cell (shared with A008's DESIGN.md
/// parser).
pub(crate) fn backticked(cell: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut rest = cell;
    while let Some(start) = rest.find('`') {
        let after = &rest[start + 1..];
        let Some(end) = after.find('`') else { break };
        names.push(after[..end].to_owned());
        rest = &after[end + 1..];
    }
    names
}

/// Integers appearing in a cell outside backticks (capacity numbers;
/// backticked constant names may themselves contain digits).
fn cell_ints(cell: &str) -> Vec<u64> {
    let mut out = Vec::new();
    let mut in_ticks = false;
    let mut cur: Option<u64> = None;
    for ch in cell.chars() {
        if ch == '`' {
            in_ticks = !in_ticks;
            continue;
        }
        if !in_ticks && ch.is_ascii_digit() {
            let d = (ch as u8 - b'0') as u64;
            cur = Some(cur.unwrap_or(0).saturating_mul(10).saturating_add(d));
        } else if let Some(v) = cur.take() {
            out.push(v);
        }
    }
    if let Some(v) = cur {
        out.push(v);
    }
    out
}

/// Cycles in the row graph (drained-by `` `site` `` references) where
/// every participating row has the `block` policy.
fn blocking_cycles(rows: &[ChanRow]) -> Vec<Finding> {
    let n = rows.len();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, r) in rows.iter().enumerate() {
        if r.policy != "block" {
            continue;
        }
        for name in backticked(&r.drained) {
            if let Some(j) = rows
                .iter()
                .position(|x| x.site == name && x.policy == "block")
            {
                adj[i].push(j);
            }
        }
    }
    let mut out = Vec::new();
    let mut color = vec![0u8; n]; // 0 unvisited, 1 on stack, 2 done
    let mut stack: Vec<usize> = Vec::new();
    for start in 0..n {
        if color[start] == 0 {
            dfs(start, &adj, rows, &mut color, &mut stack, &mut out);
        }
    }
    out
}

fn dfs(
    i: usize,
    adj: &[Vec<usize>],
    rows: &[ChanRow],
    color: &mut [u8],
    stack: &mut Vec<usize>,
    out: &mut Vec<Finding>,
) {
    color[i] = 1;
    stack.push(i);
    for &j in &adj[i] {
        if color[j] == 1 {
            let pos = stack.iter().position(|&x| x == j).unwrap_or(0);
            let mut path: Vec<&str> = stack[pos..].iter().map(|&x| rows[x].site.as_str()).collect();
            path.push(rows[j].site.as_str());
            out.push(Finding::new(
                "DESIGN.md",
                rows[j].line,
                "A005",
                &format!(
                    "channel cycle `{}` has no non-blocking edge (every queue's full-policy \
                     is `block`); a full ring deadlocks — give one edge a drop/try_send policy",
                    path.join(" -> ")
                ),
            ));
        } else if color[j] == 0 {
            dfs(j, adj, rows, color, stack, out);
        }
    }
    stack.pop();
    color[i] = 2;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chan_rows_parse_with_absolute_lines() {
        let design = "# t\n## 7. Corr\n### 7.4 Channel topology\n\
                      | crate | site | capacity | full-policy | drained-by |\n\
                      |---|---|---|---|---|\n\
                      | cool-orb | `a.rs::mk` | `DEPTH` (8) | block | worker |\n\
                      | dacapo | `b.rs::mk` | unbounded | grow | pump into `a.rs::mk` |\n\
                      ## 8. Next\n";
        let rows = parse_chan_rows(design);
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].krate, "cool-orb");
        assert_eq!(rows[0].site, "a.rs::mk");
        assert_eq!(rows[0].line, 6);
        assert_eq!(cell_ints(&rows[0].cap_cell), vec![8]);
        assert_eq!(backticked(&rows[0].cap_cell), vec!["DEPTH"]);
        assert_eq!(backticked(&rows[1].drained), vec!["a.rs::mk"]);
    }

    #[test]
    fn cell_ints_ignore_backticked_digits() {
        assert_eq!(cell_ints("`Q2_DEPTH` (1024)"), vec![1024]);
        assert_eq!(cell_ints("unbounded"), Vec::<u64>::new());
        assert_eq!(cell_ints("1"), vec![1]);
    }

    #[test]
    fn all_block_cycles_are_found_and_mixed_ones_are_not() {
        let mk = |site: &str, policy: &str, drained: &str| ChanRow {
            line: 1,
            krate: "cool-orb".into(),
            site: site.into(),
            cap_cell: "1".into(),
            policy: policy.into(),
            drained: drained.into(),
        };
        let cyc = vec![
            mk("a.rs::x", "block", "pump into `b.rs::y`"),
            mk("b.rs::y", "block", "pump into `a.rs::x`"),
        ];
        assert_eq!(blocking_cycles(&cyc).len(), 1);
        let mixed = vec![
            mk("a.rs::x", "block", "pump into `b.rs::y`"),
            mk("b.rs::y", "drop", "pump into `a.rs::x`"),
        ];
        assert!(blocking_cycles(&mixed).is_empty());
    }
}
