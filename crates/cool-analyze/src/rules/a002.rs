//! A002 — blocking while holding a lock.
//!
//! A thread that parks inside a channel `recv`, a condvar wait, a thread
//! `join` or a connection dial while holding a lock guard stalls every
//! other thread that needs the lock — at best a latency cliff, at worst a
//! deadlock (the joined thread may need the very lock the joiner holds).
//! Flags any [`crate::parse::BLOCKING`] operation, direct or reachable
//! through resolved intra-crate calls, at a point where a ranked guard is
//! live. A ranked guard is known by how it was taken — `x.lock(held)`, with
//! a lock-order token — so the lock's field name decides nothing: an
//! unranked mutex named like a ranked one is no guard here, and two ranked
//! locks sharing a name are each one.

use super::Ctx;
use crate::parse::EventKind;
use crate::report::Finding;

pub fn check(ctx: &Ctx) -> Vec<Finding> {
    let mut out = Vec::new();
    for (fi, file) in ctx.ws.files.iter().enumerate() {
        for (gi, f) in file.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            // Guards live at each event: (receiver, line, release token).
            let mut held: Vec<(&str, u32, usize)> = Vec::new();
            for e in &f.events {
                held.retain(|&(_, _, release)| release >= e.tok);
                let blocks = match &e.kind {
                    EventKind::Acquire { recv, release } => {
                        held.push((recv, e.line, *release));
                        continue;
                    }
                    EventKind::Block { what } => format!("blocks in `{what}`"),
                    EventKind::Call { name, .. } => {
                        let Some(sum) = ctx
                            .graph
                            .resolve_call((fi, gi), e.tok)
                            .and_then(|target| ctx.graph.summaries.get(&target))
                        else {
                            continue;
                        };
                        // min_by_key keeps the report deterministic (HashMap
                        // iteration order is not).
                        let Some((what, origin)) =
                            sum.blocks.iter().min_by_key(|(k, _)| k.as_str())
                        else {
                            continue;
                        };
                        format!("call to `{name}` may block in `{what}` ({})", origin.describe())
                    }
                };
                let Some(&(recv, line, _)) = held.last() else {
                    continue;
                };
                out.push(Finding::new(
                    &file.rel,
                    e.line,
                    "A002",
                    &format!(
                        "{blocks} while holding `{recv}` (locked at line {line}); release \
                         the guard first"
                    ),
                ));
            }
        }
    }
    out
}
