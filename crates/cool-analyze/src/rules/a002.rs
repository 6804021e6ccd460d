//! A002 — blocking while holding a lock.
//!
//! A thread that parks inside a channel `recv`, a condvar wait, a thread
//! `join` or a connection dial while holding a lock guard stalls every
//! other thread that needs the lock — under the rank discipline that is
//! at best a latency cliff and at worst a deadlock (the joined thread may
//! need the very lock the joiner holds). Flags any [`crate::parse::BLOCKING`]
//! operation, direct or reachable through resolved intra-crate calls,
//! at a point where a guard is live.

use super::{walk_fn, Ctx};
use crate::parse::EventKind;
use crate::report::Finding;

pub fn check(ctx: &Ctx) -> Vec<Finding> {
    let mut out = Vec::new();
    let ws = ctx.ws;
    for (fi, file) in ws.files.iter().enumerate() {
        for (gi, f) in file.fns.iter().enumerate() {
            if f.in_test {
                continue;
            }
            walk_fn(ws, fi, gi, |e, held| {
                let Some(h) = held.last() else { return };
                match &e.kind {
                    EventKind::Block { what } => {
                        out.push(Finding::new(
                            &file.rel,
                            e.line,
                            "A002",
                            &format!(
                                "blocks in `{what}` while holding `{}` (rank {}, locked at \
                                 line {}); release the guard first",
                                h.name, h.rank, h.line
                            ),
                        ));
                    }
                    EventKind::Call { name, .. } => {
                        let Some(target) = ctx.graph.resolve_call((fi, gi), e.tok) else {
                            return;
                        };
                        let Some(sum) = ctx.graph.summaries.get(&target) else {
                            return;
                        };
                        // min_by_key keeps the report deterministic (HashMap
                        // iteration order is not).
                        let Some((what, origin)) =
                            sum.blocks.iter().min_by_key(|(k, _)| k.as_str())
                        else {
                            return;
                        };
                        out.push(Finding::new(
                            &file.rel,
                            e.line,
                            "A002",
                            &format!(
                                "call to `{name}` may block in `{what}` ({}) while holding \
                                 `{}` (rank {}, locked at line {})",
                                origin.describe(),
                                h.name,
                                h.rank,
                                h.line
                            ),
                        ));
                    }
                    EventKind::Acquire { .. } => {}
                }
            });
        }
    }
    out
}
