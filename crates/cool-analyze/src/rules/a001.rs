//! A001 — static lock-rank verification.
//!
//! Propagates held ranks along resolved call edges and flags any
//! acquisition of a rank less than or equal to one already held (the
//! runtime checker's strict-increase rule, checked before the code ever
//! runs). Ranks and lock names come from the `mod rank` constants
//! (`cool_telemetry::lockorder::rank`), the one place the order is
//! written down.

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
            walk_fn(ws, fi, gi, |e, held| match &e.kind {
                EventKind::Acquire { recv, .. } => {
                    let Some(info) = ws.resolve_guard(file, recv) else {
                        return;
                    };
                    for h in held {
                        if info.rank <= h.rank {
                            out.push(Finding::new(
                                &file.rel,
                                e.line,
                                "A001",
                                &format!(
                                    "acquires `{}` (rank {}) while holding `{}` (rank {}, \
                                     locked at line {}); ranks must strictly increase",
                                    info.name, info.rank, h.name, h.rank, h.line
                                ),
                            ));
                        }
                    }
                }
                EventKind::Call { name, .. } => {
                    let Some(target) = ctx.graph.resolve_call((fi, gi), e.tok) else {
                        return;
                    };
                    let Some(sum) = ctx.graph.summaries.get(&target) else {
                        return;
                    };
                    // Sorted for deterministic report order.
                    let mut acquires: Vec<_> = sum.acquires.iter().collect();
                    acquires.sort_by_key(|(&r, _)| r);
                    for (&rank, origin) in acquires {
                        for h in held {
                            if rank <= h.rank {
                                out.push(Finding::new(
                                    &file.rel,
                                    e.line,
                                    "A001",
                                    &format!(
                                        "call to `{}` may acquire rank {} ({}) while \
                                         holding `{}` (rank {}, locked at line {})",
                                        name,
                                        rank,
                                        origin.describe(),
                                        h.name,
                                        h.rank,
                                        h.line
                                    ),
                                ));
                            }
                        }
                    }
                }
                EventKind::Block { .. } => {}
            });
        }
    }
    out
}
