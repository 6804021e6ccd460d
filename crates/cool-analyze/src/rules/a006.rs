//! A006 — condvar wait-graph analysis.
//!
//! For every condvar wait site (a `.wait*` call whose receiver binds a
//! `Condvar` somewhere in the crate) two ingredients of the classic
//! missed-wakeup hangs are checked:
//!
//! (a) at least one non-test `notify_one`/`notify_all` on the same
//!     receiver exists in the crate — a condvar nobody notifies is a
//!     hang, not a synchronization;
//! (b) the wait is guarded by a predicate loop (lexically inside
//!     `loop`/`while`/`for`, or a `*_while` variant that re-checks
//!     internally) — bare waits miss wakeups that arrive early and
//!     return spuriously.
//!
//! A wait while an ordered lock is held (the convoy) is A002's: a wait is
//! one of its blocking operations.
//!
//! Wait sites are collected whole-file, so waits inside spawned-thread
//! closures are checked too.

use super::Ctx;
use crate::report::Finding;
use std::collections::{HashMap, HashSet};

pub fn check(ctx: &Ctx) -> Vec<Finding> {
    let mut out = Vec::new();
    let ws = ctx.ws;

    // Crate-wide condvar binders and non-test notify receivers.
    let mut binders: HashMap<&str, HashSet<&str>> = HashMap::new();
    let mut notified: HashMap<&str, HashSet<&str>> = HashMap::new();
    for file in &ws.files {
        let b = binders.entry(file.krate.as_str()).or_default();
        for name in &file.condvar_binders {
            b.insert(name.as_str());
        }
        if file.test_like {
            continue;
        }
        let n = notified.entry(file.krate.as_str()).or_default();
        for site in &file.notifies {
            if !site.in_test {
                n.insert(site.recv.as_str());
            }
        }
    }

    for file in &ws.files {
        if file.test_like {
            continue;
        }
        let is_condvar = |recv: &str| {
            binders
                .get(file.krate.as_str())
                .is_some_and(|b| b.contains(recv))
        };
        for w in &file.waits {
            if w.in_test || !is_condvar(&w.recv) {
                continue;
            }
            // (a) a notify site must exist for this condvar.
            if !notified
                .get(file.krate.as_str())
                .is_some_and(|n| n.contains(w.recv.as_str()))
            {
                out.push(Finding::new(
                    &file.rel,
                    w.line,
                    "A006",
                    &format!(
                        "condvar `{}` is waited on here but crate `{}` has no \
                         notify_one/notify_all site for it — nothing can wake this thread",
                        w.recv, file.krate
                    ),
                ));
            }
            // (b) predicate loop (or a *_while variant).
            if !w.in_loop && !w.method.ends_with("_while") {
                out.push(Finding::new(
                    &file.rel,
                    w.line,
                    "A006",
                    &format!(
                        "condvar wait on `{}` is not guarded by a predicate loop; spurious \
                         wakeups and early notifies are lost — wrap it in `while !cond` or \
                         use a `*_while` variant",
                        w.recv
                    ),
                ));
            }
        }
    }
    out
}
