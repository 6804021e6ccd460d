//! A006 — every condvar waited on has a notify.
//!
//! For every condvar wait site (a `blocking::wait_while*` call whose
//! condvar binds a `Condvar` somewhere in the crate), at least one non-test
//! `notify_one`/`notify_all` on the same ident must exist in the crate: a
//! condvar nobody notifies is a hang, not a synchronization. The other two
//! ways a wait hangs are types now: `cool_telemetry::blocking` waits only
//! with the predicate that ends the wait, and only with the unlocked
//! token, which no live ranked guard leaves free.
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
        }
    }
    out
}
