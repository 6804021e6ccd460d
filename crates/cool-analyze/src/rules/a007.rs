//! A007 — spawn/join lifecycle and shutdown reachability.
//!
//! Every non-test thread spawn must have an owner that survives to
//! teardown. A spawn site is accepted when any of these hold:
//!
//! 1. the spawning function's signature mentions `JoinHandle` — the
//!    handle is passed up, and the *caller's* spawn-shaped use (if any)
//!    is what gets checked;
//! 2. the spawning function itself joins a thread (`handle.join()`), the
//!    scoped worker pattern;
//! 3. the spawn's file contains a join inside a function on the shutdown
//!    path: named with a `close`/`shutdown`/`stop`/`teardown`/`cancel`/
//!    `abort`/`drop` segment (`shutdown_graceful` counts), a `Drop` impl,
//!    or reachable from such a root through the call graph (the shared
//!    [`super::shutdown_reachable`] set, also used by A008).
//!
//! Anything else is a detached thread the teardown path cannot wait for —
//! exactly the gap that leaves worker threads running (and e.g. holding
//! sockets or flushing late) after `OrbServer::close` returns. Deliberate
//! detachment (fire-and-forget rendezvous helpers) takes an inline allow
//! naming why the thread's lifetime is bounded some other way.

use super::{shutdown_reachable, Ctx};
use crate::parse::{EventKind, FnItem};
use crate::report::Finding;

pub fn check(ctx: &Ctx) -> Vec<Finding> {
    let mut out = Vec::new();
    let ws = ctx.ws;

    // Functions reachable from any shutdown root via resolved call edges.
    let reach = shutdown_reachable(ctx);

    let has_join = |f: &FnItem| {
        f.events
            .iter()
            .any(|e| matches!(&e.kind, EventKind::Block { what } if what == "join"))
    };

    for (fi, file) in ws.files.iter().enumerate() {
        if file.test_like {
            continue;
        }
        // Does this file join threads anywhere on the shutdown path?
        let shutdown_join = file.fns.iter().enumerate().any(|(gi, f)| {
            !f.in_test && has_join(f) && reach.contains(&(fi, gi))
        });
        for s in &file.spawns {
            if s.in_test {
                continue;
            }
            let owned = s.fn_idx.is_some_and(|gi| {
                let f = &file.fns[gi];
                f.sig_has_handle || has_join(f)
            });
            if owned || shutdown_join {
                continue;
            }
            out.push(Finding::new(
                &file.rel,
                s.line,
                "A007",
                "thread spawned here is never joined on a shutdown path (close/shutdown/\
                 stop/Drop...); keep the JoinHandle and join it at teardown, or justify \
                 the detachment with an inline allow",
            ));
        }
    }
    out
}
