//! A010 — error-attribution discipline on the data path.
//!
//! "Fails attributed" is the third leg of the QoS liveness contract: when
//! an invocation gives up, the error must say *which* request, after *how
//! many* attempts, against *which* replica. This rule turns that from a
//! convention into a checked property over every non-test `OrbError`
//! construction in `cool-orb`/`cool-naming`/`dacapo` sources:
//!
//! 1. `OrbError::timeout(..)` builds a `Timeout` with no request id — only
//!    legitimate where no request exists yet (connect preambles); such
//!    sites take an inline allow whose reason says why there is no id.
//!    Everything downstream of request creation uses
//!    `OrbError::request_timeout(id, elapsed)`;
//! 2. a literal `OrbError::Timeout { .. }` bypasses the helpers that keep
//!    the attribution fields mandatory;
//! 3. in `replica.rs`, a `Transport`/`BadAddress` built from a *static*
//!    string drops the replica identity the failover machinery exists to
//!    report; the payload must mention which replica/set failed (a
//!    `format!` or a computed message).
//!
//! That `RetriesExhausted` carries both `attempts` and `last` needs no
//! check: an enum-variant literal cannot leave a field out.
//!
//! `error.rs` itself is exempt — it defines the helpers and the `From`
//! conversions this rule funnels everyone else through. Pattern positions
//! (matching on errors) and test code are exempt everywhere: tests build
//! skeletal errors to probe the retry machinery on purpose.

use super::Ctx;
use crate::report::Finding;

/// Files whose `OrbError` constructions are held to attribution discipline.
fn in_scope(rel: &str) -> bool {
    (rel.starts_with("crates/cool-orb/src/")
        || rel.starts_with("crates/cool-naming/src/")
        || rel.starts_with("crates/dacapo/src/"))
        && !rel.ends_with("error.rs")
}

/// Payload identifiers that appear in *any* plain-string payload
/// (`"..".into()`, `String::from("..")`); a payload that is only these is
/// static — it names no replica, request or attempt.
const TRIVIAL: &[&str] = &[
    "into", "to_string", "to_owned", "String", "from", "Box", "new", "str", "as_str", "owned",
];

pub fn check(ctx: &Ctx) -> Vec<Finding> {
    let mut out = Vec::new();
    for file in &ctx.ws.files {
        if file.test_like || !in_scope(&file.rel) {
            continue;
        }
        for v in &file.variant_uses {
            if v.ty != "OrbError" || v.is_pattern || v.in_test {
                continue;
            }
            match v.name.as_str() {
                "timeout" => out.push(Finding::new(
                    &file.rel,
                    v.line,
                    "A010",
                    "`OrbError::timeout(..)` drops the request id; use \
                     `OrbError::request_timeout(id, elapsed)` once a request exists, or \
                     add an inline allow whose reason names why this site has no \
                     request id",
                )),
                "Timeout" => out.push(Finding::new(
                    &file.rel,
                    v.line,
                    "A010",
                    "literal `OrbError::Timeout { .. }` bypasses the attribution \
                     helpers; construct via `OrbError::request_timeout`/`timeout` so \
                     the payload fields stay mandatory",
                )),
                "Transport" | "BadAddress" if file.rel.ends_with("replica.rs") => {
                    let static_payload = !v.payload_idents.is_empty()
                        && v.payload_idents
                            .iter()
                            .all(|i| TRIVIAL.contains(&i.as_str()));
                    if static_payload || v.payload_idents.is_empty() {
                        out.push(Finding::new(
                            &file.rel,
                            v.line,
                            "A010",
                            &format!(
                                "`OrbError::{}` on the failover path carries a static \
                                 message with no replica identity; include which \
                                 replica/set failed (object key, address list) so the \
                                 failure is attributed",
                                v.name
                            ),
                        ));
                    }
                }
                _ => {}
            }
        }
    }
    out
}
