//! L005 — every `OrbError` variant is exercised by a test.
//!
//! An error variant no test constructs or matches is a failure path
//! nobody has seen fail. The declared variants come from cool-orb's
//! `src/error.rs`; the uses are the `OrbError::<Variant>` facts the parser
//! already collects for A010, restricted to test code — a harness file, or
//! a `#[cfg(test)]` region of a library file. Helper constructors
//! (`OrbError::timeout(..)`) start lowercase and are never variants, so
//! they can neither be demanded nor satisfy a demand.

use super::Ctx;
use crate::report::Finding;
use std::collections::HashSet;

pub fn check(ctx: &Ctx) -> Vec<Finding> {
    let tested: HashSet<&str> = ctx
        .ws
        .files
        .iter()
        .flat_map(|f| &f.variant_uses)
        .filter(|v| v.ty == "OrbError" && v.in_test)
        .map(|v| v.name.as_str())
        .collect();
    let mut out = Vec::new();
    for file in &ctx.ws.files {
        for (name, line) in &file.orb_error_variants {
            if !tested.contains(name.as_str()) {
                out.push(Finding::new(
                    &file.rel,
                    *line,
                    "L005",
                    &format!("OrbError::{name} is never constructed or asserted in any test"),
                ));
            }
        }
    }
    out
}
