//! A003 — codec symmetry in `cool-giop`.
//!
//! Every serialisation surface must be able to read back what it writes:
//!
//! - a `CdrEncode` impl without a `CdrDecode` impl for the same type (and
//!   vice versa) is a one-way codec;
//! - a type with inherent `encode*`/`write*` methods needs matching
//!   `decode*`/`read*` methods — on itself or on its Encoder/Decoder
//!   sibling (`CdrEncoder::write_u32` pairs with `CdrDecoder::read_u32`'s
//!   owner, not with itself);
//! - free `encode_X`/`write_X` functions need `decode_X`/`read_X`
//!   counterparts and vice versa;
//! - every codec-bearing type must be named by some test in the crate
//!   (the round-trip property suites), and if the crate mentions
//!   `qos_params` (the GIOP 9.9 extension) the tests must exercise it
//!   under both byte orders.
//!
//! Macro-generated impls (`impl_cdr_prim!`) are invisible to the
//! token-level parser, so primitive codecs are neither checked nor
//! flagged — a documented soundness limit.

use super::Ctx;
use crate::report::Finding;
use std::collections::{BTreeMap, HashSet};

const CRATE: &str = "cool-giop";

pub fn check(ctx: &Ctx) -> Vec<Finding> {
    let mut out = Vec::new();
    let ws = ctx.ws;

    // type -> first-sighting (file, line); BTreeMap for deterministic order.
    let mut encode_traits: BTreeMap<String, (String, u32)> = BTreeMap::new();
    let mut decode_traits: BTreeMap<String, (String, u32)> = BTreeMap::new();
    let mut inherent_enc: BTreeMap<String, (String, u32)> = BTreeMap::new();
    let mut inherent_dec: BTreeMap<String, (String, u32)> = BTreeMap::new();
    let mut free_fns: BTreeMap<String, (String, u32)> = BTreeMap::new();
    let mut test_idents: HashSet<&str> = HashSet::new();
    let mut qos_site: Option<(String, u32)> = None;

    for file in &ws.files {
        if file.krate != CRATE {
            continue;
        }
        for id in &file.test_idents {
            test_idents.insert(id);
        }
        if !file.test_like && qos_site.is_none() && file.lib_idents.contains("qos_params") {
            qos_site = Some((file.rel.clone(), 1));
        }
        for f in &file.fns {
            if f.in_test {
                continue;
            }
            let site = (file.rel.clone(), f.line);
            match (&f.self_ty, &f.trait_name) {
                (Some(ty), Some(tr)) if ty != tr => {
                    if tr == "CdrEncode" {
                        encode_traits.entry(ty.clone()).or_insert(site);
                    } else if tr == "CdrDecode" {
                        decode_traits.entry(ty.clone()).or_insert(site);
                    }
                }
                (Some(ty), None) => {
                    if f.name.starts_with("encode") || f.name.starts_with("write") {
                        inherent_enc.entry(ty.clone()).or_insert(site);
                    } else if f.name.starts_with("decode") || f.name.starts_with("read") {
                        inherent_dec.entry(ty.clone()).or_insert(site);
                    }
                }
                (None, None)
                    if ["encode_", "decode_", "write_", "read_"]
                        .iter()
                        .any(|p| f.name.starts_with(p)) =>
                {
                    free_fns.entry(f.name.clone()).or_insert(site);
                }
                _ => {}
            }
        }
    }

    // Trait symmetry, both directions.
    for (ty, (file, line)) in &encode_traits {
        if !decode_traits.contains_key(ty) {
            out.push(Finding::new(
                file,
                *line,
                "A003",
                &format!("`{ty}` implements CdrEncode but has no CdrDecode impl"),
            ));
        }
    }
    for (ty, (file, line)) in &decode_traits {
        if !encode_traits.contains_key(ty) {
            out.push(Finding::new(
                file,
                *line,
                "A003",
                &format!("`{ty}` implements CdrDecode but has no CdrEncode impl"),
            ));
        }
    }

    // Inherent symmetry with Encoder/Decoder sibling matching.
    for (ty, (file, line)) in &inherent_enc {
        let sibling = ty.replace("Encoder", "Decoder");
        if !inherent_dec.contains_key(ty) && !inherent_dec.contains_key(&sibling) {
            out.push(Finding::new(
                file,
                *line,
                "A003",
                &format!(
                    "`{ty}` has encode/write methods but no matching decode/read side \
                     (checked `{ty}` and `{sibling}`)"
                ),
            ));
        }
    }
    for (ty, (file, line)) in &inherent_dec {
        let sibling = ty.replace("Decoder", "Encoder");
        if !inherent_enc.contains_key(ty) && !inherent_enc.contains_key(&sibling) {
            out.push(Finding::new(
                file,
                *line,
                "A003",
                &format!(
                    "`{ty}` has decode/read methods but no matching encode/write side \
                     (checked `{ty}` and `{sibling}`)"
                ),
            ));
        }
    }

    // Free-function pairs.
    for (name, (file, line)) in &free_fns {
        let counterpart = ["encode_", "decode_", "write_", "read_"]
            .iter()
            .zip(["decode_", "encode_", "read_", "write_"])
            .find_map(|(p, q)| name.strip_prefix(p).map(|tail| format!("{q}{tail}")));
        if let Some(counterpart) = counterpart {
            if !free_fns.contains_key(&counterpart) {
                out.push(Finding::new(
                    file,
                    *line,
                    "A003",
                    &format!("free codec fn `{name}` has no counterpart `{counterpart}`"),
                ));
            }
        }
    }

    // Round-trip coverage: every codec-bearing type named in some test.
    let mut codec_types: BTreeMap<&String, &(String, u32)> = BTreeMap::new();
    for (ty, site) in encode_traits.iter().chain(inherent_enc.iter()) {
        codec_types.entry(ty).or_insert(site);
    }
    for (ty, (file, line)) in codec_types {
        if !test_idents.contains(ty.as_str()) {
            out.push(Finding::new(
                file,
                *line,
                "A003",
                &format!("no test in {CRATE} names codec type `{ty}` (round-trip gap)"),
            ));
        }
    }

    // GIOP 9.9 qos_params must round-trip under both byte orders.
    if let Some((file, line)) = qos_site {
        let missing: Vec<&str> = ["qos_params", "Big", "Little"]
            .into_iter()
            .filter(|w| !test_idents.contains(w))
            .collect();
        if !missing.is_empty() {
            out.push(Finding::new(
                &file,
                line,
                "A003",
                &format!(
                    "GIOP 9.9 `qos_params` lacks byte-order round-trip coverage: tests \
                     never mention {}",
                    missing.join(", ")
                ),
            ));
        }
    }

    out
}
