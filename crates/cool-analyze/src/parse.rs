//! Item-level parsing on top of the token scanner.
//!
//! [`crate::lexer::scan`] gives a comment/string-safe token stream; this
//! module lifts it to the item level the whole-workspace rules need:
//! functions (with impl/trait qualification and body spans), their call
//! sites, and the file-wide sites of blocking calls, condvar waits and
//! notifies, spawns, channel constructions and error variants.
//!
//! Known limits, by design (documented in DESIGN.md §7.3): closure bodies
//! are not attributed to the defining function's calls (a spawn callback
//! does not run at its definition site), and trait-object and non-`self`
//! method calls are not resolved.

use crate::lexer::{Scan, Tok, TokKind};
use crate::source::{classify, in_regions, inline_allows, test_regions, Allow, FileRole};
use std::collections::HashSet;

/// The functions of `cool_telemetry::blocking`, the one way library code
/// blocks on a channel, condvar, park, join or connect (clippy denies the
/// raw methods there): a call `blocking::name(..)` with one of these names is a
/// blocking site. So is a method call named like one of its receives
/// (`x.recv(..)`, `x.recv_timeout(..)`, `x.recv_deadline(..)`), on any
/// receiver: a transport's, an endpoint's or an inbox's receive blocks
/// too, and takes no token.
pub const BLOCKING: &[&str] = &[
    "send",
    "recv",
    "recv_timeout",
    "recv_deadline",
    "wait_while",
    "wait_while_until",
    "park_timeout",
    "join",
    "connect_timeout",
];

/// The receives among [`BLOCKING`], a site also as `x.name(..)`.
const RECEIVES: &[&str] = &["recv", "recv_timeout", "recv_deadline"];

/// The condvar waits among [`BLOCKING`]; their second argument is the
/// condvar.
const WAITS: &[&str] = &["wait_while", "wait_while_until"];

/// How a call site names its callee, which decides resolvability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallKind {
    /// `helper(x)` — resolved if the crate has exactly one `helper`.
    Free,
    /// `self.helper(x)` — resolved against the enclosing impl type.
    SelfMethod,
    /// `Type::helper(x)` — resolved against `Type`'s inherent methods.
    Qualified,
    /// `other.helper(x)` — never resolved (trait objects, foreign types).
    Method,
}

/// A call site that may be resolvable to a workspace function.
#[derive(Debug, Clone)]
pub struct Call {
    pub name: String,
    pub qual: Option<String>,
    pub kind: CallKind,
    pub tok: usize,
    pub line: u32,
}

/// A parsed function (or method) item.
#[derive(Debug)]
pub struct FnItem {
    pub name: String,
    /// Enclosing `impl`/`trait` self type, if any.
    pub self_ty: Option<String>,
    /// Trait being implemented (`impl Trait for Type`), if any.
    pub trait_name: Option<String>,
    pub line: u32,
    /// Token span of the body braces, inclusive. `None` for bodyless
    /// trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// True for functions inside `#[cfg(test)]` regions or test-like files;
    /// the rules skip them.
    pub in_test: bool,
    /// Signature mentions `JoinHandle` — the function hands the spawned
    /// thread's handle to its caller, so A007 holds the caller responsible.
    pub sig_has_handle: bool,
    /// Call sites in the body, in token order (closures and nested fns
    /// excluded).
    pub calls: Vec<Call>,
}

/// One condvar wait site (the A006 fact), collected at file scope: a wait
/// inside a spawn closure is still a wait.
#[derive(Debug)]
pub struct WaitSite {
    /// The condvar's ident (`blocking::wait_while(held, &self.cv, ..)` →
    /// `cv`). A006 only counts idents that bind a `Condvar` somewhere in
    /// the crate.
    pub recv: String,
    pub line: u32,
    pub in_test: bool,
}

/// One `notify_one`/`notify_all` site (the other half of A006).
#[derive(Debug)]
pub struct NotifySite {
    pub recv: String,
    pub line: u32,
    pub in_test: bool,
}

/// One thread-spawn site (the A007 fact): a `spawn(` call whose statement
/// mentions `thread`/`Builder`/`ThreadBuilder`.
#[derive(Debug)]
pub struct SpawnSite {
    pub line: u32,
    pub in_test: bool,
    /// Index into `ParsedFile::fns` of the innermost enclosing function.
    pub fn_idx: Option<usize>,
}

/// One blocking call site (the A007/A008 fact), closure bodies included: a
/// spawn callback's block counts under the function that textually
/// contains the closure.
#[derive(Debug)]
pub struct BlockSite {
    /// The [`BLOCKING`] function that was called.
    pub what: String,
    pub line: u32,
    /// Index into `ParsedFile::fns` of the innermost enclosing function.
    pub fn_idx: Option<usize>,
    pub in_test: bool,
}

/// One `Type::name` use (the L005/A010 fact): an enum-variant construction
/// or pattern, or an associated-call like `OrbError::timeout(..)`.
#[derive(Debug)]
pub struct VariantUse {
    /// The type ident left of the `::` (`Health`, `OrbError`, ...).
    pub ty: String,
    /// The variant or associated-fn ident right of it.
    pub name: String,
    pub line: u32,
    /// Pattern position (match arm, `if let`, `matches!`, `|`-alternation)
    /// rather than a construction or call.
    pub is_pattern: bool,
    pub in_test: bool,
    /// Identifier tokens inside the `(..)`/`{..}` payload, for the
    /// static-vs-attributed payload distinction A010 draws.
    pub payload_idents: Vec<String>,
}

/// Everything the rules need from one `.rs` file.
#[derive(Debug)]
pub struct ParsedFile {
    pub rel: String,
    pub krate: String,
    pub test_like: bool,
    /// Line spans of `#[cfg(test)]` items, computed once here for every
    /// collector below and for the per-file token rule.
    pub test_regions: Vec<(u32, u32)>,
    pub fns: Vec<FnItem>,
    /// `pub const NAME: &str = "value";` entries (only for `src/names.rs`).
    pub metric_consts: Vec<(String, String, u32)>,
    /// Identifiers appearing in non-test library code.
    pub lib_idents: HashSet<String>,
    /// String literals appearing in non-test library code.
    pub lib_strs: HashSet<String>,
    /// `// lint: allow(RULE, reason)` annotations.
    pub allows: Vec<Allow>,
    /// Identifiers that bind a `Condvar` (field declarations, struct
    /// literals, `let` bindings).
    pub condvar_binders: HashSet<String>,
    /// Condvar-style wait call sites (A006).
    pub waits: Vec<WaitSite>,
    /// `notify_one`/`notify_all` call sites (A006).
    pub notifies: Vec<NotifySite>,
    /// Thread spawn sites (A007).
    pub spawns: Vec<SpawnSite>,
    /// Blocking call sites (A007/A008).
    pub blocks: Vec<BlockSite>,
    /// `Type::name` uses with construction/pattern classification
    /// (L005/A010).
    pub variant_uses: Vec<VariantUse>,
    /// Declared variants of `enum OrbError` with their lines (only for
    /// cool-orb's `src/error.rs`), the list L005 holds the tests to.
    pub orb_error_variants: Vec<(String, u32)>,
}

/// Crate attribution: `crates/<name>/...` or the root package.
pub fn crate_of(rel: &str) -> String {
    let mut parts = rel.split('/');
    if parts.next() == Some("crates") {
        if let Some(name) = parts.next() {
            return name.to_owned();
        }
    }
    "multe".to_owned()
}

/// Index of the `}`/`)`/`]` matching the opener at `open`, or the last
/// token if unbalanced.
fn match_close(toks: &[Tok], open: usize) -> usize {
    let (o, c) = match toks[open].text.as_str() {
        "{" => ("{", "}"),
        "(" => ("(", ")"),
        "[" => ("[", "]"),
        _ => return open,
    };
    let mut depth = 0usize;
    let mut j = open;
    while j < toks.len() {
        if toks[j].text == o {
            depth += 1;
        } else if toks[j].text == c {
            depth -= 1;
            if depth == 0 {
                return j;
            }
        }
        j += 1;
    }
    toks.len().saturating_sub(1)
}

const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "let", "fn", "in", "as", "mut",
    "ref", "move", "impl", "trait", "struct", "enum", "mod", "use", "pub", "const", "static",
    "where", "unsafe", "dyn", "box", "break", "continue", "self", "Self", "super", "crate",
    "true", "false",
];

fn is_keyword(s: &str) -> bool {
    KEYWORDS.contains(&s)
}

/// Parses one scanned file into the fact-base form.
pub fn parse_file(rel: &str, scan: &Scan) -> ParsedFile {
    let toks = &scan.tokens;
    let test_like = classify(rel) == FileRole::TestLike;
    let regions = test_regions(toks);
    let in_test_line = |line: u32| test_like || in_regions(line, &regions);

    let macro_spans = macro_rules_spans(toks);
    let in_macro = |idx: usize| macro_spans.iter().any(|&(a, b)| idx >= a && idx <= b);

    let mut fns = collect_fns(toks, &macro_spans);
    for f in &mut fns {
        f.in_test = in_test_line(f.line);
    }
    // Nested fn bodies are excluded from the enclosing fn's calls.
    let bodies: Vec<(usize, usize)> = fns.iter().filter_map(|f| f.body).collect();
    for f in &mut fns {
        if let Some((open, close)) = f.body {
            let nested: Vec<(usize, usize)> = bodies
                .iter()
                .filter(|&&(a, b)| a > open && b < close)
                .copied()
                .collect();
            f.calls = body_calls(toks, open, close, &nested, &macro_spans);
        }
    }

    let condvar_binders = collect_condvar_binders(toks);
    let (waits, notifies) = collect_wait_notify(toks, &in_test_line, &in_macro);
    let spawns = collect_spawns(toks, &fns, &in_test_line, &in_macro);
    let metric_consts = if rel.ends_with("src/names.rs") {
        collect_metric_consts(toks)
    } else {
        Vec::new()
    };
    let blocks = collect_blocks(toks, &fns, &in_test_line, &in_macro);
    let variant_uses = collect_variant_uses(toks, &in_test_line, &in_macro);
    let orb_error_variants = if rel == "crates/cool-orb/src/error.rs" {
        collect_enum_variants(toks, "OrbError")
    } else {
        Vec::new()
    };

    let mut lib_idents = HashSet::new();
    let mut lib_strs = HashSet::new();
    for t in toks.iter().filter(|t| !in_test_line(t.line)) {
        match t.kind {
            TokKind::Ident => {
                lib_idents.insert(t.text.clone());
            }
            TokKind::Str => {
                lib_strs.insert(t.text.clone());
            }
            _ => {}
        }
    }

    ParsedFile {
        rel: rel.to_owned(),
        krate: crate_of(rel),
        test_like,
        test_regions: regions,
        fns,
        metric_consts,
        lib_idents,
        lib_strs,
        allows: inline_allows(&scan.comments),
        condvar_binders,
        waits,
        notifies,
        spawns,
        blocks,
        variant_uses,
        orb_error_variants,
    }
}

/// Spans of `macro_rules!` bodies — template code, not executed items.
fn macro_rules_spans(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i + 3 < toks.len() {
        if toks[i].text == "macro_rules" && toks[i + 1].text == "!" {
            // name, then a {}/()/[] body
            let mut j = i + 2;
            while j < toks.len() && !matches!(toks[j].text.as_str(), "{" | "(" | "[") {
                j += 1;
            }
            if j < toks.len() {
                let close = match_close(toks, j);
                spans.push((i, close));
                i = close + 1;
                continue;
            }
        }
        i += 1;
    }
    spans
}

/// Impl/trait header context: self type and (for `impl Trait for Type`)
/// the trait name; returns (self_ty, trait_name, body_open_index).
fn parse_impl_header(toks: &[Tok], start: usize) -> Option<(String, Option<String>, usize)> {
    let is_trait_decl = toks[start].text == "trait";
    let mut angle = 0i32;
    let mut j = start + 1;
    let mut pre_for: Vec<&Tok> = Vec::new();
    let mut post_for: Vec<&Tok> = Vec::new();
    let mut saw_for = false;
    while j < toks.len() {
        let t = &toks[j];
        match t.text.as_str() {
            "<" => angle += 1,
            ">" => angle -= 1,
            "{" if angle <= 0 => break,
            ";" if angle <= 0 => return None, // `trait X;` style — nothing to do
            "for" if angle <= 0 && t.kind == TokKind::Ident => {
                saw_for = true;
                j += 1;
                continue;
            }
            "where" if angle <= 0 && t.kind == TokKind::Ident => {
                // type tokens end here; skip ahead to the body brace
                while j < toks.len() && toks[j].text != "{" {
                    j += 1;
                }
                break;
            }
            _ => {}
        }
        if angle <= 0 && t.kind == TokKind::Ident {
            if saw_for {
                post_for.push(t);
            } else {
                pre_for.push(t);
            }
        }
        j += 1;
    }
    if j >= toks.len() || toks[j].text != "{" {
        return None;
    }
    let last_ident = |v: &[&Tok]| v.last().map(|t| t.text.clone());
    if is_trait_decl {
        let name = last_ident(&pre_for)?;
        return Some((name.clone(), Some(name), j));
    }
    if saw_for {
        // `impl Trait for Type`: type is the first path segment after
        // `for` (the head of `Type<T>` / `Type::Assoc`), trait the last
        // segment before it.
        let ty = post_for.first().map(|t| t.text.clone())?;
        Some((ty, last_ident(&pre_for), j))
    } else {
        let ty = last_ident(&pre_for)?;
        Some((ty, None, j))
    }
}

fn collect_fns(toks: &[Tok], macro_spans: &[(usize, usize)]) -> Vec<FnItem> {
    let mut fns = Vec::new();
    // (self_ty, trait_name, close_idx)
    let mut ctx: Vec<(String, Option<String>, usize)> = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if let Some(&(_, end)) = macro_spans.iter().find(|&&(a, b)| i >= a && i <= b) {
            i = end + 1;
            continue;
        }
        while let Some(&(_, _, close)) = ctx.last() {
            if i > close {
                ctx.pop();
            } else {
                break;
            }
        }
        let t = &toks[i];
        if t.kind == TokKind::Ident && (t.text == "impl" || t.text == "trait") {
            if let Some((ty, trait_name, open)) = parse_impl_header(toks, i) {
                let close = match_close(toks, open);
                ctx.push((ty, trait_name, close));
                i = open + 1;
                continue;
            }
        }
        if t.kind == TokKind::Ident && t.text == "fn" {
            if let Some(name_tok) = toks.get(i + 1) {
                if name_tok.kind == TokKind::Ident {
                    // Find the body brace (or `;` for a bodyless decl),
                    // skipping the signature's parens/angles.
                    let mut j = i + 2;
                    let mut depth = 0i32;
                    let mut body = None;
                    while j < toks.len() {
                        match toks[j].text.as_str() {
                            "(" | "[" | "<" => depth += 1,
                            ")" | "]" | ">" => depth -= 1,
                            "{" if depth <= 0 => {
                                body = Some((j, match_close(toks, j)));
                                break;
                            }
                            ";" if depth <= 0 => break,
                            _ => {}
                        }
                        j += 1;
                    }
                    let (self_ty, trait_name) = match ctx.last() {
                        Some((ty, tr, _)) => (Some(ty.clone()), tr.clone()),
                        None => (None, None),
                    };
                    let sig_end = body.map(|(open, _)| open).unwrap_or(j);
                    let sig_has_handle = toks[i + 2..sig_end.min(toks.len())]
                        .iter()
                        .any(|t| t.kind == TokKind::Ident && t.text.contains("JoinHandle"));
                    fns.push(FnItem {
                        name: name_tok.text.clone(),
                        self_ty,
                        trait_name,
                        line: t.line,
                        body,
                        in_test: false,
                        sig_has_handle,
                        calls: Vec::new(),
                    });
                    // Continue *into* the body so nested fns are found too.
                    i = match body {
                        Some((open, _)) => open + 1,
                        None => j + 1,
                    };
                    continue;
                }
            }
        }
        i += 1;
    }
    fns
}

/// Closure spans inside `(open, close)`: the body of `|args| ...` or
/// `move |args| ...`. Calls inside them are not attributed to the
/// enclosing function.
fn closure_spans(toks: &[Tok], open: usize, close: usize) -> Vec<(usize, usize)> {
    let mut spans: Vec<(usize, usize)> = Vec::new();
    let mut i = open + 1;
    while i < close {
        if let Some(&(_, e)) = spans.iter().find(|&&(s, e)| i >= s && i <= e) {
            i = e + 1;
            continue;
        }
        if toks[i].text != "|" {
            i += 1;
            continue;
        }
        // Expression-position `|` = closure start; operand-position = the
        // binary/pattern `|`.
        let prev = &toks[i - 1];
        let opener = match prev.kind {
            TokKind::Ident => prev.text == "move" || prev.text == "return" || prev.text == "in"
                || prev.text == "else",
            TokKind::Punct => matches!(
                prev.text.as_str(),
                "(" | "," | "=" | "{" | "[" | ";" | "<" | ">" | "&" | ":" | "!"
            ),
            _ => false,
        };
        if !opener {
            // Binary `a || b`: skip both bars of a `||` pair.
            if toks.get(i + 1).map(|t| t.text.as_str()) == Some("|") {
                i += 2;
            } else {
                i += 1;
            }
            continue;
        }
        // Find the closing `|` of the parameter list.
        let params_end = if toks.get(i + 1).map(|t| t.text.as_str()) == Some("|") {
            i + 1
        } else {
            let mut j = i + 1;
            let mut depth = 0i32;
            loop {
                if j >= close {
                    break j;
                }
                match toks[j].text.as_str() {
                    "(" | "[" | "<" => depth += 1,
                    ")" | "]" | ">" => depth -= 1,
                    "|" if depth <= 0 => break j,
                    _ => {}
                }
                j += 1;
            }
        };
        // Body: a brace block (possibly after `-> Type`), else an
        // expression ending at `,`/`)`/`;`/`}` at relative depth 0.
        let mut j = params_end + 1;
        let mut depth = 0i32;
        let mut body_end = None;
        while j <= close {
            match toks[j].text.as_str() {
                "{" if depth <= 0 => {
                    body_end = Some(match_close(toks, j));
                    break;
                }
                "(" | "[" => depth += 1,
                ")" | "]" => {
                    if depth == 0 {
                        body_end = Some(j.saturating_sub(1));
                        break;
                    }
                    depth -= 1;
                }
                "," | ";" if depth <= 0 => {
                    body_end = Some(j.saturating_sub(1));
                    break;
                }
                "}" if depth <= 0 => {
                    body_end = Some(j.saturating_sub(1));
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let end = body_end.unwrap_or(close);
        spans.push((i, end));
        i = end + 1;
    }
    spans
}

/// Extracts the call sites of one function body.
fn body_calls(
    toks: &[Tok],
    open: usize,
    close: usize,
    nested_fns: &[(usize, usize)],
    macro_spans: &[(usize, usize)],
) -> Vec<Call> {
    let closures = closure_spans(toks, open, close);
    let excluded = |idx: usize| {
        [nested_fns, macro_spans, &closures]
            .iter()
            .any(|spans| spans.iter().any(|&(a, b)| idx >= a && idx <= b))
    };
    let mut calls = Vec::new();
    for k in open + 1..close {
        let t = &toks[k];
        // `ident (` not preceded by `fn` and not a macro (`ident !`).
        if excluded(k)
            || t.kind != TokKind::Ident
            || is_keyword(&t.text)
            || toks[k - 1].text == "fn"
            || toks.get(k + 1).map(|t| t.text.as_str()) != Some("(")
        {
            continue;
        }
        let prev = toks[k - 1].text.as_str();
        let mut qual = None;
        let kind = if prev == "." {
            if toks[k - 2].text == "self" {
                CallKind::SelfMethod
            } else {
                CallKind::Method
            }
        } else if prev == ":" && toks[k - 2].text == ":" {
            let q = &toks[k - 3];
            if q.kind == TokKind::Ident && !is_keyword(&q.text) {
                qual = Some(q.text.clone());
                CallKind::Qualified
            } else {
                CallKind::Method // `<T as Trait>::f(..)` etc.
            }
        } else {
            CallKind::Free
        };
        calls.push(Call {
            name: t.text.clone(),
            qual,
            kind,
            tok: k,
            line: t.line,
        });
    }
    calls
}

/// The [`BLOCKING`] function called at token `k` (`blocking::name(`, or
/// `.name(` for one of the [`RECEIVES`]), if it is one.
fn blocking_call(toks: &[Tok], k: usize) -> Option<&str> {
    let t = &toks[k];
    let name = t.text.as_str();
    let wrapper = k >= 3
        && toks[k - 1].text == ":"
        && toks[k - 2].text == ":"
        && toks[k - 3].text == "blocking";
    let method = k >= 1 && toks[k - 1].text == "." && RECEIVES.contains(&name);
    (t.kind == TokKind::Ident
        && BLOCKING.contains(&name)
        && toks.get(k + 1).map(|t| t.text.as_str()) == Some("(")
        && (wrapper || method))
        .then_some(name)
}

/// `pub const NAME: &str = "value";` entries (telemetry metric names).
fn collect_metric_consts(toks: &[Tok]) -> Vec<(String, String, u32)> {
    let mut out = Vec::new();
    let mut j = 0usize;
    while j + 6 < toks.len() {
        if toks[j].text == "const"
            && toks[j + 1].kind == TokKind::Ident
            && toks[j + 2].text == ":"
            && toks[j + 3].text == "&"
            && toks[j + 4].text == "str"
            && toks[j + 5].text == "="
            && toks[j + 6].kind == TokKind::Str
        {
            out.push((
                toks[j + 1].text.clone(),
                toks[j + 6].text.clone(),
                toks[j + 1].line,
            ));
            j += 7;
        } else {
            j += 1;
        }
    }
    out
}

/// Innermost function whose body span contains token `idx`.
fn enclosing_fn(fns: &[FnItem], idx: usize) -> Option<usize> {
    fns.iter()
        .enumerate()
        .filter_map(|(i, f)| f.body.map(|(a, b)| (i, a, b)))
        .filter(|&(_, a, b)| idx >= a && idx <= b)
        .min_by_key(|&(_, a, b)| b - a)
        .map(|(i, _, _)| i)
}

/// Identifiers that bind a `Condvar`: struct-field declarations
/// (`cv: Condvar`), struct-literal fields (`cv: Condvar::new()`) and
/// `let` bindings, with optional path prefixes (`parking_lot::Condvar`).
fn collect_condvar_binders(toks: &[Tok]) -> HashSet<String> {
    let mut out = HashSet::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || t.text != "Condvar" || i == 0 {
            continue;
        }
        // Walk back over a `path::` prefix to the head of the type path.
        let mut p = i;
        while p >= 3
            && toks[p - 1].text == ":"
            && toks[p - 2].text == ":"
            && toks[p - 3].kind == TokKind::Ident
            && !is_keyword(&toks[p - 3].text)
        {
            p -= 3;
        }
        if p == 0 {
            continue;
        }
        let before = &toks[p - 1];
        if before.text == ":" && p >= 2 && toks[p - 2].kind == TokKind::Ident {
            let b = &toks[p - 2];
            if !is_keyword(&b.text) {
                out.insert(b.text.clone());
            }
        } else if before.text == "=" {
            let mut q = p - 1;
            let floor = q.saturating_sub(8);
            while q > floor {
                q -= 1;
                if toks[q].text == "let" {
                    let b = if toks.get(q + 1).map(|t| t.text.as_str()) == Some("mut") {
                        toks.get(q + 2)
                    } else {
                        toks.get(q + 1)
                    };
                    if let Some(b) = b.filter(|t| t.kind == TokKind::Ident) {
                        out.insert(b.text.clone());
                    }
                    break;
                }
            }
        }
    }
    out
}

/// Condvar wait and notify call sites, collected whole-file so waits
/// inside spawn closures are seen too.
fn collect_wait_notify(
    toks: &[Tok],
    in_test_line: &dyn Fn(u32) -> bool,
    in_macro: &dyn Fn(usize) -> bool,
) -> (Vec<WaitSite>, Vec<NotifySite>) {
    let mut waits = Vec::new();
    let mut notifies = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        if in_macro(k) {
            continue;
        }
        if blocking_call(toks, k).is_some_and(|what| WAITS.contains(&what)) {
            // The condvar is the second argument: its last ident.
            let close = match_close(toks, k + 1);
            let mut depth = 0;
            let mut arg = 0;
            let mut recv = None;
            for u in &toks[k + 2..close] {
                match u.text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "," if depth == 0 => arg += 1,
                    _ if arg == 1 && u.kind == TokKind::Ident && !is_keyword(&u.text) => {
                        recv = Some(u.text.clone());
                    }
                    _ => {}
                }
            }
            if let Some(recv) = recv {
                waits.push(WaitSite {
                    recv,
                    line: t.line,
                    in_test: in_test_line(t.line),
                });
            }
        } else if k >= 2
            && (t.text == "notify_one" || t.text == "notify_all")
            && toks[k - 1].text == "."
            && toks[k - 2].kind == TokKind::Ident
            && !is_keyword(&toks[k - 2].text)
            && toks.get(k + 1).map(|t| t.text.as_str()) == Some("(")
        {
            notifies.push(NotifySite {
                recv: toks[k - 2].text.clone(),
                line: t.line,
                in_test: in_test_line(t.line),
            });
        }
    }
    (waits, notifies)
}

/// Thread-spawn sites: a `spawn(` call whose statement prefix mentions
/// `thread`, `Builder` or `ThreadBuilder` (`std::thread::spawn`,
/// `Builder::new()..spawn`, chorus-sim's `ThreadBuilder`).
fn collect_spawns(
    toks: &[Tok],
    fns: &[FnItem],
    in_test_line: &dyn Fn(u32) -> bool,
    in_macro: &dyn Fn(usize) -> bool,
) -> Vec<SpawnSite> {
    let mut out = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        if in_macro(k)
            || t.kind != TokKind::Ident
            || t.text != "spawn"
            || toks.get(k + 1).map(|t| t.text.as_str()) != Some("(")
        {
            continue;
        }
        let mut threadish = false;
        let mut p = k;
        while p > 0 {
            p -= 1;
            let u = &toks[p];
            if matches!(u.text.as_str(), ";" | "{" | "}") {
                break;
            }
            if u.kind == TokKind::Ident
                && matches!(u.text.as_str(), "thread" | "Builder" | "ThreadBuilder")
            {
                threadish = true;
                break;
            }
        }
        if !threadish {
            continue;
        }
        out.push(SpawnSite {
            line: t.line,
            in_test: in_test_line(t.line),
            fn_idx: enclosing_fn(fns, k),
        });
    }
    out
}

/// Blocking call sites, closure bodies included, each with the innermost
/// function that textually contains it.
fn collect_blocks(
    toks: &[Tok],
    fns: &[FnItem],
    in_test_line: &dyn Fn(u32) -> bool,
    in_macro: &dyn Fn(usize) -> bool,
) -> Vec<BlockSite> {
    (0..toks.len())
        .filter(|&k| !in_macro(k))
        .filter_map(|k| {
            Some(BlockSite {
                what: blocking_call(toks, k)?.to_owned(),
                line: toks[k].line,
                fn_idx: enclosing_fn(fns, k),
                in_test: in_test_line(toks[k].line),
            })
        })
        .collect()
}

/// Token spans of `matches!(..)` invocations — everything inside is
/// pattern-position for the variant-use classifier.
fn matches_bang_spans(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for k in 0..toks.len() {
        if toks[k].kind == TokKind::Ident
            && toks[k].text == "matches"
            && toks.get(k + 1).map(|t| t.text.as_str()) == Some("!")
            && toks.get(k + 2).map(|t| t.text.as_str()) == Some("(")
        {
            spans.push((k + 2, match_close(toks, k + 2)));
        }
    }
    spans
}

/// Pattern-position token spans: `match` arm patterns (arm start through
/// the guard, up to `=>`) and `let`/`if let`/`while let` patterns (after
/// `let`, up to the `=`).
fn pattern_spans(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for k in 0..toks.len() {
        if toks[k].kind != TokKind::Ident {
            continue;
        }
        if toks[k].text == "let" {
            let mut depth = 0i32;
            let mut j = k + 1;
            while j < toks.len() {
                match toks[j].text.as_str() {
                    "(" | "[" | "{" => depth += 1,
                    ")" | "]" | "}" => depth -= 1,
                    "=" | ";" if depth <= 0 => break,
                    _ => {}
                }
                j += 1;
            }
            if j > k + 1 {
                spans.push((k + 1, j - 1));
            }
        } else if toks[k].text == "match" {
            // Scrutinee runs to the first `{` at bracket depth zero (rustc
            // itself demands parens around struct literals here).
            let mut depth = 0i32;
            let mut open = k + 1;
            let mut found = false;
            while open < toks.len() {
                match toks[open].text.as_str() {
                    "(" | "[" => depth += 1,
                    ")" | "]" => depth -= 1,
                    "{" if depth <= 0 => {
                        found = true;
                        break;
                    }
                    _ => {}
                }
                open += 1;
            }
            if !found {
                continue;
            }
            let close = match_close(toks, open);
            let mut j = open + 1;
            while j < close {
                let start = j;
                let mut d = 0i32;
                while j < close {
                    match toks[j].text.as_str() {
                        "(" | "[" | "{" => d += 1,
                        ")" | "]" | "}" => d -= 1,
                        "=" if d <= 0
                            && toks.get(j + 1).map(|t| t.text.as_str()) == Some(">") =>
                        {
                            break
                        }
                        _ => {}
                    }
                    j += 1;
                }
                if j >= close {
                    break;
                }
                if j > start {
                    spans.push((start, j - 1));
                }
                j += 2; // past `=>`
                // Skip the arm expression: a braced block, else everything
                // up to the depth-zero `,`. Nested `match`es get their own
                // arm walk when the outer scan reaches them.
                if toks.get(j).map(|t| t.text.as_str()) == Some("{") {
                    j = match_close(toks, j) + 1;
                    if toks.get(j).map(|t| t.text.as_str()) == Some(",") {
                        j += 1;
                    }
                } else {
                    let mut d = 0i32;
                    while j < close {
                        match toks[j].text.as_str() {
                            "(" | "[" | "{" => d += 1,
                            ")" | "]" | "}" => d -= 1,
                            "," if d <= 0 => {
                                j += 1;
                                break;
                            }
                            _ => {}
                        }
                        j += 1;
                    }
                }
            }
        }
    }
    spans
}

/// `Type::name` uses with construction-vs-pattern classification (the
/// L005/A010 fact). A use is a *pattern* when it sits inside a `matches!`
/// body, a `match` arm pattern, a `let` pattern, follows a comparison
/// operator or `&` (state inspection, not a transition), or is directly
/// followed by `=>` / `|` / a match guard.
fn collect_variant_uses(
    toks: &[Tok],
    in_test_line: &dyn Fn(u32) -> bool,
    in_macro: &dyn Fn(usize) -> bool,
) -> Vec<VariantUse> {
    let m_spans = matches_bang_spans(toks);
    let p_spans = pattern_spans(toks);
    let in_span =
        |spans: &[(usize, usize)], idx: usize| spans.iter().any(|&(a, b)| idx >= a && idx <= b);
    let mut out = Vec::new();
    let mut k = 0usize;
    while k + 3 < toks.len() {
        let t = &toks[k];
        let head = t.kind == TokKind::Ident
            && !is_keyword(&t.text)
            && t.text.chars().next().is_some_and(|c| c.is_ascii_uppercase())
            && toks[k + 1].text == ":"
            && toks[k + 2].text == ":"
            && toks[k + 3].kind == TokKind::Ident
            && !is_keyword(&toks[k + 3].text);
        if !head || in_macro(k) {
            k += 1;
            continue;
        }
        // Path tails (`std::net::TcpStream::connect`) belong to the full
        // path, not the bare type ident.
        if k >= 2 && toks[k - 1].text == ":" && toks[k - 2].text == ":" {
            k += 4;
            continue;
        }
        let name_idx = k + 3;
        // A further `::` makes this a module-qualified path
        // (`Mod::sub::item`), not a variant use; re-scan from the tail.
        if toks.get(name_idx + 1).map(|t| t.text.as_str()) == Some(":")
            && toks.get(name_idx + 2).map(|t| t.text.as_str()) == Some(":")
        {
            k = name_idx;
            continue;
        }
        let mut payload_idents = Vec::new();
        let mut after = name_idx + 1;
        match toks.get(name_idx + 1).map(|t| t.text.as_str()) {
            Some("(") => {
                let close = match_close(toks, name_idx + 1);
                for tok in toks.iter().take(close).skip(name_idx + 2) {
                    if tok.kind == TokKind::Ident {
                        payload_idents.push(tok.text.clone());
                    }
                }
                after = close + 1;
            }
            Some("{") => {
                let open = name_idx + 1;
                let close = match_close(toks, open);
                // Struct-literal shape (vs. a following block): `{ .. }`,
                // `{}`, or an ident followed by `:`/`,`/`}`.
                let shaped = match toks.get(open + 1).map(|t| t.text.as_str()) {
                    Some("}") | Some(".") => true,
                    _ => {
                        toks.get(open + 1).is_some_and(|t| t.kind == TokKind::Ident)
                            && matches!(
                                toks.get(open + 2).map(|t| t.text.as_str()),
                                Some(":") | Some(",") | Some("}")
                            )
                    }
                };
                if shaped {
                    payload_idents.extend(
                        toks[open + 1..close]
                            .iter()
                            .filter(|t| t.kind == TokKind::Ident)
                            .map(|t| t.text.clone()),
                    );
                    after = close + 1;
                }
            }
            _ => {}
        }
        let mut is_pattern = in_span(&m_spans, k) || in_span(&p_spans, k);
        if !is_pattern && k >= 2 {
            let p1 = toks[k - 1].text.as_str();
            let p2 = toks[k - 2].text.as_str();
            // `== Ty::V`, `!= Ty::V`, `&Ty::V`: inspection, not transition.
            if (p1 == "=" && (p2 == "=" || p2 == "!")) || p1 == "&" {
                is_pattern = true;
            }
        }
        if !is_pattern {
            let mut a = after;
            while toks.get(a).map(|t| t.text.as_str()) == Some(")") {
                a += 1;
            }
            match toks.get(a).map(|t| t.text.as_str()) {
                Some("|") | Some("if") => is_pattern = true,
                Some("=") if toks.get(a + 1).map(|t| t.text.as_str()) == Some(">") => {
                    is_pattern = true;
                }
                _ => {}
            }
        }
        out.push(VariantUse {
            ty: t.text.clone(),
            name: toks[name_idx].text.clone(),
            line: t.line,
            is_pattern,
            in_test: in_test_line(t.line),
            payload_idents,
        });
        k = name_idx + 1;
    }
    out
}

/// The variants of `enum <name>` as (variant, line), attributes and
/// payloads skipped. Empty when the file declares no such enum.
fn collect_enum_variants(toks: &[Tok], name: &str) -> Vec<(String, u32)> {
    let Some(decl) = (0..toks.len().saturating_sub(1)).find(|&i| {
        toks[i].kind == TokKind::Ident && toks[i].text == "enum" && toks[i + 1].text == name
    }) else {
        return Vec::new();
    };
    let Some(open) = (decl..toks.len()).find(|&i| toks[i].text == "{") else {
        return Vec::new();
    };
    let close = match_close(toks, open);
    let mut variants = Vec::new();
    let mut expect_variant = true;
    let mut j = open + 1;
    while j < close {
        let t = &toks[j];
        match t.text.as_str() {
            // Payloads, discriminant expressions and `#[...]` attribute
            // bodies hold no variant names.
            "{" | "(" | "[" => j = match_close(toks, j),
            "," => expect_variant = true,
            _ if expect_variant && t.kind == TokKind::Ident => {
                variants.push((t.text.clone(), t.line));
                expect_variant = false;
            }
            _ => {}
        }
        j += 1;
    }
    variants
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn parsed(src: &str) -> ParsedFile {
        parse_file("crates/app/src/lib.rs", &scan(src))
    }

    fn fn_named<'a>(p: &'a ParsedFile, name: &str) -> &'a FnItem {
        p.fns.iter().find(|f| f.name == name).unwrap()
    }

    #[test]
    fn fns_and_impls_are_qualified() {
        let p = parsed(
            "struct S; impl S { fn m(&self) {} }\n\
             impl std::fmt::Debug for S { fn fmt(&self) {} }\n\
             fn free() {}\n\
             trait T { fn d(&self) { } fn decl(&self); }",
        );
        let m = fn_named(&p, "m");
        assert_eq!(m.self_ty.as_deref(), Some("S"));
        assert_eq!(m.trait_name, None);
        let f = fn_named(&p, "fmt");
        assert_eq!(f.self_ty.as_deref(), Some("S"));
        assert_eq!(f.trait_name.as_deref(), Some("Debug"));
        assert_eq!(fn_named(&p, "free").self_ty, None);
        let d = fn_named(&p, "d");
        assert_eq!(d.self_ty.as_deref(), Some("T"));
        assert!(fn_named(&p, "decl").body.is_none());
    }

    #[test]
    fn closures_are_not_the_defining_fn() {
        let p = parsed("fn a(&self) { spawn(move || { inner(); }); let g = map(|x| twice(x)); }");
        let names: Vec<&str> = fn_named(&p, "a").calls.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["spawn", "map"], "calls inside closures are not `a`'s");
    }

    #[test]
    fn call_kinds_are_classified() {
        let p = parsed(
            "fn a(&self) { free(); self.me(); Other::make(); thing.method(); mac!(x); }",
        );
        let f = fn_named(&p, "a");
        let kinds: Vec<(String, CallKind)> =
            f.calls.iter().map(|c| (c.name.clone(), c.kind)).collect();
        assert!(kinds.contains(&("free".into(), CallKind::Free)));
        assert!(kinds.contains(&("me".into(), CallKind::SelfMethod)));
        assert!(kinds.contains(&("make".into(), CallKind::Qualified)));
        assert!(kinds.contains(&("method".into(), CallKind::Method)));
        assert!(!kinds.iter().any(|(n, _)| n == "mac"), "macros are not calls");
    }

    #[test]
    fn macro_rules_bodies_are_invisible() {
        let p = parsed(
            "macro_rules! gen { ($t:ty) => { impl Cdr for $t { fn encode(&self) {} } }; }\n\
             fn real() { used(); }",
        );
        assert_eq!(p.fns.len(), 1, "only `real` is an item");
        assert_eq!(p.fns[0].name, "real");
    }

    #[test]
    fn test_regions_are_not_library_idents() {
        let p = parsed(
            "fn lib_fn() { lib_ident(); }\n\
             #[cfg(test)]\nmod tests { fn t() { test_ident(); } }",
        );
        assert!(p.lib_idents.contains("lib_ident"));
        assert!(!p.lib_idents.contains("test_ident"));
    }

    #[test]
    fn condvar_binders_waits_and_notifies() {
        let p = parsed(
            "struct W { m: Mutex<bool>, cv: Condvar }\n\
             struct S { idle: parking_lot::Condvar }\n\
             fn mk() -> S { S { idle: parking_lot::Condvar::new() } }\n\
             fn local() { let lonely = Condvar::new(); }\n\
             impl W {\n\
               fn a(&self, held: H) { let mut g = self.m.lock(); blocking::wait_while(held, &self.cv, &mut g, |g| !*g); }\n\
               fn b(&self, held: H) { let mut g = self.m.lock(); blocking::wait_while_until(held, &self.cv, &mut g, d, f(x)); }\n\
               fn raw(&self) { let mut g = self.m.lock(); self.cv.wait(&mut g); }\n\
               fn wake(&self) { self.cv.notify_all(); }\n\
             }",
        );
        for b in ["cv", "idle", "lonely"] {
            assert!(p.condvar_binders.contains(b), "binder {b}");
        }
        assert!(!p.condvar_binders.contains("parking_lot"));
        let waits: Vec<(&str, u32)> = p.waits.iter().map(|w| (w.recv.as_str(), w.line)).collect();
        assert_eq!(waits, [("cv", 6), ("cv", 7)], "the raw wait is not a blocking site");
        assert_eq!(p.notifies.len(), 1);
        assert_eq!(p.notifies[0].recv, "cv");
    }

    #[test]
    fn spawns_require_a_threadish_prefix_and_find_their_fn() {
        let p = parsed(
            "fn a() { let h = std::thread::spawn(|| {}); }\n\
             fn b() -> std::thread::JoinHandle<()> { std::thread::Builder::new()\n\
                 .name(String::from(\"x\")).spawn(|| {}).unwrap() }\n\
             fn c(pool: &Pool) { pool.spawn(|| {}); }\n\
             #[cfg(test)]\nmod tests { fn t() { let h = std::thread::spawn(|| {}); } }",
        );
        let lib: Vec<_> = p.spawns.iter().filter(|s| !s.in_test).collect();
        assert_eq!(lib.len(), 2, "pool.spawn has no thread/Builder prefix");
        let fns: Vec<&str> = lib
            .iter()
            .map(|s| p.fns[s.fn_idx.unwrap()].name.as_str())
            .collect();
        assert_eq!(fns, ["a", "b"]);
        assert!(p.fns[lib[1].fn_idx.unwrap()].sig_has_handle);
        assert!(!p.fns[lib[0].fn_idx.unwrap()].sig_has_handle);
        assert!(p.spawns.iter().any(|s| s.in_test));
    }

    #[test]
    fn blocks_are_blocking_module_calls_closures_included() {
        let p = parsed(
            "fn pump(held: H, rx: Receiver<u8>) { let _ = blocking::recv_timeout(held, &rx, D); }\n\
             fn start(rx: Receiver<u8>) {\n\
                 std::thread::spawn(move || { while let Ok(v) = blocking::recv(Locked::root(), &rx) { use_it(v); } });\n\
             }\n\
             fn raw(h: JoinHandle<()>, p: &Path) { h.join(); p.join(\"x\"); t.recv(); recv(); }\n\
             #[cfg(test)]\nmod tests { fn t(h: J) { blocking::join(Locked::root(), h); } }",
        );
        let sites: Vec<(&str, &str, bool)> = p
            .blocks
            .iter()
            .map(|b| (b.what.as_str(), p.fns[b.fn_idx.unwrap()].name.as_str(), b.in_test))
            .collect();
        assert_eq!(
            sites,
            [
                ("recv_timeout", "pump", false),
                ("recv", "start", false),
                ("recv", "raw", false),
                ("join", "t", true)
            ],
            "a spawn closure's block counts under its fn; a receive is one by its \
             method name, a join only through `blocking::`"
        );
    }

    #[test]
    fn variant_uses_split_constructions_from_patterns() {
        let p = parsed(
            "fn f(h: Health, e: &OrbError) -> Health {\n\
                 if matches!(h, Health::Evicted) { return Health::Probing; }\n\
                 if let Breaker::Open(since) = self.b { touch(since); }\n\
                 match h {\n\
                     Health::Suspect | Health::Probing => Health::Healthy,\n\
                     Health::Evicted if old() => Health::Probing,\n\
                     _ => h,\n\
                 }\n\
             }",
        );
        let cons: Vec<&str> = p
            .variant_uses
            .iter()
            .filter(|v| !v.is_pattern)
            .map(|v| v.name.as_str())
            .collect();
        assert_eq!(cons, ["Probing", "Healthy", "Probing"], "{:?}", p.variant_uses);
        let pats: Vec<&str> = p
            .variant_uses
            .iter()
            .filter(|v| v.is_pattern)
            .map(|v| v.name.as_str())
            .collect();
        assert_eq!(pats, ["Evicted", "Open", "Suspect", "Probing", "Evicted"]);
    }

    #[test]
    fn variant_use_payloads_capture_attribution_idents() {
        let p = parsed(
            "fn f() -> OrbError {\n\
                 let a = OrbError::Transport(\"static\".into());\n\
                 let b = OrbError::RetriesExhausted { attempts, last: Box::new(e) };\n\
                 let c = OrbError::timeout(elapsed);\n\
                 let d = OrbError::Transport(format!(\"replica {id} down\"));\n\
                 a\n\
             }",
        );
        let by_name = |n: &str| {
            p.variant_uses
                .iter()
                .filter(|v| v.name == n && !v.is_pattern)
                .collect::<Vec<_>>()
        };
        let re = by_name("RetriesExhausted");
        assert_eq!(re.len(), 1);
        assert_eq!(re[0].payload_idents, ["attempts", "last", "Box", "new", "e"]);
        let to = by_name("timeout");
        assert_eq!(to.len(), 1);
        assert_eq!(to[0].payload_idents, ["elapsed"]);
        let tr = by_name("Transport");
        assert_eq!(tr.len(), 2);
        assert_eq!(tr[0].payload_idents, ["into"]);
        assert!(tr[1].payload_idents.contains(&"format".to_owned()));
        // `std::net::TcpStream::connect` path tails are not variant uses.
        let q = parsed("fn g() { std::net::TcpStream::connect(a); Vec::<u8>::new(); }");
        assert!(q.variant_uses.is_empty(), "{:?}", q.variant_uses);
    }

    #[test]
    fn metric_consts_only_collected_for_names_rs() {
        let src = "pub const FAILOVERS_TOTAL: &str = \"failovers_total\";";
        let n = parse_file("crates/cool-telemetry/src/names.rs", &scan(src));
        assert_eq!(n.metric_consts.len(), 1);
        assert_eq!(n.metric_consts[0].1, "failovers_total");
        let f = parse_file("crates/cool-telemetry/src/flight.rs", &scan(src));
        assert!(f.metric_consts.is_empty());
    }
}
