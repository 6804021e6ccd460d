//! Item-level parsing on top of the token scanner.
//!
//! [`crate::lexer::scan`] gives a comment/string-safe token stream; this
//! module lifts it to the item level the interprocedural rules need:
//! functions (with impl/trait qualification and body spans), call sites,
//! blocking operations, `OrderedMutex`/`OrderedRwLock` construction sites
//! with their rank constants, and — the delicate part — the *liveness
//! extent* of every lock guard, following Rust's temporary-lifetime rules
//! closely enough to tell `let g = x.lock();` (guard lives to the end of
//! the block) from `x.lock().take();` (guard dies at the semicolon) from
//! `if let Some(v) = x.lock().take()` (scrutinee temporaries live through
//! the whole construct).
//!
//! Known soundness limits, by design (documented in DESIGN.md §7.3):
//! closure bodies are not attributed to the defining function (a spawn
//! callback does not run at its definition site), trait-object and
//! non-`self` method calls are not resolved, and `match` arms without
//! braces over-approximate a scrutinee guard to the end of the `match`.

use crate::lexer::{Scan, Tok, TokKind};
use crate::source::{classify, in_regions, inline_allows, test_regions, FileRole};
use std::collections::{HashMap, HashSet};

/// Identifiers that block the calling thread when invoked. `join` is only
/// counted with an empty argument list (`handle.join()`), which separates
/// thread joins from `Path::join`/`str::join`.
pub const BLOCKING: &[&str] = &[
    "recv",
    "recv_timeout",
    "wait",
    "wait_timeout",
    "wait_while",
    "wait_timeout_while",
    "wait_until",
    "join",
    "dial",
    "connect",
    "connect_timeout",
    "recv_deadline",
    "connect_chorus",
    "connect_dacapo",
    "connect_chorus_with",
    "connect_dacapo_with",
];

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

/// One semantic event inside a function body, in token order.
#[derive(Debug, Clone)]
pub enum EventKind {
    /// A `.lock()`/`.read()`/`.write()` on `recv`; the guard is live for
    /// tokens in `(tok, release]`.
    Acquire { recv: String, release: usize },
    /// A call site that may be resolvable to a workspace function.
    Call {
        name: String,
        qual: Option<String>,
        kind: CallKind,
    },
    /// A directly blocking operation ([`BLOCKING`]).
    Block { what: String },
}

/// An event with its position.
#[derive(Debug, Clone)]
pub struct Event {
    pub kind: EventKind,
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
    /// A001/A002 skip them (lock-order tests provoke inversions on purpose).
    pub in_test: bool,
    /// Signature mentions `JoinHandle` — the function hands the spawned
    /// thread's handle to its caller, so A007 holds the caller responsible.
    pub sig_has_handle: bool,
    pub events: Vec<Event>,
}

/// The capacity argument of a bounded-channel constructor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CapExpr {
    /// `bounded(8)`.
    Lit(u64),
    /// `bounded(SOME_DEPTH)` — a single SCREAMING_CASE constant, resolved
    /// against the workspace integer-constant table.
    Const(String),
    /// Anything computed (`bounded(config.depth.max(1))`); the identifiers
    /// appearing in the expression, for table matching.
    Dynamic(Vec<String>),
}

/// What kind of queue a construction site creates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChanKind {
    /// `crossbeam::channel::bounded(cap)`.
    Bounded,
    /// `crossbeam::channel::unbounded()`.
    Unbounded,
    /// `FrameInbox::new()` — condvar-backed, grows until a sink drains it.
    Inbox,
}

/// One channel/inbox construction site (the A005 fact).
#[derive(Debug)]
pub struct ChanCtor {
    pub kind: ChanKind,
    /// `None` for unbounded kinds.
    pub cap: Option<CapExpr>,
    /// Innermost enclosing function, the site's identity in the DESIGN.md
    /// §7.4 channel-topology table.
    pub fn_name: Option<String>,
    pub line: u32,
    pub in_test: bool,
}

/// One condvar wait site (the A006 fact). Collected at file scope — a wait
/// inside a spawn closure is still a wait — so this is independent of the
/// per-function event streams.
#[derive(Debug)]
pub struct WaitSite {
    /// Receiver ident (`self.cv.wait(..)` → `cv`). A006 only counts
    /// receivers that bind a `Condvar` somewhere in the crate.
    pub recv: String,
    /// `wait`, `wait_for`, `wait_until`, `wait_timeout`, `wait_while`,
    /// `wait_timeout_while`.
    pub method: String,
    pub line: u32,
    /// Lexically inside a `loop`/`while`/`for` body.
    pub in_loop: bool,
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

/// One blocking call site *outside* every function's event stream — closure
/// bodies, mostly (the A008 fact). A spawn callback blocks at run time, not
/// where it is defined, so the per-function streams deliberately exclude
/// these; the hang-freedom rule folds them back in under the label of the
/// function that textually contains the closure.
#[derive(Debug)]
pub struct LooseBlock {
    /// The [`BLOCKING`] identifier that was called.
    pub what: String,
    pub line: u32,
    /// Innermost function whose body textually contains the site.
    pub fn_name: Option<String>,
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
    /// Field names of a struct-literal payload (`Timeout { request_id: .. }`).
    pub fields: Vec<String>,
}

/// One `OrderedMutex::new`/`OrderedRwLock::new` site.
#[derive(Debug)]
pub struct LockCtor {
    /// The struct field or `let` binding receiving the lock, when
    /// recoverable; this is what acquisition receivers are matched against.
    pub binder: Option<String>,
    /// The rank constant named by the first argument (`rank::X` → `X`),
    /// resolved against the `mod rank` constants.
    pub rank: String,
}

/// Everything the rules need from one `.rs` file.
#[derive(Debug)]
pub struct ParsedFile {
    pub rel: String,
    pub krate: String,
    pub test_like: bool,
    /// Line spans of `#[cfg(test)]` items, computed once here for every
    /// collector below and for the per-file token rules.
    pub test_regions: Vec<(u32, u32)>,
    pub fns: Vec<FnItem>,
    pub lock_ctors: Vec<LockCtor>,
    /// `const NAME: Rank = Rank::new(value, "lock.name");` entries inside
    /// a `mod rank { .. }`, as (NAME, value, lock name).
    pub rank_consts: Vec<(String, u32, String)>,
    /// `pub const NAME: &str = "value";` entries (only for `src/names.rs`).
    pub metric_consts: Vec<(String, String, u32)>,
    /// Identifiers appearing in non-test library code.
    pub lib_idents: HashSet<String>,
    /// String literals appearing in non-test library code.
    pub lib_strs: HashSet<String>,
    /// Identifiers appearing in tests (test-like files or cfg(test)).
    pub test_idents: HashSet<String>,
    /// `// lint: allow(RULE, reason)` lines.
    pub allows: HashMap<u32, Vec<String>>,
    /// Channel/inbox construction sites (A005).
    pub chan_ctors: Vec<ChanCtor>,
    /// Top-level `const NAME: <int> = value;` items, for capacity-constant
    /// resolution.
    pub int_consts: Vec<(String, u64, u32)>,
    /// Identifiers that bind a `Condvar` (field declarations, struct
    /// literals, `let` bindings).
    pub condvar_binders: HashSet<String>,
    /// Condvar-style wait call sites (A006).
    pub waits: Vec<WaitSite>,
    /// `notify_one`/`notify_all` call sites (A006).
    pub notifies: Vec<NotifySite>,
    /// Thread spawn sites (A007).
    pub spawns: Vec<SpawnSite>,
    /// Blocking sites outside the per-fn event streams (A008).
    pub loose_blocks: Vec<LooseBlock>,
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
    // Nested fn bodies are excluded from the enclosing fn's event stream.
    let bodies: Vec<(usize, usize)> = fns.iter().filter_map(|f| f.body).collect();
    for f in &mut fns {
        if let Some((open, close)) = f.body {
            let nested: Vec<(usize, usize)> = bodies
                .iter()
                .filter(|&&(a, b)| a > open && b < close)
                .copied()
                .collect();
            f.events = body_events(toks, open, close, &nested, &macro_spans);
        }
    }

    let lock_ctors = collect_lock_ctors(toks, &in_macro);
    let chan_ctors = collect_chan_ctors(toks, &fns, &in_test_line, &in_macro);
    let int_consts = collect_int_consts(toks);
    let condvar_binders = collect_condvar_binders(toks);
    let loops = loop_spans(toks);
    let (waits, notifies) = collect_wait_notify(toks, &loops, &in_test_line, &in_macro);
    let spawns = collect_spawns(toks, &fns, &in_test_line, &in_macro);
    let rank_consts = collect_rank_consts(toks);
    let metric_consts = if rel.ends_with("src/names.rs") {
        collect_metric_consts(toks)
    } else {
        Vec::new()
    };
    let loose_blocks = collect_loose_blocks(toks, &fns, &in_test_line, &in_macro);
    let variant_uses = collect_variant_uses(toks, &in_test_line, &in_macro);
    let orb_error_variants = if rel == "crates/cool-orb/src/error.rs" {
        collect_enum_variants(toks, "OrbError")
    } else {
        Vec::new()
    };

    let mut lib_idents = HashSet::new();
    let mut lib_strs = HashSet::new();
    let mut test_idents = HashSet::new();
    for t in toks {
        let test = in_test_line(t.line);
        match t.kind {
            TokKind::Ident => {
                if test {
                    test_idents.insert(t.text.clone());
                } else {
                    lib_idents.insert(t.text.clone());
                }
            }
            TokKind::Str if !test => {
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
        lock_ctors,
        rank_consts,
        metric_consts,
        lib_idents,
        lib_strs,
        test_idents,
        allows: inline_allows(&scan.comments),
        chan_ctors,
        int_consts,
        condvar_binders,
        waits,
        notifies,
        spawns,
        loose_blocks,
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
                        events: Vec::new(),
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
/// `move |args| ...`. Events inside them are not attributed to the
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

/// Extracts the event stream of one function body.
fn body_events(
    toks: &[Tok],
    open: usize,
    close: usize,
    nested_fns: &[(usize, usize)],
    macro_spans: &[(usize, usize)],
) -> Vec<Event> {
    let closures = closure_spans(toks, open, close);
    let excluded = |idx: usize| {
        nested_fns.iter().any(|&(a, b)| idx >= a && idx <= b)
            || macro_spans.iter().any(|&(a, b)| idx >= a && idx <= b)
            || closures.iter().any(|&(a, b)| idx >= a && idx <= b)
    };

    let mut events = Vec::new();
    let mut k = open + 1;
    while k < close {
        if excluded(k) {
            k += 1;
            continue;
        }
        let t = &toks[k];
        if t.kind != TokKind::Ident {
            k += 1;
            continue;
        }
        let prev = toks[k - 1].text.as_str();
        let next = toks.get(k + 1).map(|t| t.text.as_str());
        // Guard acquisition: `.lock()` / `.read()` / `.write()` — empty
        // argument list separates lock APIs from io::Read/Write.
        if matches!(t.text.as_str(), "lock" | "read" | "write")
            && prev == "."
            && next == Some("(")
            && toks.get(k + 2).map(|t| t.text.as_str()) == Some(")")
        {
            let recv = &toks[k - 2];
            if recv.kind == TokKind::Ident && !is_keyword(&recv.text) || recv.text == "self" {
                // `self.lock()` has receiver `self` (rare); field access
                // `self.field.lock()` has the field at k-2.
                let recv_name = recv.text.clone();
                if recv.kind == TokKind::Ident {
                    let release = guard_release(toks, open, close, k);
                    events.push(Event {
                        kind: EventKind::Acquire {
                            recv: recv_name,
                            release,
                        },
                        tok: k,
                        line: t.line,
                    });
                }
            }
            k += 3;
            continue;
        }
        // Calls and blocking operations: `ident (` not preceded by `fn`
        // and not a macro (`ident !`).
        if next == Some("(") && prev != "fn" && !is_keyword(&t.text) {
            let name = t.text.clone();
            if BLOCKING.contains(&name.as_str()) {
                let zero_arg = toks.get(k + 2).map(|t| t.text.as_str()) == Some(")");
                let counts = if name == "join" { zero_arg } else { true };
                if counts {
                    events.push(Event {
                        kind: EventKind::Block { what: name },
                        tok: k,
                        line: t.line,
                    });
                    k += 1;
                    continue;
                }
            } else {
                let kind;
                let mut qual = None;
                if prev == "." {
                    if toks[k - 2].text == "self" {
                        kind = CallKind::SelfMethod;
                    } else {
                        kind = CallKind::Method;
                    }
                } else if prev == ":" && toks[k - 2].text == ":" {
                    let q = &toks[k - 3];
                    if q.kind == TokKind::Ident && !is_keyword(&q.text) {
                        qual = Some(q.text.clone());
                        kind = CallKind::Qualified;
                    } else {
                        kind = CallKind::Method; // `<T as Trait>::f(..)` etc.
                    }
                } else {
                    kind = CallKind::Free;
                }
                events.push(Event {
                    kind: EventKind::Call { name, qual, kind },
                    tok: k,
                    line: t.line,
                });
            }
        }
        k += 1;
    }
    events.sort_by_key(|e| e.tok);
    events
}

/// Where the guard acquired at token `k` (the `lock`/`read`/`write`
/// ident) dies, as a token index. See the module docs for the model.
fn guard_release(toks: &[Tok], body_open: usize, body_close: usize, k: usize) -> usize {
    let stmt = stmt_start(toks, body_open, k);

    // Construct scrutinee? Find the last construct keyword between the
    // statement start and `k` with no `{` in between.
    let mut construct: Option<usize> = None;
    let mut j = stmt;
    while j < k {
        let t = &toks[j];
        if t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "if" | "while" | "for" | "match")
        {
            construct = Some(j);
        } else if t.text == "{" {
            construct = None;
        }
        j += 1;
    }
    if let Some(c) = construct {
        let is_let = toks.get(c + 1).map(|t| t.text.as_str()) == Some("let");
        let word = toks[c].text.as_str();
        if matches!(word, "if" | "while") && !is_let {
            // Bare condition: temporaries drop when the condition has been
            // evaluated, before the block runs.
            return first_brace_after(toks, k, body_close);
        }
        // `if let` / `while let` / `for` / `match`: scrutinee temporaries
        // live through the construct (if-else chains included).
        let mut open = first_brace_after(toks, k, body_close);
        if toks.get(open).map(|t| t.text.as_str()) != Some("{") {
            return open;
        }
        let mut end = match_close(toks, open);
        if word == "if" {
            while toks.get(end + 1).map(|t| t.text.as_str()) == Some("else") {
                open = first_brace_after(toks, end + 2, body_close);
                if toks.get(open).map(|t| t.text.as_str()) != Some("{") {
                    break;
                }
                end = match_close(toks, open);
            }
        }
        return end;
    }

    let mut s = stmt;
    if toks.get(s).map(|t| t.text.as_str()) == Some("else") {
        s += 1;
    }
    if toks.get(s).map(|t| t.text.as_str()) == Some("let") {
        let discard = toks.get(s + 1).map(|t| t.text.as_str()) == Some("_")
            && toks.get(s + 2).map(|t| t.text.as_str()) == Some("=");
        // Is the guard itself the bound value? Only when the acquisition
        // call is the tail of the initializer (`let g = x.lock();`) and
        // the receiver chain is not behind a deref (`let v = *x.lock();`).
        let after = toks.get(k + 3).map(|t| t.text.as_str());
        let derefed = chain_start_prefixed_by_star(toks, k);
        if !discard && after == Some(";") && !derefed {
            let binder = if toks.get(s + 1).map(|t| t.text.as_str()) == Some("mut") {
                toks.get(s + 2)
            } else {
                toks.get(s + 1)
            };
            let end = enclosing_block_end(toks, body_close, k);
            // An explicit `drop(binder)` releases early.
            if let Some(b) = binder {
                if b.kind == TokKind::Ident {
                    let mut j = k;
                    while j < end {
                        if toks[j].text == "drop"
                            && toks.get(j + 1).map(|t| t.text.as_str()) == Some("(")
                            && toks.get(j + 2).map(|t| t.text.as_str()) == Some(b.text.as_str())
                            && toks.get(j + 3).map(|t| t.text.as_str()) == Some(")")
                        {
                            return j;
                        }
                        j += 1;
                    }
                }
            }
            return end;
        }
    }
    stmt_end(toks, body_close, k)
}

/// Is the method-call chain containing token `k` prefixed by `*`
/// (`*self.x.lock()`)? Then the guard is a temporary even in `let` form.
fn chain_start_prefixed_by_star(toks: &[Tok], k: usize) -> bool {
    let mut j = k - 1; // the `.` before lock
    while j > 0 {
        let t = &toks[j];
        let chain = t.text == "." || t.text == "self" || (t.kind == TokKind::Ident && !is_keyword(&t.text));
        if !chain {
            break;
        }
        j -= 1;
    }
    toks[j].text == "*"
}

/// Start-of-statement token index for the statement containing `k`.
fn stmt_start(toks: &[Tok], body_open: usize, k: usize) -> usize {
    let mut paren = 0i32;
    let mut brace = 0i32;
    let mut j = k;
    while j > body_open {
        j -= 1;
        match toks[j].text.as_str() {
            ")" | "]" => paren += 1,
            "(" | "[" => paren -= 1,
            "}" => {
                if brace == 0 {
                    return j + 1; // previous statement ended with a block
                }
                brace += 1;
            }
            "{" => {
                if brace == 0 {
                    return j + 1; // enclosing block opens here
                }
                brace -= 1;
            }
            // Paren/bracket depth matters: `[u8; 4]` semicolons are not
            // statement boundaries.
            ";" if brace == 0 && paren == 0 => return j + 1,
            _ => {}
        }
    }
    body_open + 1
}

/// End of the statement containing `k`: the `;` (or closing `}` of the
/// enclosing block) at relative depth zero.
fn stmt_end(toks: &[Tok], body_close: usize, k: usize) -> usize {
    let mut brace = 0i32;
    let mut j = k;
    while j < body_close {
        j += 1;
        match toks[j].text.as_str() {
            "{" => brace += 1,
            "}" => {
                if brace == 0 {
                    return j;
                }
                brace -= 1;
            }
            ";" if brace == 0 => return j,
            _ => {}
        }
    }
    body_close
}

/// Closing `}` of the block enclosing `k`.
fn enclosing_block_end(toks: &[Tok], body_close: usize, k: usize) -> usize {
    let mut brace = 0i32;
    let mut j = k;
    while j < body_close {
        j += 1;
        match toks[j].text.as_str() {
            "{" => brace += 1,
            "}" => {
                if brace == 0 {
                    return j;
                }
                brace -= 1;
            }
            _ => {}
        }
    }
    body_close
}

/// First `{` at or after `from` (skipping parenthesized groups), else the
/// position stopped at.
fn first_brace_after(toks: &[Tok], from: usize, body_close: usize) -> usize {
    let mut depth = 0i32;
    let mut j = from;
    while j <= body_close {
        match toks[j].text.as_str() {
            "(" | "[" => depth += 1,
            ")" | "]" => depth -= 1,
            "{" if depth <= 0 => return j,
            _ => {}
        }
        j += 1;
    }
    body_close
}

fn collect_lock_ctors(toks: &[Tok], in_macro: &dyn Fn(usize) -> bool) -> Vec<LockCtor> {
    let mut out = Vec::new();
    let mut j = 0usize;
    while j + 4 < toks.len() {
        let t = &toks[j];
        if in_macro(j)
            || t.kind != TokKind::Ident
            || !(t.text == "OrderedMutex" || t.text == "OrderedRwLock")
            || toks[j + 1].text != ":"
            || toks[j + 2].text != ":"
            || toks[j + 3].text != "new"
            || toks[j + 4].text != "("
        {
            j += 1;
            continue;
        }
        // First argument: the rank constant's path.
        let mut p = j + 5;
        let mut depth = 0i32;
        let mut last_ident: Option<String> = None;
        while p < toks.len() {
            match toks[p].text.as_str() {
                "(" | "[" | "<" => depth += 1,
                ")" | "]" | ">" => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                "," if depth == 0 => break,
                _ if toks[p].kind == TokKind::Ident => last_ident = Some(toks[p].text.clone()),
                _ => {}
            }
            p += 1;
        }
        let Some(rank) = last_ident else {
            j += 1;
            continue;
        };
        out.push(LockCtor {
            binder: find_binder(toks, j),
            rank,
        });
        j = p + 1;
    }
    out
}

/// Walks backwards from an `OrderedMutex` token to the field or `let`
/// binding receiving the lock, skipping `Arc::new(` style wrappers and
/// path prefixes.
fn find_binder(toks: &[Tok], ctor: usize) -> Option<String> {
    let mut p = ctor;
    while p > 0 {
        p -= 1;
        let t = &toks[p];
        let skip = t.text == "(" || t.text == ":" || (t.kind == TokKind::Ident
            && matches!(t.text.as_str(), "new" | "Arc" | "Box" | "Rc" | "lockorder" | "cool_telemetry"));
        if skip {
            continue;
        }
        if t.text == "=" {
            // `let name[: Ty] = ...`: find the `let` a few tokens back.
            let mut q = p;
            let floor = p.saturating_sub(16);
            while q > floor {
                q -= 1;
                if toks[q].text == "let" {
                    let b = if toks.get(q + 1).map(|t| t.text.as_str()) == Some("mut") {
                        toks.get(q + 2)
                    } else {
                        toks.get(q + 1)
                    };
                    return b.filter(|t| t.kind == TokKind::Ident).map(|t| t.text.clone());
                }
            }
            return None;
        }
        if t.kind == TokKind::Ident && !is_keyword(&t.text) {
            // Struct-literal field (`field: OrderedMutex::new(..)`) or the
            // last segment before the ctor.
            return Some(t.text.clone());
        }
        return None;
    }
    None
}

/// `const NAME: Rank = Rank::new(value, "lock.name");` entries inside
/// `mod rank { .. }`: the first number and the first string literal
/// between the `=` and the `;`.
fn collect_rank_consts(toks: &[Tok]) -> Vec<(String, u32, String)> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i + 2 < toks.len() {
        if toks[i].text == "mod" && toks[i + 1].text == "rank" {
            let mut open = i + 2;
            while open < toks.len() && toks[open].text != "{" {
                open += 1;
            }
            if open >= toks.len() {
                break;
            }
            let close = match_close(toks, open);
            let mut j = open;
            while j + 4 < close {
                if toks[j].text == "const"
                    && toks[j + 1].kind == TokKind::Ident
                    && toks[j + 2].text == ":"
                    && toks[j + 4].text == "="
                {
                    let end = (j + 5..close)
                        .find(|&k| toks[k].text == ";")
                        .unwrap_or(close);
                    let item = &toks[j + 5..end];
                    let value = item.iter().find(|t| t.kind == TokKind::Num);
                    let name = item.iter().find(|t| t.kind == TokKind::Str);
                    if let (Some(value), Some(name)) = (value, name) {
                        if let Ok(v) = value.text.parse::<u32>() {
                            out.push((toks[j + 1].text.clone(), v, name.text.clone()));
                        }
                    }
                    j = end;
                } else {
                    j += 1;
                }
            }
            i = close + 1;
        } else {
            i += 1;
        }
    }
    out
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

/// Channel/inbox construction sites: `bounded(cap)` / `unbounded()`
/// (turbofish forms included) and `FrameInbox::new()`.
fn collect_chan_ctors(
    toks: &[Tok],
    fns: &[FnItem],
    in_test_line: &dyn Fn(u32) -> bool,
    in_macro: &dyn Fn(usize) -> bool,
) -> Vec<ChanCtor> {
    let mut out = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if in_macro(i) || toks[i].kind != TokKind::Ident {
            i += 1;
            continue;
        }
        let t = &toks[i];
        let prev = if i > 0 { toks[i - 1].text.as_str() } else { "" };
        let kind = match t.text.as_str() {
            "bounded" if prev != "." && prev != "fn" => ChanKind::Bounded,
            "unbounded" if prev != "." && prev != "fn" => ChanKind::Unbounded,
            "FrameInbox"
                if toks.get(i + 1).map(|t| t.text.as_str()) == Some(":")
                    && toks.get(i + 2).map(|t| t.text.as_str()) == Some(":")
                    && toks.get(i + 3).map(|t| t.text.as_str()) == Some("new")
                    && toks.get(i + 4).map(|t| t.text.as_str()) == Some("(") =>
            {
                ChanKind::Inbox
            }
            _ => {
                i += 1;
                continue;
            }
        };
        // The argument-list paren, skipping a `::<T>` turbofish. A bare
        // `bounded`/`unbounded` ident without one (imports) is not a site.
        let args_open = if kind == ChanKind::Inbox {
            i + 4
        } else {
            let mut j = i + 1;
            if toks.get(j).map(|t| t.text.as_str()) == Some(":")
                && toks.get(j + 1).map(|t| t.text.as_str()) == Some(":")
                && toks.get(j + 2).map(|t| t.text.as_str()) == Some("<")
            {
                let mut depth = 0i32;
                j += 2;
                while j < toks.len() {
                    match toks[j].text.as_str() {
                        "<" => depth += 1,
                        ">" => {
                            depth -= 1;
                            if depth == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            if toks.get(j).map(|t| t.text.as_str()) != Some("(") {
                i += 1;
                continue;
            }
            j
        };
        let args_close = match_close(toks, args_open);
        let cap = if kind == ChanKind::Bounded {
            let mut idents: Vec<String> = Vec::new();
            let mut lits: Vec<u64> = Vec::new();
            for t in &toks[args_open + 1..args_close] {
                match t.kind {
                    TokKind::Ident if !is_keyword(&t.text) => idents.push(t.text.clone()),
                    TokKind::Num => {
                        if let Ok(v) = t.text.replace('_', "").parse::<u64>() {
                            lits.push(v);
                        }
                    }
                    _ => {}
                }
            }
            let screaming = |s: &str| {
                s.chars().any(|c| c.is_ascii_uppercase())
                    && !s.chars().any(|c| c.is_ascii_lowercase())
            };
            Some(match (idents.as_slice(), lits.as_slice()) {
                ([], [v]) => CapExpr::Lit(*v),
                ([name], []) if screaming(name) => CapExpr::Const(name.clone()),
                _ => CapExpr::Dynamic(idents),
            })
        } else {
            None
        };
        out.push(ChanCtor {
            kind,
            cap,
            fn_name: enclosing_fn(fns, i).map(|fi| fns[fi].name.clone()),
            line: t.line,
            in_test: in_test_line(t.line),
        });
        i = args_open + 1;
    }
    out
}

const INT_TYPES: &[&str] = &[
    "usize", "u8", "u16", "u32", "u64", "i8", "i16", "i32", "i64", "isize",
];

/// `const NAME: usize = 123;` items at any nesting, for A005
/// capacity-constant resolution (and its drift check against §7.4).
fn collect_int_consts(toks: &[Tok]) -> Vec<(String, u64, u32)> {
    let mut out = Vec::new();
    let mut j = 0usize;
    while j + 5 < toks.len() {
        if toks[j].text == "const"
            && toks[j + 1].kind == TokKind::Ident
            && toks[j + 2].text == ":"
            && toks[j + 3].kind == TokKind::Ident
            && INT_TYPES.contains(&toks[j + 3].text.as_str())
            && toks[j + 4].text == "="
            && toks[j + 5].kind == TokKind::Num
            && toks.get(j + 6).map(|t| t.text.as_str()) == Some(";")
        {
            if let Ok(v) = toks[j + 5].text.replace('_', "").parse::<u64>() {
                out.push((toks[j + 1].text.clone(), v, toks[j + 1].line));
            }
            j += 6;
        } else {
            j += 1;
        }
    }
    out
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

/// Token spans of `loop`/`while`/`for` bodies. `for` only counts as a
/// loop when an `in` appears before its body brace, which excludes
/// `impl Trait for Type` headers and HRTB `for<'a>` bounds.
fn loop_spans(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut spans = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !matches!(t.text.as_str(), "loop" | "while" | "for") {
            continue;
        }
        let open = first_brace_after(toks, i + 1, toks.len() - 1);
        if toks.get(open).map(|t| t.text.as_str()) != Some("{") {
            continue;
        }
        if t.text == "for"
            && !toks[i + 1..open]
                .iter()
                .any(|t| t.kind == TokKind::Ident && t.text == "in")
        {
            continue;
        }
        spans.push((open, match_close(toks, open)));
    }
    spans
}

const WAIT_METHODS: &[&str] = &[
    "wait",
    "wait_for",
    "wait_until",
    "wait_timeout",
    "wait_while",
    "wait_timeout_while",
];

/// Condvar-shaped wait and notify call sites, collected whole-file so
/// waits inside spawn closures are seen too.
fn collect_wait_notify(
    toks: &[Tok],
    loops: &[(usize, usize)],
    in_test_line: &dyn Fn(u32) -> bool,
    in_macro: &dyn Fn(usize) -> bool,
) -> (Vec<WaitSite>, Vec<NotifySite>) {
    let mut waits = Vec::new();
    let mut notifies = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        if k < 2
            || in_macro(k)
            || t.kind != TokKind::Ident
            || toks[k - 1].text != "."
            || toks.get(k + 1).map(|t| t.text.as_str()) != Some("(")
        {
            continue;
        }
        let recv = &toks[k - 2];
        if recv.kind != TokKind::Ident || is_keyword(&recv.text) {
            continue;
        }
        if WAIT_METHODS.contains(&t.text.as_str()) {
            waits.push(WaitSite {
                recv: recv.text.clone(),
                method: t.text.clone(),
                line: t.line,
                in_loop: loops.iter().any(|&(a, b)| k >= a && k <= b),
                in_test: in_test_line(t.line),
            });
        } else if t.text == "notify_one" || t.text == "notify_all" {
            notifies.push(NotifySite {
                recv: recv.text.clone(),
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

/// Blocking call sites *not* covered by any function's event stream —
/// closure bodies handed to spawns, mostly. A008 folds these back in under
/// the textually-enclosing function's label.
fn collect_loose_blocks(
    toks: &[Tok],
    fns: &[FnItem],
    in_test_line: &dyn Fn(u32) -> bool,
    in_macro: &dyn Fn(usize) -> bool,
) -> Vec<LooseBlock> {
    let covered: HashSet<usize> = fns
        .iter()
        .flat_map(|f| f.events.iter())
        .filter_map(|e| match e.kind {
            EventKind::Block { .. } => Some(e.tok),
            _ => None,
        })
        .collect();
    let mut out = Vec::new();
    for (k, t) in toks.iter().enumerate() {
        if k == 0
            || in_macro(k)
            || covered.contains(&k)
            || t.kind != TokKind::Ident
            || !BLOCKING.contains(&t.text.as_str())
            || toks.get(k + 1).map(|t| t.text.as_str()) != Some("(")
            || toks[k - 1].text == "fn"
        {
            continue;
        }
        if t.text == "join" && toks.get(k + 2).map(|t| t.text.as_str()) != Some(")") {
            continue;
        }
        out.push(LooseBlock {
            what: t.text.clone(),
            line: t.line,
            fn_name: enclosing_fn(fns, k).map(|i| fns[i].name.clone()),
            in_test: in_test_line(t.line),
        });
    }
    out
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
        let mut fields = Vec::new();
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
                    for j in open + 1..close {
                        if toks[j].kind != TokKind::Ident {
                            continue;
                        }
                        payload_idents.push(toks[j].text.clone());
                        let prev = toks[j - 1].text.as_str();
                        let next = toks.get(j + 1).map(|t| t.text.as_str());
                        let field_pos = prev == "{" || prev == ",";
                        let named = next == Some(":")
                            && toks.get(j + 2).map(|t| t.text.as_str()) != Some(":");
                        let shorthand = next == Some(",") || next == Some("}");
                        if field_pos && (named || shorthand) {
                            fields.push(toks[j].text.clone());
                        }
                    }
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
            fields,
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

    fn acquires(f: &FnItem) -> Vec<(&str, usize, usize)> {
        f.events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Acquire { recv, release } => Some((recv.as_str(), e.tok, *release)),
                _ => None,
            })
            .collect()
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
    fn let_bound_guard_lives_to_block_end_and_drop_releases() {
        let p = parsed(
            "fn a(&self) { let g = self.x.lock(); use_it(); }\n\
             fn b(&self) { let g = self.x.lock(); drop(g); after(); }",
        );
        let a = fn_named(&p, "a");
        let (_, tok, rel) = acquires(a)[0];
        let call = a
            .events
            .iter()
            .find(|e| matches!(&e.kind, EventKind::Call { name, .. } if name == "use_it"))
            .unwrap();
        assert!(call.tok > tok && call.tok <= rel, "guard live at use_it");

        let b = fn_named(&p, "b");
        let (_, _, rel_b) = acquires(b)[0];
        let after = b
            .events
            .iter()
            .find(|e| matches!(&e.kind, EventKind::Call { name, .. } if name == "after"))
            .unwrap();
        assert!(after.tok > rel_b, "drop(g) released before after()");
    }

    #[test]
    fn temporaries_die_at_statement_end() {
        let p = parsed(
            "fn a(&self) { self.x.lock().take(); blocked(); }\n\
             fn b(&self) { let v = self.x.lock().take(); blocked(); }\n\
             fn c(&self) { let v = *self.x.lock(); blocked(); }",
        );
        for name in ["a", "b", "c"] {
            let f = fn_named(&p, name);
            let (_, _, rel) = acquires(f)[0];
            let call = f
                .events
                .iter()
                .find(|e| matches!(&e.kind, EventKind::Call { name, .. } if name == "blocked"))
                .unwrap();
            assert!(call.tok > rel, "fn {name}: temp guard died at `;`");
        }
    }

    #[test]
    fn scrutinee_guards_live_through_the_construct() {
        let p = parsed(
            "fn a(&self) { if let Some(h) = self.x.lock().take() { h.join(); } tail(); }\n\
             fn b(&self) { for w in self.x.lock().drain(..) { body(); } tail(); }\n\
             fn c(&self) { if self.x.lock().is_empty() { body(); } }",
        );
        for name in ["a", "b"] {
            let f = fn_named(&p, name);
            let (_, _, rel) = acquires(f)[0];
            let tail = f
                .events
                .iter()
                .find(|e| matches!(&e.kind, EventKind::Call { name, .. } if name == "tail"))
                .unwrap();
            let inner = f
                .events
                .iter()
                .find(|e| match &e.kind {
                    EventKind::Call { name, .. } => name == "body",
                    EventKind::Block { what } => what == "join",
                    EventKind::Acquire { .. } => false,
                })
                .unwrap();
            assert!(inner.tok <= rel, "fn {name}: guard live inside the block");
            assert!(tail.tok > rel, "fn {name}: guard dead after the block");
        }
        // Bare `if` condition: guard dies before the block.
        let c = fn_named(&p, "c");
        let (_, _, rel) = acquires(c)[0];
        let body = c
            .events
            .iter()
            .find(|e| matches!(&e.kind, EventKind::Call { name, .. } if name == "body"))
            .unwrap();
        assert!(body.tok > rel, "bare-if condition guard died at `{{`");
    }

    #[test]
    fn inner_block_bounds_a_let_guard() {
        let p = parsed(
            "fn a(&self) { let y = { let g = self.x.lock(); g.get() }; blocked(); }",
        );
        let f = fn_named(&p, "a");
        let (_, _, rel) = acquires(f)[0];
        let call = f
            .events
            .iter()
            .find(|e| matches!(&e.kind, EventKind::Call { name, .. } if name == "blocked"))
            .unwrap();
        assert!(call.tok > rel, "guard scoped to the inner block");
    }

    #[test]
    fn closures_are_not_the_defining_fn() {
        let p = parsed(
            "fn a(&self) { spawn(move || { rx.recv(); }); let g = map(|x| x + 1); }",
        );
        let f = fn_named(&p, "a");
        assert!(
            !f.events
                .iter()
                .any(|e| matches!(&e.kind, EventKind::Block { .. })),
            "recv inside a spawn closure is not an event of `a`"
        );
    }

    #[test]
    fn blocking_join_needs_empty_args() {
        let p = parsed(
            "fn a(&self) { h.join(); }\n\
             fn b(&self) { root.join(name); parts.join(stuff); }",
        );
        assert!(fn_named(&p, "a")
            .events
            .iter()
            .any(|e| matches!(&e.kind, EventKind::Block { what } if what == "join")));
        assert!(!fn_named(&p, "b")
            .events
            .iter()
            .any(|e| matches!(&e.kind, EventKind::Block { .. })));
    }

    #[test]
    fn call_kinds_are_classified() {
        let p = parsed(
            "fn a(&self) { free(); self.me(); Other::make(); thing.method(); mac!(x); }",
        );
        let f = fn_named(&p, "a");
        let kinds: Vec<(String, CallKind)> = f
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Call { name, kind, .. } => Some((name.clone(), *kind)),
                _ => None,
            })
            .collect();
        assert!(kinds.contains(&("free".into(), CallKind::Free)));
        assert!(kinds.contains(&("me".into(), CallKind::SelfMethod)));
        assert!(kinds.contains(&("make".into(), CallKind::Qualified)));
        assert!(kinds.contains(&("method".into(), CallKind::Method)));
        assert!(!kinds.iter().any(|(n, _)| n == "mac"), "macros are not calls");
    }

    #[test]
    fn lock_ctors_bind_fields_lets_and_wrapped_forms() {
        let p = parsed(
            "mod rank { pub const A: Rank = Rank::new(10, \"s.f\");\n\
                        pub const B: Rank = Rank::new(20, \"s.shared\"); }\n\
             struct S { f: OrderedMutex<u32> }\n\
             fn mk() { let s = S { f: OrderedMutex::new(rank::A, 0) };\n\
                 let shared = Arc::new(OrderedMutex::new(rank::B, 1));\n\
                 let raw = OrderedRwLock::new(lockorder::rank::B, 2); }",
        );
        assert_eq!(
            p.rank_consts,
            [
                ("A".into(), 10, "s.f".into()),
                ("B".into(), 20, "s.shared".into())
            ]
        );
        let binders: Vec<_> = p.lock_ctors.iter().map(|c| c.binder.as_deref()).collect();
        assert_eq!(binders, [Some("f"), Some("shared"), Some("raw")]);
        let ranks: Vec<&str> = p.lock_ctors.iter().map(|c| c.rank.as_str()).collect();
        assert_eq!(ranks, ["A", "B", "B"]);
    }

    #[test]
    fn macro_rules_bodies_are_invisible() {
        let p = parsed(
            "macro_rules! gen { ($t:ty) => { impl CdrEncode for $t { fn encode(&self) {} } }; }\n\
             fn real() { used(); }",
        );
        assert_eq!(p.fns.len(), 1, "only `real` is an item");
        assert_eq!(p.fns[0].name, "real");
    }

    #[test]
    fn test_regions_split_ident_sets() {
        let p = parsed(
            "fn lib_fn() { lib_ident(); }\n\
             #[cfg(test)]\nmod tests { fn t() { test_ident(); } }",
        );
        assert!(p.lib_idents.contains("lib_ident"));
        assert!(!p.lib_idents.contains("test_ident"));
        assert!(p.test_idents.contains("test_ident"));
    }

    #[test]
    fn chan_ctors_classify_kind_and_capacity() {
        let p = parsed(
            "use crossbeam_channel::{bounded, unbounded};\n\
             const DEPTH: usize = 8;\n\
             fn a() { let (t, r) = bounded(4); }\n\
             fn b() { let (t, r) = bounded(DEPTH); }\n\
             fn c(n: usize) { let (t, r) = bounded::<u8>(n.max(1)); }\n\
             fn d() { let (t, r) = unbounded(); }\n\
             fn e() { let q = FrameInbox::new(); }\n\
             #[cfg(test)]\nmod tests { fn t() { let (x, y) = unbounded(); } }",
        );
        assert_eq!(p.int_consts, vec![("DEPTH".to_string(), 8, 2)]);
        let by_fn = |name: &str| {
            p.chan_ctors
                .iter()
                .find(|c| c.fn_name.as_deref() == Some(name))
                .unwrap()
        };
        assert_eq!(by_fn("a").kind, ChanKind::Bounded);
        assert_eq!(by_fn("a").cap, Some(CapExpr::Lit(4)));
        assert_eq!(by_fn("b").cap, Some(CapExpr::Const("DEPTH".into())));
        assert_eq!(
            by_fn("c").cap,
            Some(CapExpr::Dynamic(vec!["n".into(), "max".into()]))
        );
        assert_eq!(by_fn("d").kind, ChanKind::Unbounded);
        assert_eq!(by_fn("d").cap, None);
        assert_eq!(by_fn("e").kind, ChanKind::Inbox);
        let test_site = by_fn("t");
        assert!(test_site.in_test);
        // The braced import tokens are not construction sites.
        assert_eq!(p.chan_ctors.len(), 6);
    }

    #[test]
    fn condvar_binders_waits_and_notifies() {
        let p = parsed(
            "struct W { m: Mutex<bool>, cv: Condvar }\n\
             struct S { idle: parking_lot::Condvar }\n\
             fn mk() -> S { S { idle: parking_lot::Condvar::new() } }\n\
             fn local() { let lonely = Condvar::new(); }\n\
             impl W {\n\
               fn good(&self) { let mut g = self.m.lock(); while !*g { self.cv.wait(&mut g); } }\n\
               fn bad(&self) { let mut g = self.m.lock(); self.cv.wait_timeout(&mut g, d); }\n\
               fn wake(&self) { self.cv.notify_all(); }\n\
             }",
        );
        for b in ["cv", "idle", "lonely"] {
            assert!(p.condvar_binders.contains(b), "binder {b}");
        }
        assert!(!p.condvar_binders.contains("parking_lot"));
        let wait_in_loop: Vec<(bool, &str)> = p
            .waits
            .iter()
            .map(|w| (w.in_loop, w.method.as_str()))
            .collect();
        assert!(wait_in_loop.contains(&(true, "wait")));
        assert!(wait_in_loop.contains(&(false, "wait_timeout")));
        assert_eq!(p.waits.iter().filter(|w| w.recv == "cv").count(), 2);
        assert_eq!(p.notifies.len(), 1);
        assert_eq!(p.notifies[0].recv, "cv");
    }

    #[test]
    fn impl_for_is_not_a_loop() {
        let p = parsed(
            "struct S { cv: Condvar }\n\
             impl Runnable for S {\n\
               fn run(&self) { let mut g = lock(); self.cv.wait(&mut g); }\n\
             }",
        );
        assert_eq!(p.waits.len(), 1);
        assert!(!p.waits[0].in_loop, "impl-for body is not a loop body");
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
    fn loose_blocks_catch_closure_sites_the_event_streams_exclude() {
        let p = parsed(
            "fn pump(rx: Receiver<u8>) { let _ = rx.recv(); }\n\
             fn start(rx: Receiver<u8>) {\n\
                 std::thread::spawn(move || { while let Ok(v) = rx.recv() { use_it(v); } });\n\
             }\n\
             fn tidy(p: &Path) { let q = p.join(\"x\"); }\n\
             #[cfg(test)]\nmod tests { fn t(rx: R) { spawn(move || rx.recv()); } }",
        );
        // `pump`'s recv is in its event stream, not loose.
        let pump = fn_named(&p, "pump");
        assert!(pump
            .events
            .iter()
            .any(|e| matches!(&e.kind, EventKind::Block { what } if what == "recv")));
        let lib: Vec<_> = p.loose_blocks.iter().filter(|b| !b.in_test).collect();
        assert_eq!(lib.len(), 1, "only the closure recv is loose: {lib:?}");
        assert_eq!(lib[0].what, "recv");
        assert_eq!(lib[0].fn_name.as_deref(), Some("start"));
        assert!(p.loose_blocks.iter().any(|b| b.in_test));
    }

    #[test]
    fn timeout_variants_are_still_block_events() {
        let p = parsed(
            "fn a(rx: R, s: &A) { let _ = rx.recv_timeout(D); s.connect_timeout(addr, D); \n\
                 let _ = rx.recv_deadline(t); }",
        );
        let whats: Vec<String> = fn_named(&p, "a")
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::Block { what } => Some(what.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(whats, ["recv_timeout", "connect_timeout", "recv_deadline"]);
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
    fn variant_use_payloads_capture_attribution_idents_and_fields() {
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
        assert_eq!(re[0].fields, ["attempts", "last"]);
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
