//! Self-tests for every analyzer rule, driven by the fixture trees in
//! `tests/fixtures/` (each one a miniature workspace). Each rule gets
//! positive cases (the violation is flagged, at the right line), negative
//! cases (the legal pattern — including the exact shapes the analyzer
//! pushed into the real workspace, like take-then-join — stays clean) and
//! an annotated-allow case; one table-driven test then holds every rule in
//! `RULES` to the same three promises. The last test asserts the real
//! workspace analyzes clean, which is what `scripts/check.sh` enforces.

use cool_analyze::analyze_workspace;
use std::path::{Path, PathBuf};

fn fixture_root(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// (rule, file, line, message) for every finding in the tree at `root`.
fn findings_in(root: &Path) -> Vec<(String, String, u32, String)> {
    let report = analyze_workspace(root).expect("fixture analyzes");
    report
        .findings
        .iter()
        .map(|f| (f.rule.to_string(), f.file.clone(), f.line, f.message.clone()))
        .collect()
}

fn findings(name: &str) -> Vec<(String, String, u32, String)> {
    findings_in(&fixture_root(name))
}

fn rule_lines(found: &[(String, String, u32, String)], rule: &str) -> Vec<u32> {
    found
        .iter()
        .filter(|(r, _, _, _)| r == rule)
        .map(|(_, _, l, _)| *l)
        .collect()
}

// ---- Every rule fires, is suppressed by a reasoned allow, and by nothing less

/// The fixture tree that exercises each rule. Every tree holds at least
/// one violation and one site annotated `// lint: allow(RULE, reason)`.
const FIXTURE_OF: &[(&str, &str)] = &[
    ("L001", "l001"),
    ("L002", "l002"),
    ("L005", "l005"),
    ("L006", "l006"),
    ("L007", "l007"),
    ("A001", "inversion"),
    ("A002", "blocking"),
    ("A003", "oneway"),
    ("A004", "metrics"),
    ("A005", "chantopo"),
    ("A006", "condvar"),
    ("A007", "spawnjoin"),
    ("A008", "hangfree"),
    ("A010", "attribution"),
];

/// Copies the tree at `from` to `to`, cutting the reason out of every
/// `lint: allow(<rule>, reason)` so that only the bare `allow(<rule>)` is
/// left. Line numbers are preserved.
fn copy_without_reasons(from: &Path, to: &Path, rule: &str) {
    std::fs::create_dir_all(to).expect("create copy dir");
    let annotated = format!("lint: allow({rule},");
    for entry in std::fs::read_dir(from).expect("read fixture dir") {
        let path = entry.expect("fixture dir entry").path();
        let dest = to.join(path.file_name().expect("entry has a name"));
        if path.is_dir() {
            copy_without_reasons(&path, &dest, rule);
            continue;
        }
        let text = std::fs::read_to_string(&path).expect("fixture is text");
        let bare: Vec<String> = text
            .lines()
            .map(|line| match line.find(&annotated) {
                Some(at) => format!("{}lint: allow({rule})", &line[..at]),
                None => line.to_owned(),
            })
            .collect();
        std::fs::write(&dest, bare.join("\n")).expect("write copy");
    }
}

#[test]
fn every_rule_fires_and_only_a_reasoned_allow_suppresses_it() {
    let listed: Vec<&str> = FIXTURE_OF.iter().map(|&(rule, _)| rule).collect();
    assert_eq!(listed, cool_analyze::rules::RULES, "one fixture per rule in RULES");
    for &(rule, fixture) in FIXTURE_OF {
        let with_reasons = rule_lines(&findings(fixture), rule);
        assert!(!with_reasons.is_empty(), "{rule} fires on `{fixture}`");

        let copy = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("bare-{rule}"));
        let _ = std::fs::remove_dir_all(&copy);
        copy_without_reasons(&fixture_root(fixture), &copy, rule);
        let bare = rule_lines(&findings_in(&copy), rule);
        assert!(
            bare.len() > with_reasons.len() && with_reasons.iter().all(|l| bare.contains(l)),
            "{rule}: the annotated site in `{fixture}` is suppressed by its reasoned allow \
             ({with_reasons:?}) and fires once the reason is gone ({bare:?})"
        );
    }
}

// ---- L001: sleep-based polling --------------------------------------

#[test]
fn l001_flags_the_poll_loop_and_only_it() {
    assert_eq!(
        rule_lines(&findings("l001"), "L001"),
        vec![5],
        "exactly the un-annotated sleep is flagged; the annotated sleep, \
         the condvar wait and the #[cfg(test)] sleep are not"
    );
}

// ---- L002: unwrap/expect in library code ----------------------------

#[test]
fn l002_flags_unwrap_and_expect_only() {
    assert_eq!(
        rule_lines(&findings("l002"), "L002"),
        vec![4, 8],
        "unwrap_or_* variants, strings, the annotated site and the test \
         module stay clean"
    );
}

// ---- L005: every error variant exercised by tests -------------------

#[test]
fn l005_flags_exactly_the_orphan_variant() {
    let found = findings("l005");
    assert_eq!(found.len(), 1, "Covered and WithFields are used by tests/uses.rs: {found:?}");
    let (rule, file, line, msg) = &found[0];
    assert_eq!((rule.as_str(), file.as_str(), *line), ("L005", "crates/cool-orb/src/error.rs", 9));
    assert!(
        msg.contains("Orphan"),
        "the variant only library code names is the orphan: {msg}"
    );
}

// ---- L006: unbounded invocation retry loops -------------------------

#[test]
fn l006_flags_exactly_the_unbounded_retry_loops() {
    let found = findings("l006");
    assert_eq!(
        rule_lines(&found, "L006"),
        vec![4, 14],
        "bare `loop`/`while` retries flagged; RetryPolicy-governed, \
         non-invocation, annotated and #[cfg(test)] loops stay clean: {found:?}"
    );
}

// ---- L007: buffer copies on the zero-copy path ----------------------

#[test]
fn l007_flags_the_copies_and_only_them() {
    let found = findings("l007");
    assert_eq!(
        rule_lines(&found, "L007"),
        vec![4, 8],
        "frame.to_vec() and pkt.clone() flagged; the annotated retransmit \
         copy, non-buffer receivers, Bytes views and the #[cfg(test)] copy \
         stay clean: {found:?}"
    );
}

// ---- A001: static lock-rank verification ----------------------------

#[test]
fn a001_flags_direct_interprocedural_and_same_rank_inversions() {
    let found = findings("inversion");
    let lines = rule_lines(&found, "A001");
    assert!(
        lines.contains(&32),
        "direct inversion (outer under inner) flagged: {found:?}"
    );
    assert!(
        lines.contains(&44),
        "interprocedural inversion (via grab_outer) flagged: {found:?}"
    );
    assert!(
        lines.contains(&51),
        "same-rank reacquisition flagged: {found:?}"
    );
    assert_eq!(lines.len(), 3, "legal/sequential/test code stays clean: {found:?}");
    assert!(
        found.iter().all(|(r, _, _, _)| r == "A001"),
        "no other rule fires on this fixture: {found:?}"
    );
    let (_, _, _, msg) = found
        .iter()
        .find(|(_, _, l, _)| *l == 44)
        .expect("line 44 finding");
    assert!(
        msg.contains("grab_outer") && msg.contains("app.inner"),
        "the interprocedural message names the callee and the held lock: {msg}"
    );
}

// ---- A002: blocking while holding a lock ----------------------------

#[test]
fn a002_flags_blocking_under_guards_and_spares_the_fixed_patterns() {
    let found = findings("blocking");
    let lines = rule_lines(&found, "A002");
    assert!(lines.contains(&22), "recv under a let-bound guard: {found:?}");
    assert!(
        lines.contains(&30),
        "join under an if-let scrutinee guard: {found:?}"
    );
    assert!(lines.contains(&41), "blocking one call down: {found:?}");
    assert_eq!(
        lines.len(),
        3,
        "take-then-join, drop-then-recv and the inline-allowed site stay \
         clean: {found:?}"
    );
}

// ---- A003: codec symmetry -------------------------------------------

#[test]
fn a003_flags_oneway_codecs_roundtrip_gaps_and_qos_coverage() {
    let found = findings("oneway");
    let msgs: Vec<&str> = found
        .iter()
        .filter(|(r, _, _, _)| r == "A003")
        .map(|(_, _, _, m)| m.as_str())
        .collect();
    assert!(
        msgs.iter()
            .any(|m| m.contains("`OneWay`") && m.contains("no CdrDecode")),
        "encode-only type flagged: {msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("`Untested`") && m.contains("round-trip gap")),
        "symmetric-but-untested type flagged: {msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("`encode_frame`") && m.contains("`decode_frame`")),
        "unpaired free fn flagged: {msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("qos_params") && m.contains("Big")),
        "missing byte-order qos coverage flagged: {msgs:?}"
    );
    assert_eq!(
        msgs.len(),
        4,
        "Good, the Encoder/Decoder sibling pair and encode_blob/decode_blob \
         stay clean: {msgs:?}"
    );
}

// ---- A004: telemetry name discipline --------------------------------

#[test]
fn a004_flags_orphan_and_undocumented_metric_names() {
    let found = findings("metrics");
    let msgs: Vec<&str> = found
        .iter()
        .filter(|(r, _, _, _)| r == "A004")
        .map(|(_, _, _, m)| m.as_str())
        .collect();
    assert!(
        msgs.iter()
            .any(|m| m.contains("ORPHAN_TOTAL") && m.contains("never emitted")),
        "orphan constant flagged: {msgs:?}"
    );
    assert!(
        msgs.iter()
            .any(|m| m.contains("undocumented_total") && m.contains("§6")),
        "undocumented name flagged: {msgs:?}"
    );
    assert_eq!(msgs.len(), 2, "used_total stays clean: {msgs:?}");
}

// ---- A005: channel topology -----------------------------------------

#[test]
fn a005_flags_unbounded_drift_missing_phantom_policy_and_cycles() {
    let found = findings("chantopo");
    assert!(
        found.iter().all(|(r, _, _, _)| r == "A005"),
        "no other rule fires on this fixture: {found:?}"
    );
    let find = |file: &str, line: u32| -> &str {
        &found
            .iter()
            .find(|(_, f, l, _)| f == file && *l == line)
            .unwrap_or_else(|| panic!("no finding at {file}:{line}: {found:?}"))
            .3
    };
    // Site side.
    assert!(
        find("crates/cool-orb/src/lib.rs", 16).contains("drifted")
            && find("crates/cool-orb/src/lib.rs", 16).contains("bounded(DEPTH = 9)"),
        "mutating a capacity constant without a table update is drift"
    );
    assert!(find("crates/cool-orb/src/lib.rs", 21).contains("unbounded channel"));
    assert!(find("crates/cool-orb/src/lib.rs", 47).contains("missing from the DESIGN.md"));
    // Table side.
    assert!(find("DESIGN.md", 10).contains("no construction site"));
    assert!(find("DESIGN.md", 12).contains("matches no construction site"));
    assert!(find("DESIGN.md", 13).contains("unknown full-policy `maybe`"));
    assert!(
        find("DESIGN.md", 14).contains("channel cycle")
            && find("DESIGN.md", 14).contains("ring_a -> lib.rs::ring_b"),
        "all-block ring reported with its path"
    );
    assert_eq!(
        found.len(),
        7,
        "make_good, make_allowed and the test-mod queue stay clean: {found:?}"
    );
}

// ---- A006: condvar wait-graph ---------------------------------------

#[test]
fn a006_flags_missing_notify_bare_wait_and_foreign_lock() {
    let found = findings("condvar");
    let a006: Vec<(u32, &str)> = found
        .iter()
        .filter(|(r, _, _, _)| r == "A006")
        .map(|(_, _, l, m)| (*l, m.as_str()))
        .collect();
    assert!(
        a006.iter().any(|(l, m)| *l == 44 && m.contains("no notify_one/notify_all")),
        "un-notified condvar flagged: {a006:?}"
    );
    assert!(
        a006.iter().any(|(l, m)| *l == 51 && m.contains("predicate loop")),
        "bare wait flagged: {a006:?}"
    );
    assert!(
        a006.iter()
            .any(|(l, m)| *l == 63 && m.contains("holding ordered lock `app.foreign`")),
        "wait under a foreign ordered lock flagged: {a006:?}"
    );
    assert_eq!(
        a006.len(),
        3,
        "the predicate-loop wait, wait_while, the allowed site and test code \
         stay clean: {a006:?}"
    );
    // The foreign-lock wait is also blocking-under-lock; the two rules
    // agree on the site.
    assert!(
        found.iter().any(|(r, _, l, _)| r == "A002" && *l == 63),
        "A002 sees the same site: {found:?}"
    );
}

// ---- A007: spawn/join lifecycle -------------------------------------

#[test]
fn a007_flags_only_the_detached_spawn() {
    let found = findings("spawnjoin");
    assert_eq!(
        found.len(),
        1,
        "close-join, sig-handle, same-fn join, graph-reachable join, the \
         allowed site and test code all stay clean: {found:?}"
    );
    let (rule, file, line, msg) = &found[0];
    assert_eq!(rule, "A007");
    assert_eq!(file, "crates/app/src/violate.rs");
    assert_eq!(*line, 7);
    assert!(msg.contains("never joined on a shutdown path"), "{msg}");
}

// ---- A008: bounded blocking (hang-freedom) --------------------------

#[test]
fn a008_flags_unbounded_blocking_and_honors_every_exemption() {
    let found = findings("hangfree");
    let a008: Vec<(&str, u32, &str)> = found
        .iter()
        .filter(|(r, _, _, _)| r == "A008")
        .map(|(_, f, l, m)| (f.as_str(), *l, m.as_str()))
        .collect();
    assert!(
        a008.iter().any(|(f, l, m)| *f == "crates/cool-orb/src/lib.rs"
            && *l == 8
            && m.contains("lib.rs::serve")),
        "bare recv flagged: {a008:?}"
    );
    assert!(
        a008.iter().any(|(f, l, m)| *f == "crates/cool-orb/src/lib.rs"
            && *l == 32
            && m.contains("lib.rs::spawn_worker")),
        "closure-body recv attributed to the enclosing fn: {a008:?}"
    );
    assert!(
        a008.iter()
            .any(|(f, l, _)| *f == "crates/cool-orb/src/lib.rs" && *l == 49),
        "connect resolving to an unbounded chain flagged: {a008:?}"
    );
    assert!(
        a008.iter()
            .any(|(f, l, _)| *f == "crates/cool-orb/src/lib.rs" && *l == 54),
        "the cyclic connector itself flagged: {a008:?}"
    );
    assert!(
        a008.iter()
            .any(|(f, l, m)| *f == "DESIGN.md" && *l == 9 && m.contains("long_gone")),
        "stale drain-registry entry flagged: {a008:?}"
    );
    assert_eq!(
        a008.len(),
        5,
        "recv_timeout, the registered pump_loop, the shutdown join, the \
         bounded dial chain, the allowed site and test code stay clean: \
         {a008:?}"
    );
}

// ---- A010: error attribution ----------------------------------------

#[test]
fn a010_flags_unattributed_errors_and_spares_helpers_and_patterns() {
    let found = findings("attribution");
    let a010: Vec<(&str, u32, &str)> = found
        .iter()
        .filter(|(r, _, _, _)| r == "A010")
        .map(|(_, f, l, m)| (f.as_str(), *l, m.as_str()))
        .collect();
    let has = |pred: &dyn Fn(&(&str, u32, &str)) -> bool| a010.iter().any(pred);
    assert!(
        has(&|(f, l, m)| *f == "crates/cool-orb/src/lib.rs"
            && *l == 6
            && m.contains("drops the request id")),
        "id-less timeout helper flagged: {a010:?}"
    );
    assert!(
        has(&|(f, l, m)| *f == "crates/cool-orb/src/lib.rs"
            && *l == 18
            && m.contains("bypasses the attribution helpers")),
        "literal Timeout flagged: {a010:?}"
    );
    assert!(
        has(&|(f, l, m)| *f == "crates/cool-orb/src/lib.rs"
            && *l == 31
            && m.contains("`attempts` and `last`")),
        "RetriesExhausted without its cause flagged: {a010:?}"
    );
    assert!(
        has(&|(f, l, m)| *f == "crates/cool-orb/src/replica.rs"
            && *l == 6
            && m.contains("no replica identity")),
        "static failover Transport flagged: {a010:?}"
    );
    assert!(
        has(&|(f, l, m)| *f == "crates/cool-orb/src/replica.rs"
            && *l == 11
            && m.contains("no replica identity")),
        "String::from static payload flagged: {a010:?}"
    );
    assert_eq!(
        a010.len(),
        5,
        "request_timeout, the allowed preamble, the format! payload, \
         error.rs, patterns and test code stay clean: {a010:?}"
    );
}

// ---- The gate and SARIF over a findings-bearing tree ----------------

#[test]
fn a_synthetic_unbounded_recv_fails_the_gate_and_lands_in_sarif() {
    // The hangfree fixture's `serve` is the synthetic copy of the
    // invocation path: a bare `recv()` a PR might introduce. The report
    // must come back unclean — the binary's exit code 1 — and the SARIF
    // document must carry the annotation for the PR view.
    let report = analyze_workspace(&fixture_root("hangfree")).expect("fixture analyzes");
    assert!(!report.is_clean(), "a finding must fail the gate");
    assert!(
        report
            .findings
            .iter()
            .any(|f| f.rule == "A008" && f.file == "crates/cool-orb/src/lib.rs" && f.line == 8),
        "the synthetic recv is reported: {:?}",
        report.findings
    );
    let sarif = report.render_sarif();
    assert!(
        sarif.contains("\"ruleId\": \"A008\"")
            && sarif.contains("\"uri\": \"crates/cool-orb/src/lib.rs\"")
            && sarif.contains("\"startLine\": 8"),
        "the finding annotates in SARIF: {sarif}"
    );
}

// ---- The workspace itself -------------------------------------------

#[test]
fn the_real_workspace_analyzes_clean() {
    let root = cool_analyze::workspace_root(None);
    let report = analyze_workspace(&root).expect("workspace analyzes");
    assert!(
        report.is_clean(),
        "the workspace must analyze clean:\n{}",
        report.render_text()
    );
    // All fourteen rules actually ran to produce that clean bill — a rule
    // silently dropped from the registry would otherwise make this test
    // pass vacuously.
    assert_eq!(
        cool_analyze::rules::RULES,
        [
            "L001", "L002", "L005", "L006", "L007", "A001", "A002", "A003", "A004", "A005",
            "A006", "A007", "A008", "A010"
        ],
        "the rule registry lists every rule"
    );
    assert!(
        report.files_scanned > 100,
        "sanity: the whole workspace was scanned, not a subtree \
         ({} files)",
        report.files_scanned
    );
}
