//! Golden-file pin of `cool-report/v1`, the JSON schema shared by
//! cool-lint and cool-analyze. Downstream consumers (CI annotations,
//! dashboards) parse these reports, so the shape is part of the tools'
//! contract: any key rename, reorder or whitespace change must show up
//! here as a deliberate golden-file update, not ride through silently.

use cool_lint::allowlist::{self, MAX_ENTRIES, MAX_PER_NAMESPACE};
use cool_lint::report::{Finding, Report};
use std::path::Path;

fn sample() -> Report {
    let mut r = Report::default();
    r.findings.push(Finding::new(
        "crates/b.rs",
        12,
        "L001",
        "sleep poll",
    ));
    r.findings.push(Finding::new(
        "crates/a.rs",
        7,
        "L002",
        "don't \"unwrap\" here\nsecond line",
    ));
    r.allowlisted = 3;
    r.files_scanned = 42;
    r.finish();
    r
}

#[test]
fn json_report_matches_the_golden_file_byte_for_byte() {
    let golden = include_str!("fixtures/golden-report.json");
    assert_eq!(
        sample().render_json(),
        golden,
        "cool-report/v1 drifted; if intentional, update the golden file"
    );
}

#[test]
fn the_two_tools_emit_the_same_schema_modulo_the_tool_label() {
    let lint = sample().render_json_as("cool-lint");
    let analyze = sample().render_json_as("cool-analyze");
    assert_eq!(
        lint.replace("\"tool\": \"cool-lint\"", "\"tool\": \"cool-analyze\""),
        analyze
    );
}

#[test]
fn an_empty_report_is_clean_with_an_empty_findings_array() {
    let mut r = Report::default();
    r.files_scanned = 1;
    let json = r.render_json();
    assert!(json.contains("\"findings\": [],"), "{json}");
    assert!(json.ends_with("\"clean\": true\n}\n"), "{json}");
}

// ---- The checked-in allowlist itself --------------------------------

#[test]
fn the_checked_in_allowlist_is_healthy_and_within_its_caps() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/cool-lint sits two levels below the root")
        .join("lint-allow.txt");
    let text = std::fs::read_to_string(&path).expect("lint-allow.txt exists");
    let al = allowlist::parse("lint-allow.txt", &text);
    assert!(
        al.problems.is_empty(),
        "the checked-in allowlist must parse clean: {:?}",
        al.problems
    );
    assert!(al.entries.len() <= MAX_ENTRIES);
    for ns in ['L', 'A'] {
        let n = al.entries.iter().filter(|e| e.rule.starts_with(ns)).count();
        assert!(
            n <= MAX_PER_NAMESPACE,
            "{n} `{ns}*` entries exceed the per-namespace cap"
        );
    }
    // Every entry is in a namespace some tool polices.
    for e in &al.entries {
        assert!(
            e.rule.starts_with('L') || e.rule.starts_with('A'),
            "entry `{} {}` is in no tool's namespace",
            e.path,
            e.rule
        );
    }
}
