//! cool-analyze: the MULTE workspace's static analyzer — the project
//! invariants `rustc` and `clippy` cannot see, checked in one pass.
//!
//! The binary (`cargo run -p cool-analyze`) reads and lexes every `.rs`
//! file once. In that loop the per-file token rule (unbounded retry
//! loops) runs on the token stream while the parser lifts it into a fact
//! base (functions, call sites, lock acquisitions with their rank
//! constants, metric-name constants); the whole-workspace rules then run
//! over the facts and an intra-crate call graph with transitive effect
//! summaries. [`rules`] has the table. Findings print as
//! `file:line RULE message`; `--sarif-out` also writes them as SARIF for
//! PR annotations. The exit code is the gate: 0 clean, 1 findings, 2 usage
//! or I/O error. The one way to exempt a line is an inline
//! `// lint: allow(RULE, reason)`, and one that exempts nothing is itself
//! a finding. See DESIGN.md §7.1.
//!
//! The crate has zero dependencies — it must stay buildable before
//! anything else in the workspace (including the vendored shims it
//! deliberately does not analyze) so the gate itself can never be broken
//! by the code it checks.

#![forbid(unsafe_code)]

pub mod callgraph;
pub mod facts;
pub mod lexer;
pub mod parse;
pub mod report;
pub mod rules;
pub mod source;

pub use report::{Finding, Report};

use std::fs;
use std::path::{Path, PathBuf};

/// The rule id of an inline allow that names no rule in [`rules::RULES`]
/// or suppresses no finding. Like an unfulfilled `#[expect]` in rustc, it
/// cannot itself be allowed: the fix is to delete the annotation.
pub const STALE_ALLOW: &str = "ALLOW";

/// Directories never descended into. `shims/` holds vendored stand-ins
/// for crates.io dependencies — third-party API surface, not our code —
/// and fixture trees contain deliberate violations for the self-tests.
const SKIP_DIRS: &[&str] = &["target", ".git", "shims", "fixtures", ".claude"];

/// Recursively collects the `.rs` files under `root`, skipping
/// [`SKIP_DIRS`]. Paths come back sorted for deterministic reports.
fn collect_files(root: &Path) -> Result<Vec<PathBuf>, String> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let entries =
            fs::read_dir(&dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        for entry in entries {
            let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Analyzes the workspace rooted at `root`: read, lex and parse every
/// `.rs` file once (the per-file token rule runs in that loop), build the
/// call graph, run the whole-workspace rules, then drop every finding an
/// inline annotation exempts and report every annotation that exempted
/// nothing.
pub fn analyze_workspace(root: &Path) -> Result<Report, String> {
    let mut report = Report::default();

    let mut parsed = Vec::new();
    for path in collect_files(root)? {
        let rel_path = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src =
            fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
        let scan = lexer::scan(&src);
        let file = parse::parse_file(&rel_path, &scan);
        report.findings.extend(rules::tokens::check(&file, &scan));
        parsed.push(file);
    }
    report.files_scanned = parsed.len();

    let design = fs::read_to_string(root.join("DESIGN.md")).ok();
    let ws = facts::Workspace::build(parsed);
    let graph = callgraph::Graph::build(&ws);
    report.findings.extend(rules::run_all(&rules::Ctx {
        ws: &ws,
        graph: &graph,
        design: design.as_deref(),
    }));

    // The one place an inline `// lint: allow(RULE, reason)` meets a
    // finding, whichever rule raised it: the annotation covers its own
    // line, any stacked allow lines below it, and the first non-allow line
    // after the stack. Findings in DESIGN.md have no line to annotate.
    let mut used: Vec<Vec<bool>> = ws.files.iter().map(|p| vec![false; p.allows.len()]).collect();
    report.findings.retain(|f| {
        let Some(fi) = ws.files.iter().position(|p| p.rel == f.file) else {
            return true;
        };
        let mut allowed = false;
        for (ai, a) in ws.files[fi].allows.iter().enumerate() {
            if a.rule == f.rule && a.covers(f.line) {
                used[fi][ai] = true;
                allowed = true;
            }
        }
        !allowed
    });
    for (file, used) in ws.files.iter().zip(&used) {
        for (a, _) in file.allows.iter().zip(used).filter(|(_, &u)| !u) {
            let why = if rules::RULES.contains(&a.rule.as_str()) {
                "suppresses no finding"
            } else {
                "names no rule the analyzer has"
            };
            report.findings.push(Finding::new(
                &file.rel,
                a.line,
                STALE_ALLOW,
                &format!(
                    "`lint: allow({}, ..)` {why}; delete it (a reason worth keeping \
                     becomes a plain comment)",
                    a.rule
                ),
            ));
        }
    }

    report.finish();
    Ok(report)
}

/// Locates the workspace root: explicit argument, else two levels up from
/// this crate's manifest (`crates/cool-analyze` -> workspace root).
pub fn workspace_root(arg: Option<&str>) -> PathBuf {
    match arg {
        Some(p) => PathBuf::from(p),
        None => {
            let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
            manifest
                .parent()
                .and_then(Path::parent)
                .unwrap_or(manifest)
                .to_path_buf()
        }
    }
}
