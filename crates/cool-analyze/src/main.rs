//! The cool-analyze binary.
//!
//! ```text
//! cargo run -q --release -p cool-analyze [WORKSPACE_ROOT] [--sarif-out FILE]
//! ```
//!
//! Prints the findings as text. Exit codes: 0 clean, 1 findings, 2 I/O or
//! usage error. `--sarif-out` additionally writes SARIF 2.1.0 for GitHub
//! PR annotations.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: cool-analyze [WORKSPACE_ROOT] [--sarif-out FILE] [--help]";

fn main() -> ExitCode {
    let mut root_arg: Option<String> = None;
    let mut sarif_out: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--sarif-out" => match args.next() {
                Some(p) => sarif_out = Some(PathBuf::from(p)),
                None => {
                    eprintln!("cool-analyze: --sarif-out needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other if root_arg.is_none() && !other.starts_with('-') => {
                root_arg = Some(other.to_owned());
            }
            other => {
                eprintln!("cool-analyze: unknown argument `{other}`\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    }

    let root = cool_analyze::workspace_root(root_arg.as_deref());
    let report = match cool_analyze::analyze_workspace(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("cool-analyze: {e}");
            return ExitCode::from(2);
        }
    };

    print!("{}", report.render_text());

    if let Some(path) = sarif_out {
        if let Err(e) = std::fs::write(&path, report.render_sarif()) {
            eprintln!("cool-analyze: write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
