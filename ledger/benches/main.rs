//! The perf ledger — this repository's one benchmark. See `README.md`.
//!
//! ```text
//! ledger run [--seed N] [--smoke] [--out FILE]                every workload, timed + traced
//! ledger compare <a> <b>                                       apply BENCHMARK.json's bounds
//! ledger bench --workload W --seed N --seconds S --trace 0|1   one run (what BENCHMARK.json's command calls)
//! ```

#![forbid(unsafe_code)]

mod compare;
mod harness;
mod host;
mod json;
mod metrics;
mod payload;
mod probes;
mod rng;
mod run;
mod stats;
mod trace;
mod workloads;
mod yard;

use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage:
  ledger run [--seed N] [--smoke] [--out FILE]
  ledger compare <a.json|dir> <b.json|dir>
  ledger bench --workload W --seed N --seconds S --trace 0|1 [--detail FILE]";

/// `--flag value` pairs and bare flags after the subcommand.
struct Flags(Vec<String>);

impl Flags {
    fn take(&mut self, flag: &str) -> Result<Option<String>, String> {
        let Some(at) = self.0.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if at + 1 >= self.0.len() {
            return Err(format!("{flag} needs a value"));
        }
        self.0.remove(at);
        Ok(Some(self.0.remove(at)))
    }

    fn take_parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        match self.take(flag)? {
            Some(text) => text
                .parse()
                .map(Some)
                .map_err(|_| format!("{flag}: cannot read {text:?}")),
            None => Ok(None),
        }
    }

    fn take_switch(&mut self, flag: &str) -> bool {
        match self.0.iter().position(|a| a == flag) {
            Some(at) => {
                self.0.remove(at);
                true
            }
            None => false,
        }
    }

    fn finish(self) -> Result<Vec<String>, String> {
        match self.0.iter().find(|a| a.starts_with("--")) {
            Some(unknown) => Err(format!("unknown option {unknown}")),
            None => Ok(self.0),
        }
    }
}

fn seconds_in_range(seconds: f64) -> Result<f64, String> {
    if seconds.is_finite() && (0.05..=600.0).contains(&seconds) {
        Ok(seconds)
    } else {
        Err(format!("--seconds {seconds} is outside 0.05..=600"))
    }
}

/// The exit code: 0, or 1 when a run was incorrect or a comparison worse.
fn real_main() -> Result<u8, String> {
    let mut argv = std::env::args().skip(1);
    let command = argv.next().ok_or(USAGE)?;
    let mut flags = Flags(argv.collect());
    match command.as_str() {
        "bench" => {
            if let Some(code) = host::rerun_on_one_cpu() {
                return Ok(code);
            }
            let args = run::BenchArgs {
                workload: flags.take("--workload")?.ok_or("bench needs --workload")?,
                seed: flags.take_parsed("--seed")?.ok_or("bench needs --seed")?,
                seconds: seconds_in_range(
                    flags
                        .take_parsed("--seconds")?
                        .ok_or("bench needs --seconds")?,
                )?,
                traced: match flags.take("--trace")?.as_deref() {
                    Some("0") | None => false,
                    Some("1") => true,
                    Some(other) => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                },
            };
            let detail: Option<PathBuf> = flags.take("--detail")?.map(PathBuf::from);
            flags.finish()?;
            let report = run::bench(&args)?;
            if let Some(path) = detail {
                run::write_json(&path, &report.detail(&args))?;
            }
            println!("{}", report.contract_line());
            Ok(u8::from(!report.correct))
        }
        "run" => {
            let args = run::RunArgs {
                smoke: flags.take_switch("--smoke"),
                seed: flags.take_parsed("--seed")?.unwrap_or(1),
                out: flags.take("--out")?.map(PathBuf::from),
            };
            flags.finish()?;
            run::run_all(&args).map(|all_correct| u8::from(!all_correct))
        }
        "compare" => match flags.finish()?.as_slice() {
            [a, b] => compare::compare(a.as_ref(), b.as_ref()).map(|fine| u8::from(!fine)),
            _ => Err(USAGE.to_owned()),
        },
        _ => Err(USAGE.to_owned()),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => ExitCode::from(code),
        Err(why) => {
            eprintln!("ledger: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flags_parse_pairs_switches_and_reject_unknowns() {
        let mut f = Flags(
            ["--seed", "7", "--smoke", "a", "b"]
                .map(String::from)
                .to_vec(),
        );
        assert_eq!(f.take_parsed::<u64>("--seed"), Ok(Some(7)));
        assert!(f.take_switch("--smoke") && !f.take_switch("--smoke"));
        assert_eq!(f.take("--out"), Ok(None));
        assert_eq!(f.finish(), Ok(vec!["a".to_owned(), "b".to_owned()]));
        let mut f = Flags(["--seed"].map(String::from).to_vec());
        assert!(f.take("--seed").is_err());
        assert!(Flags(vec!["--bogus".to_owned()]).finish().is_err());
        assert!(Flags(vec!["--seed".into(), "x".into()])
            .take_parsed::<u64>("--seed")
            .is_err());
        assert!(seconds_in_range(0.0).is_err() && seconds_in_range(f64::NAN).is_err());
    }
}
