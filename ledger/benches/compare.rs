//! `ledger compare <a> <b>`: applies the bounds of `BENCHMARK.json` to two
//! result files, or two directories of them, `a` being the parent.

use crate::json::Json;
use crate::metrics::{Better, END_TO_END, FAILED_SHARE_BOUND, PER_LAYER};
use crate::run::read_json;
use crate::stats;
use crate::workloads::WORKLOADS;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The end-to-end bounds declared in `BENCHMARK.json`.
pub fn bounds() -> Result<Vec<(String, f64)>, String> {
    let doc = read_json(&crate::run::repo_root().join("BENCHMARK.json"))?;
    let metrics = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    metrics
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without a name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without a bound")?;
            Ok((name.to_owned(), bound))
        })
        .collect()
}

/// Interquartile distance as a share of the median; `None` below two runs.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, _, q3] = stats::quartiles(values)?;
    Some((q3 - q1) / stats::median(values).abs().max(f64::MIN_POSITIVE))
}

/// Judges `b` against `a` (the parent). The medians decide; where the
/// runs of either side spread wider than the bound the pair is unresolved,
/// unless every run of `b` beats every run of `a`.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (ma, mb) = (stats::median(a), stats::median(b));
    // Positive = worse, as a share of the parent's median.
    let sign = if better == Better::Lower { 1.0 } else { -1.0 };
    let worse_by = sign * (mb - ma) / ma.abs().max(f64::MIN_POSITIVE);
    if worse_by > bound {
        return Verdict::Worse;
    }
    let wide = [a, b]
        .iter()
        .any(|runs| spread(runs).is_some_and(|s| s > bound));
    if wide {
        let clean_win = a.iter().all(|x| b.iter().all(|y| sign * (y - x) < 0.0));
        return if clean_win {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The run files behind one side: the file itself, or every `*.json` of a
/// directory, in name order.
fn load_side(path: &Path) -> Result<Vec<Json>, String> {
    if !path.is_dir() {
        return Ok(vec![read_json(path)?]);
    }
    let mut files: Vec<_> = std::fs::read_dir(path)
        .map_err(|e| format!("list {}: {e}", path.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    if files.is_empty() {
        return Err(format!("{} holds no result files", path.display()));
    }
    files.iter().map(|f| read_json(f)).collect()
}

/// One value per run of `side` for `workload`'s `metric`.
fn series(side: &[Json], workload: &str, phase: &str, metric: &str) -> Vec<f64> {
    side.iter()
        .filter_map(|run| {
            run.get("workloads")?
                .get(workload)?
                .get(phase)?
                .get("metrics")?
                .get(metric)?
                .get("value")?
                .as_f64()
        })
        .collect()
}

/// Failed ops as a share of attempted, summed over the runs of `side`.
fn failed_share(side: &[Json], workload: &str) -> f64 {
    let total = |field: &str| -> f64 {
        side.iter()
            .filter_map(|run| {
                run.get("workloads")?
                    .get(workload)?
                    .get("timed")?
                    .get(field)?
                    .as_f64()
            })
            .sum()
    };
    total("failed") / total("attempted").max(1.0)
}

/// `median [q1 .. q3] spread%`, or the lone value of a single run.
fn quartile_text(values: &[f64]) -> String {
    match (stats::quartiles(values), spread(values)) {
        (Some([q1, _, q3]), Some(s)) => {
            format!(
                "{:>12.4} [{q1:.4} .. {q3:.4}] {:.1}%",
                stats::median(values),
                s * 100.0
            )
        }
        _ => format!("{:>12.4}", stats::median(values)),
    }
}

/// Prints the comparison; `Ok(true)` when nothing is worse and no
/// workload's failed share rose.
pub fn compare(a: &Path, b: &Path) -> Result<bool, String> {
    let (side_a, side_b) = (load_side(a)?, load_side(b)?);
    let bounds = bounds()?;
    println!(
        "compare: a = {} ({} run(s)), b = {} ({} run(s))",
        a.display(),
        side_a.len(),
        b.display(),
        side_b.len()
    );
    let mut acceptable = true;
    let mut counts = [0usize; 4];
    for (workload, _) in WORKLOADS {
        println!("\n== {workload} — end to end");
        println!(
            "  {:<18} {:>7}  {:<52} {:<52} {:>8}  verdict",
            "metric",
            "bound",
            "a: median [q1 .. q3] iqr/median",
            "b: median [q1 .. q3] iqr/median",
            "change"
        );
        for (name, _unit, better) in END_TO_END {
            let (va, vb) = (
                series(&side_a, workload, "timed", name),
                series(&side_b, workload, "timed", name),
            );
            if va.is_empty() || vb.is_empty() {
                println!("  {name:<18} missing on one side");
                acceptable = false;
                continue;
            }
            let bound = bounds
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, b)| *b);
            let verdict = judge(&va, &vb, better, bound);
            counts[verdict as usize] += 1;
            acceptable &= verdict != Verdict::Worse;
            let change = (stats::median(&vb) / stats::median(&va) - 1.0) * 100.0;
            println!(
                "  {name:<18} {:>6.1}%  {:<52} {:<52} {change:>+7.2}%  {}",
                bound * 100.0,
                quartile_text(&va),
                quartile_text(&vb),
                verdict.as_str()
            );
        }
        let (fa, fb) = (
            failed_share(&side_a, workload),
            failed_share(&side_b, workload),
        );
        let rose = fb > fa + FAILED_SHARE_BOUND;
        acceptable &= !rose;
        println!(
            "  {:<18} {:>+6.4}   a {fa:.6}  b {fb:.6}  {}",
            "failed_share",
            FAILED_SHARE_BOUND,
            if rose { "worse" } else { "same" }
        );

        println!("  -- per layer (no bound)");
        for (name, unit, _) in PER_LAYER {
            let (va, vb) = (
                series(&side_a, workload, "traced", name),
                series(&side_b, workload, "traced", name),
            );
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (stats::median(&va), stats::median(&vb));
            if ma == 0.0 && mb == 0.0 {
                continue;
            }
            let change = if ma == 0.0 {
                String::from("     n/a")
            } else {
                format!("{:>+7.2}%", (mb / ma - 1.0) * 100.0)
            };
            println!("  {name:<44} {ma:>14.4} {mb:>14.4} {unit:<6} {change}");
        }
    }
    println!(
        "\nend-to-end verdicts: {} better, {} same, {} worse, {} unresolved",
        counts[Verdict::Better as usize],
        counts[Verdict::Same as usize],
        counts[Verdict::Worse as usize],
        counts[Verdict::Unresolved as usize]
    );
    Ok(acceptable)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let steady = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Lower is better: +10 % is worse at a 5 % bound, -10 % is better.
        assert_eq!(
            judge(&steady, &steady.map(|v| v * 1.10), Better::Lower, 0.05),
            Verdict::Worse
        );
        assert_eq!(
            judge(&steady, &steady.map(|v| v * 0.90), Better::Lower, 0.05),
            Verdict::Better
        );
        assert_eq!(
            judge(&steady, &steady.map(|v| v * 1.02), Better::Lower, 0.05),
            Verdict::Same
        );
        // Higher is better flips it.
        assert_eq!(
            judge(&steady, &steady.map(|v| v * 0.90), Better::Higher, 0.05),
            Verdict::Worse
        );
        assert_eq!(
            judge(&steady, &steady.map(|v| v * 1.10), Better::Higher, 0.05),
            Verdict::Better
        );
        // Runs that spread wider than the bound cannot say "same"…
        let noisy = [80.0, 120.0, 100.0, 90.0, 110.0];
        assert_eq!(
            judge(&noisy, &noisy.map(|v| v * 1.01), Better::Lower, 0.05),
            Verdict::Unresolved
        );
        // …unless every run of b beats every run of a.
        assert_eq!(
            judge(&noisy, &noisy.map(|v| v * 0.5), Better::Lower, 0.05),
            Verdict::Better
        );
        // Single runs have no spread: the medians decide.
        assert_eq!(
            judge(&[100.0], &[103.0], Better::Lower, 0.05),
            Verdict::Same
        );
        assert_eq!(
            judge(&[100.0], &[106.0], Better::Lower, 0.05),
            Verdict::Worse
        );
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&v), Some((8.25 - 2.75) / 5.5));
        assert_eq!(spread(&[1.0]), None);
    }
}
