//! What the ledger reads from the operating system: the process's CPU time,
//! peak memory and thread count (Linux `/proc`), and the host fingerprint
//! recorded with every result file.

use crate::json::Json;
use std::process::Command;
use std::time::Duration;

/// Linux reports process times in `USER_HZ` ticks, fixed at 100.
const TICKS_PER_SEC: u64 = 100;

fn proc_status_field(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..].split_whitespace().next()?.parse().ok()
}

/// User + system CPU time of this process so far, threads that already
/// ended included. Zero where `/proc` is missing.
pub fn cpu_time() -> Duration {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return Duration::ZERO;
    };
    // The command name (field 2) may hold spaces; fields resume after ')'.
    let rest = stat.rsplit_once(')').map_or("", |(_, r)| r);
    let mut fields = rest.split_whitespace();
    let utime: u64 = fields.nth(11).and_then(|f| f.parse().ok()).unwrap_or(0);
    let stime: u64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0);
    Duration::from_millis((utime + stime) * 1000 / TICKS_PER_SEC)
}

/// Resident set size (`VmRSS`) right now, in MiB.
pub fn rss_mib() -> f64 {
    proc_status_field("VmRSS:").unwrap_or(0) as f64 / 1024.0
}

/// Threads alive in this process right now.
pub fn thread_count() -> u64 {
    proc_status_field("Threads:").unwrap_or(0)
}

/// The CPUs this process may run on (`Cpus_allowed_list`, as in `0-1,4`),
/// ascending. Empty where `/proc` does not say.
pub fn allowed_cpus() -> Vec<u32> {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return Vec::new();
    };
    let field = "Cpus_allowed_list:";
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .unwrap_or("");
    parse_cpu_list(list.trim())
}

fn parse_cpu_list(list: &str) -> Vec<u32> {
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        let (first, last) = part.split_once('-').unwrap_or((part, part));
        match (first.trim().parse::<u32>(), last.trim().parse::<u32>()) {
            (Ok(first), Ok(last)) if first <= last && last - first < 4096 => {
                cpus.extend(first..=last)
            }
            _ => return Vec::new(),
        }
    }
    cpus
}

/// Ticks each CPU has spent on anything but idling so far (`/proc/stat`:
/// every column of a `cpuN` line but `idle` and `iowait`).
fn busy_ticks() -> Vec<(u32, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines().filter_map(busy_ticks_of_line).collect()
}

fn busy_ticks_of_line(line: &str) -> Option<(u32, u64)> {
    let mut fields = line.split_whitespace();
    let cpu = fields.next()?.strip_prefix("cpu")?.parse().ok()?;
    let busy = fields
        .enumerate()
        .filter(|(column, _)| *column != 3 && *column != 4)
        .filter_map(|(_, ticks)| ticks.parse::<u64>().ok())
        .sum();
    Some((cpu, busy))
}

/// The CPU among `allowed` that did least over the next [`IDLE_WATCH`]; the
/// highest of them when several did the same (on an idle machine: all).
fn idlest_cpu(allowed: &[u32]) -> Option<u32> {
    let before = busy_ticks();
    std::thread::sleep(IDLE_WATCH);
    let after = busy_ticks();
    let did = |cpu: u32| {
        let at = |readings: &[(u32, u64)]| readings.iter().find(|(c, _)| *c == cpu).map(|r| r.1);
        match (at(&before), at(&after)) {
            (Some(before), Some(after)) => after.saturating_sub(before),
            _ => 0,
        }
    };
    allowed.iter().rev().copied().min_by_key(|cpu| did(*cpu))
}

/// How long [`idlest_cpu`] watches: ten scheduler ticks.
const IDLE_WATCH: Duration = Duration::from_millis(100);

/// Runs this same command line again on one CPU (the one this process may
/// use that is doing least just now, under `taskset`) and returns the exit
/// code it ended with.
/// `None` when this process is on one CPU already, or when it cannot be
/// arranged — no `taskset`, no `/proc` — in which case the caller carries
/// on where it is.
///
/// Why one: on a virtual machine a wake that crosses CPUs costs a VM exit
/// and a reschedule by the host, 20-50 us where bare metal pays 2, and how
/// long exactly comes and goes with the host's other tenants. Every workload
/// here is a closed loop of thread handoffs, so on two vCPUs it measures
/// mostly that. See README.md, "One CPU". Why the idlest: pinned, the
/// scheduler can no longer move this process away from whatever else runs
/// on its CPU, a second benchmark pinned by the same rule included.
pub fn rerun_on_one_cpu() -> Option<u8> {
    let cpus = allowed_cpus();
    if cpus.len() < 2 {
        return None;
    }
    let exe = std::env::current_exe().ok()?;
    let status = Command::new("taskset")
        .args(["-c", &idlest_cpu(&cpus)?.to_string()])
        .arg(exe)
        .args(std::env::args_os().skip(1))
        .status()
        .ok()?;
    // Killed by a signal: no code.
    Some(status.code().map_or(1, |code| code.clamp(0, 255) as u8))
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// Git revision, core count, kernel and compiler — what a number needs
/// beside it to mean anything later.
pub fn fingerprint() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        (
            "git_rev",
            Json::str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("nproc", Json::Num(nproc as f64)),
        ("kernel", Json::str(command_line("uname", &["-sr"]))),
        ("rustc", Json::str(command_line("rustc", &["--version"]))),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1"), [0, 1]);
        assert_eq!(parse_cpu_list("0,2-4,7"), [0, 2, 3, 4, 7]);
        assert_eq!(parse_cpu_list("3"), [3]);
        assert!(parse_cpu_list("").is_empty());
        assert!(parse_cpu_list("1-x").is_empty());
        assert!(parse_cpu_list("4-2").is_empty());
        assert!(!allowed_cpus().is_empty());
    }

    #[test]
    fn busy_ticks_leave_out_idle_and_iowait() {
        let line = "cpu1 100 2 30 9999 8888 0 5 7 0 0";
        assert_eq!(busy_ticks_of_line(line), Some((1, 100 + 2 + 30 + 5 + 7)));
        // The all-CPUs line and everything that is not a CPU are skipped.
        assert_eq!(busy_ticks_of_line("cpu  1 2 3 4 5 6 7 8 9 10"), None);
        assert_eq!(busy_ticks_of_line("ctxt 12345"), None);
        let cpus = allowed_cpus();
        assert!(cpus.contains(&idlest_cpu(&cpus).expect("one of them")));
    }

    #[test]
    fn proc_readings_are_live_on_linux() {
        assert!(thread_count() >= 1);
        assert!(rss_mib() > 0.0);
        let before = cpu_time();
        let mut x = 0u64;
        let start = std::time::Instant::now();
        while start.elapsed() < Duration::from_millis(60) {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_time() > before);
    }
}
