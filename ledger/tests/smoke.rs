//! `ledger run --smoke`: every workload, timed and traced, with 1 s windows.
//! The figures mean nothing at that length; the point is that the ledger
//! still drives every public function it depends on, so API drift in the
//! crates fails here, loudly, and not in a benchmark run nobody watches.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn smoke_run_exercises_every_workload_and_metric() {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke-run.json");
    let run = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(["run", "--smoke", "--seed", "7", "--out"])
        .arg(&out)
        .output()
        .expect("start the ledger");
    let stdout = String::from_utf8_lossy(&run.stdout);
    assert!(
        run.status.success(),
        "ledger run --smoke failed\n{stdout}\n{}",
        String::from_utf8_lossy(&run.stderr)
    );

    let result = std::fs::read_to_string(&out).expect("the result file");
    for workload in [
        "rpc_small",
        "rpc_load",
        "media_stream",
        "qos_churn",
        "replica_failover",
    ] {
        assert!(
            result.contains(&format!("\"{workload}\": {{")),
            "{workload} missing from the result file"
        );
        assert!(
            stdout.contains(&format!("== {workload} · timed run")),
            "{workload}: no timed run printed"
        );
        assert!(
            stdout.contains(&format!("== {workload} · traced run")),
            "{workload}: no traced run printed"
        );
    }
    for metric in [
        "setup_s",
        "ops_per_s",
        "lat_p50_us",
        "cool-orb.call_residual_us",
        "dacapo.threads_leaked",
    ] {
        assert!(stdout.contains(metric), "{metric} not printed");
    }
    assert!(result.contains("\"all_correct\": true"));
    assert!(
        stdout.contains("stacked budget"),
        "the rpc_small budget was not printed"
    );
    assert!(!stdout.contains("INCORRECT"));

    // A ledger compared with itself is the same everywhere.
    let compare = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .arg("compare")
        .args([&out, &out])
        .output()
        .expect("start the comparison");
    let verdicts = String::from_utf8_lossy(&compare.stdout);
    assert!(
        compare.status.success(),
        "self-comparison failed\n{verdicts}"
    );
    assert!(verdicts.contains("0 worse, 0 unresolved"), "{verdicts}");
}
