#!/usr/bin/env bash
# The pre-merge gate, locally and in CI (.github/workflows/check.yml runs
# this file). Every stage is a build, a test run or a static analysis:
# nothing here measures time. A speed question is answered by the ledger
# (`ledger compare`, see ledger/README.md), the repo's one benchmark.
set -euo pipefail
cd "$(dirname "$0")/.."

# Manifests tell the truth: no dependency edge names a crate the
# depending package never mentions. A grep; nothing to install.
./scripts/unused-deps.sh

cargo build --release
cargo test -q --workspace
# The shims under shims/ are patched-in dependencies, not workspace
# members: --workspace runs none of their tests. crossbeam and parking_lot
# are the two with logic of their own (waiter-gated condvar notifies) that
# every channel and lock in the tree stands on.
cargo test -q -p crossbeam -p parking_lot
# Unit tests, integration tests, benches and examples meet the library's bar.
cargo clippy --workspace --all-targets -- -D warnings

# The benchmark (ledger/, BENCHMARK.json) is a workspace of its own that
# nothing above builds: a slip in cool-orb's public API would pass every
# gate here and break it. Its unit tests plus `ledger run --smoke`.
cargo test --release --offline --manifest-path ledger/Cargo.toml

# The Da CaPo lifecycle suites once more, optimized, next to the benchmark
# whose `qos_churn` workload they pin: the transport close contract, the
# reconfigure / close / set_qos latency bounds (no timer on the path), the
# swap under traffic, the stream's end of flow and the server-side reclaim.
# And the pipelining suite: that blocking servants overlap on one
# connection, and still do once an object has been run on the delivery
# thread and turned slow, is a claim about elapsed time — it has to hold
# optimized as well. Beside it, who reads a TCP connection (leader and
# followers): each of its tests guards a schedule, so it runs optimized too.
cargo test -q --release -p dacapo --test transport_contract --test end_to_end
cargo test -q --release -p cool-orb --test dacapo_reclaim --test stream_end_of_flow --test pipelining --test tcp_reading
cargo test -q --release -p cool-orb --lib dacapo_chan

# The analyzer (DESIGN §7.1), one pass over every .rs file. Per-file
# invariants: poll loops, unwraps, buffer copies, unbounded invocation
# loops. Whole-workspace analysis: error-variant test coverage, lock ranks
# strictly increasing along every path, blocking under a lock, codec
# symmetry, telemetry names, channel topology against §7.4, condvar wait
# graph, spawn/join lifecycle, hang-freedom against the §8.5 drain
# registry, error attribution. The gate is the exit code: non-zero on any
# finding. SARIF is for PR annotations.
cargo run -q --release -p cool-analyze -- --sarif-out analyze-report.sarif
