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

# One layout, rustfmt's: `cargo fmt --all` writes what this stage checks.
# (ledger/ is a workspace of its own, which `--all` does not reach.)
cargo fmt --all --check

cargo build --release
cargo test -q --workspace
# The shims under shims/ are patched-in dependencies, not workspace
# members: --workspace runs none of their tests. crossbeam and parking_lot
# are the two with logic of their own (waiter-gated condvar notifies) that
# every channel and lock in the tree stands on.
cargo test -q -p crossbeam -p parking_lot
# Unit tests, integration tests, benches and examples meet the library's bar.
# Tests sleep and block freely, so clippy.toml's disallowed methods are
# allowed here.
cargo clippy --workspace --all-targets -- -D warnings -A clippy::disallowed_methods
# Library and binary code only (no cfg(test) code, no test, bench or example
# target, and not the bench harness crate): no unwrap or expect, no
# `thread::sleep` polling, and no raw blocking call — it goes through
# `cool_telemetry::blocking`, which takes the unlocked lock-order token, so
# blocking under a ranked lock does not compile. `clippy.toml` also denies
# every wait without a bound (a receive, a send, a condvar wait, a thread
# spawn, a TCP accept) and the id-less `OrbError::timeout`: each site that
# needs one carries `#[expect(clippy::disallowed_methods, reason = "..")]`
# naming what ends the wait or who joins the thread, and rustc reports an
# expect once it no longer fires. A lint attribute without a reason fails.
cargo clippy --workspace --exclude bench --lib --bins -- \
    -D clippy::unwrap_used -D clippy::expect_used -D clippy::disallowed_methods \
    -D clippy::allow_attributes_without_reason
# The docs build without a warning: an intra-doc link to a renamed or
# deleted item, or from a public doc to a private one, fails here.
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace --keep-going

# The benchmark (ledger/, BENCHMARK.json) is a workspace of its own that
# nothing above builds: a slip in cool-orb's public API would pass every
# gate here and break it. Its unit tests plus `ledger run --smoke`.
# Building it in place rewrites its stale Cargo.lock; the gate leaves
# ledger/ as it found it, pass or fail.
lock_copy=$(mktemp)
cp ledger/Cargo.lock "$lock_copy"
trap 'cp "$lock_copy" ledger/Cargo.lock; rm -f "$lock_copy"' EXIT
cargo test --release --offline --manifest-path ledger/Cargo.toml

# The Da CaPo lifecycle suites once more, optimized, next to the benchmark
# whose `qos_churn` workload they pin: the transport close contract, the
# reconfigure / close / set_qos latency bounds (no timer on the path), the
# swap under traffic, the stream's end of flow and the server-side reclaim.
# And the pipelining suite: that blocking servants overlap on one
# connection, and still do once an object has been run on the delivery
# thread and turned slow, is a claim about elapsed time — it has to hold
# optimized as well. Beside it, who reads a TCP connection (leader and
# followers): each of its tests guards a schedule, so it runs optimized too,
# and so does its Da CaPo twin, `dacapo_reading` (a lone caller reading
# its own reply wakes no other thread; a go-back-n caller runs the
# retransmission timer under its turn).
# So do the binding's reply rendezvous tests, unit and integration: a reply
# that lands at a caller's deadline, and every way a parked or reading
# caller is released, depend on timing. And the channel-end table: a close
# races the sends, reads and deliveries on both ends of every transport —
# and its attach race, connects on several threads against a server's
# close, which the exchange's and the server's unit tests flank. And
# `receive_threads`: connections made and closed one after another, over
# Da CaPo and over TCP, are served by a few parked receive threads, not a
# new one each, and those threads are gone once the process is idle.
# Beside the Da CaPo suites, the connection's own paths: a swap spawning
# no thread (`reconfigure_threads`), and the connection unit tests — the
# one-lock record, and a close that does not wait out another thread's
# drain.
cargo test -q --release -p dacapo --test transport_contract --test end_to_end --test reconfigure_threads
cargo test -q --release -p dacapo --lib -- connection
cargo test -q --release -p cool-orb --test dacapo_reclaim --test stream_end_of_flow --test pipelining --test tcp_reading --test dacapo_reading --test binding_unit --test channel_end --test receive_threads
cargo test -q --release -p cool-orb --lib -- dacapo_chan binding exchange server
# The heap allocations of a call, counted at the allocator, once more in
# the optimized build the ledger measures.
cargo test -q --release --test heap_budget
# Servers that vanish, restart or close under a call: a stub replacing its
# lost binding (one replacement however many callers race, the stub's QoS
# on the new transport) depends on when a close lands, so optimized too.
# So do the replica unit tests (the failure machine explored against the
# pair it replaced among them) and the replicated chaos run: the chaos test
# waits on the prober under wall-clock bounds, and the ledger's
# `replica_failover` workload measures this code optimized.
cargo test -q --release --test failure_injection
cargo test -q --release -p cool-orb --lib -- replica
cargo test -q --release -p multe --test failover_chaos

