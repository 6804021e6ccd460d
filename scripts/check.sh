#!/usr/bin/env bash
# Full pre-merge gate: release build, tests, and lint-clean clippy.
set -euo pipefail
cd "$(dirname "$0")/.."

# Manifests tell the truth: no dependency edge names a crate the
# depending package never mentions. A grep; nothing to install.
./scripts/unused-deps.sh

cargo build --release
cargo test -q --workspace
cargo clippy --workspace -- -D warnings

# The benchmark (ledger/, BENCHMARK.json) is a workspace of its own that
# nothing above builds: a slip in cool-orb's public API would pass every
# gate here and break it. Its unit tests plus `ledger run --smoke`.
cargo test --release --offline --manifest-path ledger/Cargo.toml

# The Da CaPo lifecycle suites once more, optimized, next to the benchmark
# whose `qos_churn` workload they pin: the transport close contract, the
# reconfigure / close / set_qos latency bounds (no timer on the path), the
# swap under traffic, the stream's end of flow and the server-side reclaim.
cargo test -q --release -p dacapo --test transport_contract --test end_to_end
cargo test -q --release -p cool-orb --test dacapo_reclaim --test stream_end_of_flow
cargo test -q --release -p cool-orb --lib dacapo_chan

# Project-invariant static analysis: poll loops, unwraps, unbounded data
# paths, GIOP version agreement, error-variant test coverage. Exits
# non-zero on any finding; the JSON report lands next to this gate's
# other artifacts.
cargo run -q --release -p cool-lint -- --json-out lint-report.json

# Whole-workspace semantic analysis: static lock-rank verification against
# the DESIGN.md §7.2 table, blocking-while-locked detection along the call
# graph, codec symmetry in cool-giop, telemetry-name discipline, channel
# topology + boundedness against the §7.4 table, condvar wait-graph
# checks (notify reachability, predicate loops, no foreign lock across a
# wait), spawn/join lifecycle on shutdown paths, hang-freedom (bounded
# blocking vs the §8.5 drain registry), state-machine drift vs the §8.4
# tables, and error-attribution discipline. Same exit/report conventions
# as cool-lint; the gate is the ratchet against the checked-in baseline
# (fails on any NEW finding, and on stale baseline entries so the
# baseline only shrinks), with SARIF for PR annotations.
cargo run -q --release -p cool-analyze -- \
    --json-out analyze-report.json \
    --sarif-out analyze-report.sarif \
    --ratchet analyze-baseline.json

# ThreadSanitizer smoke on the chaos test, best effort: -Zsanitizer needs
# a nightly toolchain with rust-src (for -Zbuild-std). Skip cleanly when
# either is missing rather than failing the gate on toolchain setup.
if rustup run nightly rustc --version >/dev/null 2>&1 \
    && rustup component list --toolchain nightly 2>/dev/null \
        | grep -q '^rust-src.*(installed)'; then
    host=$(rustc -vV | sed -n 's/^host: //p')
    RUSTFLAGS="-Zsanitizer=thread" RUSTDOCFLAGS="-Zsanitizer=thread" \
        cargo +nightly test -q -Zbuild-std --target "$host" --test chaos
    echo "tsan smoke ok"
else
    echo "tsan smoke skipped: nightly toolchain with rust-src not available"
fi

# Telemetry smoke: the latency bench must emit a machine-readable snapshot
# with real percentiles in it.
smoke_dir=$(mktemp -d)
(cd "$smoke_dir" && cargo run -q --release -p bench --bin invocation_latency \
    --manifest-path "$OLDPWD/Cargo.toml" -- --quick) | tee "$smoke_dir/out.txt"
grep '^BENCH_JSON ' "$smoke_dir/out.txt" | sed 's/^BENCH_JSON //' | python3 -c '
import json, sys
doc = json.loads(sys.stdin.read())
hist = doc["telemetry"]["histograms"]
lat = hist["orb_invocation_latency_us{transport=\"tcp\"}"]
assert lat["p99_us"] > 0, "telemetry p99 missing or zero"
print("telemetry smoke ok: %d invocations, p99 %dus" % (lat["count"], lat["p99_us"]))
'
rm -rf "$smoke_dir"

# Chaos smoke: the seeded fault plan (1% drop + one mid-run sever) must
# leave the p99 of successful calls flat, heal the sever through at least
# one automatic reconnect, and hang or mis-attribute nothing. The bin's
# own shape check enforces the latency bound; the JSON assertions here
# pin the recovery and accounting invariants so a silent regression in
# either cannot ride through on a green build.
chaos_dir=$(mktemp -d)
(cd "$chaos_dir" && cargo run -q --release -p bench --bin chaos \
    --manifest-path "$OLDPWD/Cargo.toml" -- --quick) | tee "$chaos_dir/out.txt"
grep '^BENCH_JSON ' "$chaos_dir/out.txt" | sed 's/^BENCH_JSON //' | python3 -c '
import json, sys
doc = json.loads(sys.stdin.read())
assert doc["hung_calls"] == 0, "a call hung: %r" % doc
assert doc["unattributed_failures"] == 0, "unattributed failure: %r" % doc
assert doc["reconnects"] >= 1, "the sever never healed: %r" % doc
assert doc["ok"] + doc["attributed_failures"] == doc["calls"], "calls unaccounted: %r" % doc
print("chaos smoke ok: %d/%d calls ok under %d faults, p99 %dus, %d reconnect(s)"
      % (doc["ok"], doc["calls"], doc["faults_injected"],
         doc["ok_latency"]["p99_us"], doc["reconnects"]))
'
cp "$chaos_dir/BENCH_chaos.json" BENCH_chaos.json
rm -rf "$chaos_dir"

# Failover smoke: kill the active replica of a resolved binding several
# times mid-traffic. Every kill must heal through the replica layer (>= 1
# failover), nothing may hang, and the blackout window stays bounded. The
# bin's own shape check enforces the blackout bound; the assertions here
# pin the failover accounting.
failover_dir=$(mktemp -d)
(cd "$failover_dir" && cargo run -q --release -p bench --bin failover \
    --manifest-path "$OLDPWD/Cargo.toml" -- --quick) | tee "$failover_dir/out.txt"
grep '^BENCH_JSON ' "$failover_dir/out.txt" | sed 's/^BENCH_JSON //' | python3 -c '
import json, sys
doc = json.loads(sys.stdin.read())
assert doc["failovers"] >= 1, "no failover happened: %r" % doc
assert doc["hung_calls"] == 0, "a call hung: %r" % doc
assert doc["blackout_us"]["p99"] < 5_000_000, "blackout unbounded: %r" % doc
print("failover smoke ok: %d kill(s), %d failover(s), blackout p50 %dus / p99 %dus, "
      "steady overhead %.1f%%"
      % (doc["kill_cycles"], doc["failovers"], doc["blackout_us"]["p50"],
         doc["blackout_us"]["p99"], doc["steady"]["overhead_pct"]))
'
cp "$failover_dir/BENCH_failover.json" BENCH_failover.json
rm -rf "$failover_dir"

# Throughput smoke: the zero-copy data path must keep a 2.4 Gbit/s link
# busy at large packets and stay inside the two-allocation budget (one
# request encode, one reply encode) on the loopback hot path. Quick mode
# runs short, so the saturation bar here is 80% — the full run's 95%
# target is asserted by the bench's own acceptance numbers in
# BENCH_throughput.json.
thr_dir=$(mktemp -d)
(cd "$thr_dir" && cargo run -q --release -p bench --bin throughput \
    --manifest-path "$OLDPWD/Cargo.toml" -- --quick) | tee "$thr_dir/out.txt"
grep '^BENCH_JSON ' "$thr_dir/out.txt" | sed 's/^BENCH_JSON //' | python3 -c '
import json, sys
doc = json.loads(sys.stdin.read())
assert doc["large"]["saturation"] >= 0.80, "link underutilized: %r" % doc
assert doc["allocs_per_invocation"] <= 2.0, "alloc budget blown: %r" % doc
print("throughput smoke ok: %.0f Mbit/s large (%.1f%% of link), "
      "%.1f%% batching win, %.2f allocs/invocation"
      % (doc["large"]["goodput_mbps"], 100 * doc["large"]["saturation"],
         100 * doc["small"]["batching_win"], doc["allocs_per_invocation"]))
'
cp "$thr_dir/BENCH_throughput.json" BENCH_throughput.json
rm -rf "$thr_dir"

# Trace-overhead smoke: end-to-end distributed tracing (request/reply
# trace service contexts, merged TraceRecords on the client) must stay
# under 5% of the untraced loopback p99, and must actually have traced
# every timed call — a silently disabled wire path would otherwise pass
# the budget check for free. The bin gates on the best (minimum) of
# three independent trials of a paired batch-p99 estimator — load bursts
# inflate trials but a real regression inflates all of them, so isolated
# scheduler stalls and bursty phases are shrugged off; a sustained
# machine-wide slow phase can still blow through any statistic, so one
# retry is allowed (and logged) before the miss counts.
trace_dir=$(mktemp -d)
if ! (cd "$trace_dir" && cargo run -q --release -p bench --bin trace_overhead \
    --manifest-path "$OLDPWD/Cargo.toml" -- --quick) | tee "$trace_dir/out.txt"; then
    echo "trace-overhead gate missed once (machine-load burst?); retrying" >&2
    (cd "$trace_dir" && cargo run -q --release -p bench --bin trace_overhead \
        --manifest-path "$OLDPWD/Cargo.toml" -- --quick) | tee "$trace_dir/out.txt"
fi
grep '^BENCH_JSON ' "$trace_dir/out.txt" | sed 's/^BENCH_JSON //' | python3 -c '
import json, sys
doc = json.loads(sys.stdin.read())
assert doc["paired_p99_overhead_pct"] < 5.0, "tracing overhead blown: %r" % doc
assert doc["trace_joins_total"] >= doc["trials"] * doc["batches"] * doc["calls_per_batch"], \
    "tracing never engaged: %r" % doc
assert doc["merged_traces_observed"] > 0, "no merged traces: %r" % doc
print("trace overhead smoke ok: %+.2f%% paired p99, trials %s (pooled off %dus, on %dus), %d trace joins"
      % (doc["paired_p99_overhead_pct"], doc["trial_paired_pcts"],
         doc["untraced_p99_us"], doc["traced_p99_us"], doc["trace_joins_total"]))
'
cp "$trace_dir/BENCH_trace_overhead.json" BENCH_trace_overhead.json
rm -rf "$trace_dir"

# Introspection smoke: with the endpoint enabled, /metrics, /spans,
# /flight and /gauges must all respond over real HTTP, /spans must show
# merged distributed traces, and shutdown must close the port. The bin
# exits non-zero on any miss.
cargo run -q --release -p bench --bin introspect_smoke -- --quick
