#!/usr/bin/env bash
# Paired runs of the benchmark: a parent revision against a change.
#
#   scripts/ab.sh --parent <rev> [--change <rev>] --workload W --pairs N --seed S
#
# Each side is its own tree: `git archive` of the revision (without
# --change, the working tree as it stands, untracked files that .gitignore
# does not hide included), unpacked under target/ab/<tree id>/ and built
# there offline, with its own, unedited ledger/ and its own target
# directory. A tree that is already built is reused. Then the pairs run:
# one `ledger bench` process at a time, each for BENCHMARK.json's
# run_seconds, the side that runs first alternating from pair to pair.
# The report gives, per metric of the contract line, both medians, the
# parent's quartiles, the change/parent ratio, the pairs the change won
# and a verdict against the metric's bound in BENCHMARK.json:
#
#   unresolved  the parent's interquartile range is as wide as the bound
#   WORSE>bound the change is worse than the parent by more than the bound
#   better      the change won >= 9 of 10 pairs and its median beats the
#               parent's by more than the parent's interquartile range
#   worse       the same, the other way
#   same        anything else
#
# Per-layer metrics (no bound) get better/worse/same only. A host line (CPU
# model, CPU count, load average before and after) heads the report and
# each side's ledger binary size follows it. Every run's contract line is
# kept in target/ab/runs-<parent>-<change>-<workload>-<seed>.txt. Exits 1 when a
# run was incorrect, an end-to-end metric is worse beyond its bound, or the
# change failed a share of operations larger by more than 0.0005.
#
# Nothing under ledger/ or BENCHMARK.json is edited, and this checkout's
# own ledger/ is never built, so its Cargo.lock (which a build rewrites)
# is left as it was; the unpacked copies' locks are rewritten instead.
set -euo pipefail
cd "$(dirname "$0")/.."
root=$(pwd)

usage() {
    sed -n 's/^#   //p' "$0" | head -1 >&2
    exit 2
}

parent= change= workload= pairs= seed=
seconds=$(jq -r '.run_seconds' BENCHMARK.json)
while [ $# -gt 0 ]; do
    case "$1" in
        --parent) parent=$2; shift 2 ;;
        --change) change=$2; shift 2 ;;
        --workload) workload=$2; shift 2 ;;
        --pairs) pairs=$2; shift 2 ;;
        --seed) seed=$2; shift 2 ;;
        *) usage ;;
    esac
done
[ -n "$parent" ] && [ -n "$workload" ] && [ -n "$pairs" ] && [ -n "$seed" ] || usage
jq -e --arg w "$workload" '.workloads | map(.name) | index($w) != null' BENCHMARK.json >/dev/null \
    || { echo "ab.sh: no workload $workload in BENCHMARK.json" >&2; exit 2; }

# The tree a side names: a revision's, or the working tree's (written
# through a scratch index, so the real index is left alone).
tree_of() {
    if [ -n "$1" ]; then
        git rev-parse --verify -q "$1^{tree}" || { echo "ab.sh: no revision $1" >&2; exit 2; }
    else
        local index
        index=$(mktemp)
        rm -f "$index"
        GIT_INDEX_FILE=$index git add -A
        GIT_INDEX_FILE=$index git write-tree
        rm -f "$index"
    fi
}

# Unpacks and builds a tree's ledger once; prints the binary's path.
build_side() {
    local tree=$1 dir=target/ab/${1:0:12}
    if [ ! -x "$dir/ledger/target/release/ledger" ]; then
        rm -rf "$dir"
        mkdir -p "$dir"
        git archive "$tree" | tar -x -C "$dir"
        echo "building ${tree:0:12} in $dir" >&2
        cargo build --release --offline --quiet --manifest-path "$dir/ledger/Cargo.toml" >&2
    fi
    echo "$root/$dir/ledger/target/release/ledger"
}

host_line() {
    local model
    model=$(sed -n 's/^model name[[:space:]]*: //p' /proc/cpuinfo | head -1)
    echo "$model, $(nproc) CPUs, load average $(cut -d' ' -f1-3 /proc/loadavg)"
}

parent_tree=$(tree_of "$parent")
change_tree=$(tree_of "$change")
change_name=${change:-working tree}
[ "$parent_tree" != "$change_tree" ] || echo "ab.sh: both sides are tree ${parent_tree:0:12}" >&2
parent_bin=$(build_side "$parent_tree")
change_bin=$(build_side "$change_tree")

host_before=$(host_line)
runs=target/ab/runs-${parent_tree:0:12}-${change_tree:0:12}-$workload-$seed.txt
: >"$runs"
run_side() {
    local side=$1 bin=$2 line
    # An incorrect run exits 1 but still prints its contract line.
    line=$("$bin" bench --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 | tail -1) || true
    case "$line" in
        "{"*) echo "$pair $side $line" >>"$runs" ;;
        *) echo "ab.sh: pair $pair, $side: no contract line" >&2; exit 1 ;;
    esac
}
for ((pair = 0; pair < pairs; pair++)); do
    if ((pair % 2 == 0)); then
        run_side parent "$parent_bin"
        run_side change "$change_bin"
    else
        run_side change "$change_bin"
        run_side parent "$parent_bin"
    fi
    echo "pair $((pair + 1))/$pairs done" >&2
done

echo "ab: $workload, seed $seed, $pairs pairs of $seconds s, parent $parent (${parent_tree:0:12}) vs change $change_name (${change_tree:0:12})"
echo "host: $host_before; after: $(cut -d' ' -f1-3 /proc/loadavg)"
echo "ledger binary: parent $(stat -c %s "$parent_bin") B, change $(stat -c %s "$change_bin") B"
python3 - "$runs" BENCHMARK.json <<'EOF'
import json, statistics, sys

runs_file, bench_file = sys.argv[1], sys.argv[2]
bench = json.load(open(bench_file))
bounds = {m["name"]: m for m in bench["end_to_end"]}
lower_better = {m["name"]: m["better"] == "lower" for m in bench["end_to_end"] + bench["per_layer"]}

sides = {"parent": {}, "change": {}}
failed = {"parent": [0, 0], "change": [0, 0]}
incorrect = 0
for raw in open(runs_file):
    pair, side, line = raw.split(" ", 2)
    contract = json.loads(line)
    incorrect += not contract["correct"]
    failed[side][0] += contract["failed"]
    failed[side][1] += contract["attempted"]
    for name, m in contract["metrics"].items():
        sides[side].setdefault(name, {})[int(pair)] = m["value"]

def quartiles(xs):
    q = statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else [xs[0]] * 3
    return q[0], q[2]

print(f"{'metric':<32} {'parent':>11} {'q1':>11} {'q3':>11} {'change':>11} {'ratio':>7} {'wins':>6}  verdict")
beyond = False
for name, by_pair in sides["parent"].items():
    other = sides["change"].get(name, {})
    common = sorted(set(by_pair) & set(other))
    if not common:
        continue
    a = [by_pair[p] for p in common]
    b = [other[p] for p in common]
    ma, mb = statistics.median(a), statistics.median(b)
    q1, q3 = quartiles(a)
    iqr = q3 - q1
    low = lower_better.get(name, True)
    gain = (ma - mb) if low else (mb - ma)
    wins = sum((y < x) if low else (y > x) for x, y in zip(a, b))
    losses = sum((y > x) if low else (y < x) for x, y in zip(a, b))
    need = -(-9 * len(common) // 10)
    bound = bounds.get(name, {}).get("bound")
    scale = abs(ma) if ma else 1.0
    if bound is not None and iqr >= bound * scale:
        verdict = "unresolved"
    elif bound is not None and -gain > bound * scale:
        verdict, beyond = "WORSE>bound", True
    elif wins >= need and gain > iqr:
        verdict = "better"
    elif losses >= need and -gain > iqr:
        verdict = "worse"
    else:
        verdict = "same"
    if bound is None:
        verdict += " (per-layer)"
    ratio = f"{mb / ma:.3f}" if ma else "-"
    print(f"{name:<32} {ma:>11.4g} {q1:>11.4g} {q3:>11.4g} {mb:>11.4g} {ratio:>7} {wins:>3}/{len(common):<2}  {verdict}")
share = {side: f / n if n else 0.0 for side, (f, n) in failed.items()}
for side, (f, n) in failed.items():
    print(f"{side}: {f:.0f} of {n:.0f} operations failed ({share[side]:.2e})")
# The ledger's own rule (`ledger compare`): a failed share that rose by
# more than 0.0005 is a regression whatever the timings say.
more_failed = share["change"] - share["parent"] > 0.0005
if more_failed:
    print("WORSE: the change failed a larger share of operations")
if incorrect:
    print(f"{incorrect} run(s) were incorrect")
sys.exit(1 if beyond or more_failed or incorrect else 0)
EOF
