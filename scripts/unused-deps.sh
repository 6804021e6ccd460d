#!/usr/bin/env bash
# Unused-dependency gate: every key under a manifest's [dependencies],
# [dev-dependencies] or [build-dependencies] must be named (`dep::`,
# `dep as`, `dep;`) by a .rs file of that package — for the root package
# src/, tests/, examples/, build.rs and the [[test]] paths into crates/.
set -euo pipefail
cd "$(dirname "$0")/.."

unused=0
for manifest in Cargo.toml crates/*/Cargo.toml; do
    dir=$(dirname "$manifest")
    [ "$dir" = . ] && dir="src tests examples build.rs $(sed -n 's/^path = "\(crates\/.*\.rs\)"$/\1/p' Cargo.toml)"
    for dep in $(awk '/^\[/ { on = /^\[(dev-|build-)?dependencies\]/ } on && /^[a-z]/ { sub(/[ .=].*/, ""); print }' "$manifest"); do
        # shellcheck disable=SC2086  # $dir is a list for the root package
        grep -rqE --include='*.rs' "\b${dep//-/_}(::| as |;)" $dir || { echo "unused dependency: $manifest -> $dep"; unused=1; }
    done
done
[ "$unused" = 0 ]
