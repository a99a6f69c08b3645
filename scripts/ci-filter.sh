#!/usr/bin/env bash
# `cargo test` with a name filter passes when the filter matches nothing: move
# or rename a module and the CI step that named it goes on reporting green
# over zero tests. This runs `cargo test "$@"` and fails unless at least one
# test ran and passed.
#
#   scripts/ci-filter.sh -p osml-core cluster -q
set -euo pipefail
out=$(mktemp)
trap 'rm -f "$out"' EXIT
cargo test "$@" 2>&1 | tee "$out"
matched=$(grep -Eo '[0-9]+ passed' "$out" | awk '{n += $1} END {print n + 0}')
echo "ci-filter: \`cargo test $*\` ran $matched tests"
if [ "$matched" -eq 0 ]; then
  echo "ci-filter: the filter matched no test" >&2
  exit 1
fi
