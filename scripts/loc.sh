#!/usr/bin/env bash
# Line counts of `crates/`, the way ROADMAP.md states them (every line of
# every `.rs` file, blanks and comments included), and the part of that which
# a non-test build compiles: files under a `tests/` directory, files that are
# a `#[cfg(test)] mod name;`, and everything from a file's `#[cfg(test)] mod
# name {` to its end are left out. A report, not a gate.
#
#   scripts/loc.sh [dir]        (default: crates)
set -euo pipefail
cd "$(dirname "$0")/.."
dir="${1:-crates}"

# `src/a.rs` declaring `#[cfg(test)] mod b;` makes `src/a/b.rs` test code.
test_files=$(find "$dir" -name '*.rs' -not -path '*/tests/*' -print0 |
  xargs -0 awk '
    /^[[:space:]]*#\[cfg\(test\)\]/ { armed = FNR; next }
    armed == FNR - 1 && match($0, /mod [a-z_0-9]+;/) {
      name = substr($0, RSTART + 4, RLENGTH - 5)
      stem = FILENAME; sub(/\.rs$/, "", stem)
      print stem "/" name ".rs"
    }')

total=0
shipped=0
while IFS= read -r -d '' file; do
  lines=$(wc -l <"$file")
  total=$((total + lines))
  case "$file" in */tests/*) continue ;; esac
  if grep -qxF "$file" <<<"$test_files"; then continue; fi
  shipped=$((shipped + $(awk '
    /^#\[cfg\(test\)\]/ { armed = NR; next }
    armed == NR - 1 && /^(pub(\([a-z]+\))? )?mod [a-z_0-9]+ \{/ { print NR - 2; done = 1; exit }
    END { if (!done) print NR }' "$file")))
done < <(find "$dir" -name '*.rs' -print0)

printf '%s: %d lines of Rust, %d outside #[cfg(test)] and tests/\n' "$dir" "$total" "$shipped"
