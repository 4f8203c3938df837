#!/usr/bin/env bash
# Non-test line counts: every `.rs` file under `src/`, `crates/*/src`
# and `vendor/*/src`, each cut at the first line that begins with
# `#[cfg(test)]` (an in-file test module). Prints one `lines path` row
# per file, then the workspace total. A report, not a gate.
#
#   bash scripts/loc.sh                      # every file + total
#   bash scripts/loc.sh | grep crates/service/src
set -euo pipefail
cd "$(dirname "$0")/.."

find src crates/*/src vendor/*/src -name '*.rs' -type f | LC_ALL=C sort |
  while IFS= read -r file; do
    printf '%7d %s\n' "$(awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$file")" "$file"
  done |
  awk '{ print; total += $1 } END { printf "%7d total\n", total }'
