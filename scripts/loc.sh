#!/usr/bin/env bash
# loc.sh — counts the non-test Go lines of every package under internal/
# and cmd/ (testdata excluded), then their total under internal/. The
# simplicity status lines in ROADMAP.md and CHANGES.md quote these counts.
#
#   ./scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

total=0
for dir in $(find internal cmd -name testdata -prune -o -type f -name '*.go' ! -name '*_test.go' -printf '%h\n' | sort -u); do
  n=$(find "$dir" -maxdepth 1 -type f -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
  printf '%7d  %s\n' "$n" "$dir"
  case "$dir" in internal/*) total=$((total + n)) ;; esac
done
printf '%7d  internal/ (total)\n' "$total"
