#!/usr/bin/env bash
# loc.sh — counts the non-test Go lines of every package under internal/
# and cmd/ (testdata excluded), then their totals under internal/, under
# cmd/ and under both. The simplicity status lines in ROADMAP.md and
# CHANGES.md quote these counts.
#
#   ./scripts/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

internal=0
cmd=0
for dir in $(find internal cmd -name testdata -prune -o -type f -name '*.go' ! -name '*_test.go' -printf '%h\n' | sort -u); do
  n=$(find "$dir" -maxdepth 1 -type f -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l)
  printf '%7d  %s\n' "$n" "$dir"
  case "$dir" in
    internal/*) internal=$((internal + n)) ;;
    cmd/*) cmd=$((cmd + n)) ;;
  esac
done
printf '%7d  internal/ (total)\n' "$internal"
printf '%7d  cmd/ (total)\n' "$cmd"
printf '%7d  cmd/ + internal/\n' "$((cmd + internal))"
