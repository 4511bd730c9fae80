#!/usr/bin/env bash
# lint.sh — the repo's lint gate: gofmt, go vet, and detlint (the
# determinism-contract analyzer, DESIGN.md section 11). CI runs this
# verbatim; run it locally before pushing. Any diagnostic fails.
#
# go vet runs twice: over the root module, and over bench/, a module of
# its own that compiles against internal/experiments and internal/core.
# Neither the root's ./... nor the tier-1 tests reach bench/, so without
# the second run a local lint pass cannot see a change that breaks the
# benchmark's build.
#
# The final step is the gate's self-test: detlint must still *catch* the
# committed seeded-violation fixture. A lint run that passes because the
# analyzer broke is worse than no lint run, so a clean tree alone is not
# accepted — the gate has to prove it can still fire.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== gofmt =="
out=$(gofmt -l .)
if [ -n "$out" ]; then
  echo "gofmt needed on:" && echo "$out" && exit 1
fi

echo "== go vet =="
go vet ./...
(cd bench && go vet ./...)

echo "== detlint (determinism contract) =="
go run ./cmd/detlint ./...

echo "== detlint self-test (seeded violations must be caught) =="
if go run ./cmd/detlint -scope=all ./internal/analysis/testdata/seeded >/dev/null 2>&1; then
  echo "FATAL: detlint exited 0 on the seeded-violation fixture."
  echo "The analyzer has been disarmed; the clean run above proves nothing."
  exit 1
fi
echo "ok: seeded fixture rejected"

echo "lint: all gates passed"
