#!/bin/sh
# Runs the Go benchmark suite and emits a machine-readable snapshot as
# BENCH_<date>.json in the repository root — one point of the performance
# trajectory for the kernel/engine hot paths. Compare snapshots across
# commits (or feed two raw runs to benchstat for significance).
#
# With COUNT=N each benchmark runs N times (go test -count N); the snapshot
# records every metric's median under its usual key, ns/op's lowest and
# highest sample under ns/op_min and ns/op_max, and N as "count".
# scripts/bench_check.sh judges the median of five runs against the newest
# snapshot, so a snapshot committed as its baseline must be a COUNT=5 one.
#
# Usage:
#   ./scripts/bench_json.sh                    # full suite, one iteration each
#   ./scripts/bench_json.sh 'SimKernel|Engine' # subset by regexp
#   BENCHTIME=2s ./scripts/bench_json.sh       # longer sampling per benchmark
#   COUNT=5 ./scripts/bench_json.sh            # a baseline: medians of 5 runs
set -eu
cd "$(dirname "$0")/.."
pattern="${1:-.}"
benchtime="${BENCHTIME:-1x}"
count="${COUNT:-1}"
# Never clobber a committed snapshot from the same day: suffix with b, c,
# ... so intra-day before/after pairs both stay in the trajectory (and
# bench_check.sh's `sort | tail -1` still picks the newest).
out="BENCH_$(date +%Y-%m-%d).json"
for suffix in b c d e f g h i j k; do
    [ -e "$out" ] || break
    out="BENCH_$(date +%Y-%m-%d)${suffix}.json"
done
if [ -e "$out" ]; then
    echo "bench_json: all suffixed names for today exist; refusing to clobber $out" >&2
    exit 1
fi
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" -count "$count" . | tee "$tmp"

awk -v date="$(date +%Y-%m-%dT%H:%M:%S%z)" \
    -v goversion="$(go env GOVERSION)" \
    -v benchtime="$benchtime" -v count="$count" '
# num formats a value as JSON: integers whole, others to 10 digits.
function num(v) { return v == int(v) ? sprintf("%d", v) : sprintf("%.10g", v) }
# sorted fills s[1..k] with the k samples of metric m of benchmark b, in
# ascending order.
function sorted(b, m,    k, i, j, t) {
    k = samples[b, m]
    for (i = 1; i <= k; i++) s[i] = value[b, m, i] + 0
    for (i = 2; i <= k; i++) {
        t = s[i]
        for (j = i - 1; j >= 1 && s[j] > t; j--) s[j + 1] = s[j]
        s[j + 1] = t
    }
    return k
}
/^Benchmark/ {
    name = $1
    sub(/-[0-9]+$/, "", name) # drop the GOMAXPROCS suffix: bench_check.sh looks up bare names
    if (!(name in iters)) {
        names[n++] = name
        iters[name] = $2
    }
    for (i = 3; i + 1 <= NF; i += 2) {
        m = $(i + 1)
        if (!((name, m) in samples)) metric[name, metrics[name]++] = m
        value[name, m, ++samples[name, m]] = $i
    }
}
END {
    printf "{\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"benchtime\": \"%s\",\n  \"count\": %d,\n  \"benchmarks\": [\n", date, goversion, benchtime, count
    for (e = 0; e < n; e++) {
        name = names[e]
        out = ""
        for (j = 0; j < metrics[name]; j++) {
            m = metric[name, j]
            k = sorted(name, m)
            med = k % 2 ? s[(k + 1) / 2] : (s[k / 2] + s[k / 2 + 1]) / 2
            out = out sprintf("%s\"%s\": %s", (out == "" ? "" : ", "), m, num(med))
            if (m == "ns/op" && k > 1) out = out sprintf(", \"ns/op_min\": %s, \"ns/op_max\": %s", num(s[1]), num(s[k]))
        }
        printf "    {\"name\": \"%s\", \"iterations\": %s, \"metrics\": {%s}}%s\n", name, iters[name], out, (e < n - 1 ? "," : "")
    }
    printf "  ]\n}\n"
}' "$tmp" > "$out"

echo "wrote $out"
