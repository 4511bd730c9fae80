#!/bin/sh
# Benchstat-style regression gate for the simulator's hot paths: runs each
# gated benchmark fresh and compares its ns/op against the newest committed
# BENCH_<date>.json snapshot. Each ns/op-gated benchmark runs five times
# (-count 5) and the gate judges the median: it must not be slower than
# the baseline by more than the tolerance (one-iteration samples on shared
# hardware spread widely — two snapshots of one tree minutes apart read
# 30.3 and 42.7 ms for EngineDebitCreditDisk — and real regressions on
# these stressors dwarf 30%).
#
# Allocation gate: for the pooled transaction path (EngineDebitCredit*,
# LockManager*, LRU, PDESScaleout) allocs/op is additionally gated two-sided at
# ±20% against the same baseline. Allocation counts are deterministic, so
# a breach in either direction is a real change: above means the zero-alloc
# discipline regressed; below means the baseline is stale and should be
# refreshed via scripts/bench_json.sh. The benches gated on allocs/op alone
# (LockManager*, LRU, baselines of 0) run a fixed 1,000 iterations instead
# of one: -benchmem counts every goroutine's mallocs over the timed span
# and truncates the mean, so one stray runtime allocation reads as 0 there
# (it read as 1 alloc/op in a one-iteration run), while an allocation in
# every op still reads at least 1.
#
# Those five runs' allocs/op are judged by their median too.
#
# BenchmarkPDESScaleout additionally reports the wall-clock speedup of the
# 8-worker barrier pool over the serial coordinator; the median of its five
# speedups is gated against a floor scaled to the host's core count — 2.5x
# on 8+ cores, proportionally less below, and never under 0.6x (a broken
# barrier that burns cores spinning shows up as a collapse well past that
# even on one core).
#
# Usage:
#   ./scripts/bench_check.sh                    # default benches + tolerance
#   BENCH=BenchmarkSimKernel TOLERANCE=50 ./scripts/bench_check.sh
#   ALLOC_TOLERANCE=10 ./scripts/bench_check.sh # tighten the alloc gate
#   SPEEDUP_FLOOR=3.0 ./scripts/bench_check.sh  # override the scaled floor
set -eu
cd "$(dirname "$0")/.."
benches="${BENCH:-BenchmarkKernelHeap10M BenchmarkPDESScaleout BenchmarkEngineDebitCreditDisk BenchmarkEngineDebitCreditNVEM BenchmarkLockManager BenchmarkLockManagerLargeTx BenchmarkLRU}"
tolerance="${TOLERANCE:-30}" # percent slower than baseline that still passes
alloc_tolerance="${ALLOC_TOLERANCE:-20}" # percent allocs/op drift, either way
alloc_benches="BenchmarkEngineDebitCreditDisk BenchmarkEngineDebitCreditNVEM BenchmarkLockManager BenchmarkLockManagerLargeTx BenchmarkLRU BenchmarkPDESScaleout"
# Benches whose ns/op is gated. The LockManager and LRU benches are
# alloc-gated only: their micro-scale ns/op is scheduler noise, not a drift
# signal.
ns_benches="BenchmarkKernelHeap10M BenchmarkPDESScaleout BenchmarkEngineDebitCreditDisk BenchmarkEngineDebitCreditNVEM"
alloc_only_iterations=1000x
ns_count=5 # runs of each ns/op-gated bench; the gate reads their median

# median prints the median of the numbers on stdin, one per line.
median() {
    sort -g | awk '{ v[NR] = $1 } END {
        if (NR == 0) exit
        if (NR % 2) print v[(NR + 1) / 2]
        else printf "%.10g\n", (v[NR / 2] + v[NR / 2 + 1]) / 2
    }'
}

# samples prints the value before the unit $2 on every result line of
# benchmark $1 in file $3.
samples() {
    awk -v b="$1" -v unit="$2" '$1 ~ "^"b { for (i = 3; i < NF; i++) if ($(i+1) == unit) { print $i; break } }' "$3"
}

baseline=$(ls BENCH_*.json | sort | tail -n 1)
if [ -z "$baseline" ]; then
    echo "bench_check: no BENCH_*.json baseline committed" >&2
    exit 1
fi

ncpu=$( (nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null) || echo 1)
speedup_floor="${SPEEDUP_FLOOR:-$(awk -v n="$ncpu" 'BEGIN {
    f = 2.5 * (n < 8 ? n : 8) / 8
    if (f < 0.6) f = 0.6
    printf "%.3f", f
}')}"

status=0
for bench in $benches; do
    old=$(sed -n "s/.*\"name\": \"${bench}\".*\"ns\/op\": \([0-9]*\).*/\1/p" "$baseline")

    benchtime=1x
    count=1
    case " $ns_benches " in *" $bench "*) count=$ns_count ;; esac
    case " $alloc_benches " in *" $bench "*)
        case " $ns_benches " in
        *" $bench "*) ;;
        *) benchtime=$alloc_only_iterations ;;
        esac
        ;;
    esac

    tmp="$(mktemp)"
    go test -run '^$' -bench "^${bench}\$" -benchtime "$benchtime" -count "$count" -benchmem . | tee "$tmp"
    new=$(samples "$bench" ns/op "$tmp" | median)
    if [ -z "$new" ]; then
        echo "bench_check: ${bench} produced no result" >&2
        rm -f "$tmp"
        exit 1
    fi

    case " $ns_benches " in
    *" $bench "*) ;;
    *) old="" ;; # alloc-gated only; micro-scale ns/op is noise
    esac
    if [ -z "$old" ]; then
        # A baseline predating this benchmark (or an alloc-gated-only
        # microbenchmark): nothing to drift against.
        echo "${bench}: ns/op drift not gated"
    else
        awk -v old="$old" -v new="$new" -v n="$count" -v tol="$tolerance" -v bench="$bench" -v base="$baseline" 'BEGIN {
            delta = 100 * (new - old) / old
            printf "%-24s  old %.0f ns/op (%s)  new %.0f ns/op (median of %d)  delta %+.1f%% (gate: +%s%%)\n",
                bench, old, base, new, n, delta, tol
            if (delta > tol) {
                printf "bench_check: %s regressed beyond tolerance\n", bench
                exit 1
            }
        }' || status=1
    fi

    case " $alloc_benches " in *" $bench "*)
        old_allocs=$(sed -n "s/.*\"name\": \"${bench}\".*\"allocs\/op\": \([0-9]*\).*/\1/p" "$baseline")
        new_allocs=$(samples "$bench" allocs/op "$tmp" | median)
        if [ -z "$new_allocs" ]; then
            echo "bench_check: ${bench} reported no allocs/op" >&2
            rm -f "$tmp"
            exit 1
        fi
        if [ -z "$old_allocs" ]; then
            echo "${bench}: no allocs/op baseline in ${baseline}, alloc gate skipped"
        else
            awk -v old="$old_allocs" -v new="$new_allocs" -v tol="$alloc_tolerance" -v bench="$bench" -v base="$baseline" 'BEGIN {
                if (old == 0) { delta = (new == 0 ? 0 : 100) } else { delta = 100 * (new - old) / old }
                printf "%-24s  old %d allocs/op (%s)  new %d allocs/op  delta %+.1f%% (gate: +/-%s%%)\n",
                    bench, old, base, new, delta, tol
                if (delta > tol) {
                    printf "bench_check: %s allocs/op regressed beyond tolerance\n", bench
                    exit 1
                }
                if (delta < -tol) {
                    printf "bench_check: %s allocs/op improved past the gate; refresh the baseline (scripts/bench_json.sh)\n", bench
                    exit 1
                }
            }' || status=1
        fi
        ;;
    esac

    if [ "$bench" = "BenchmarkPDESScaleout" ]; then
        speedup=$(samples "$bench" speedup "$tmp" | median)
        if [ -z "$speedup" ]; then
            echo "bench_check: ${bench} reported no speedup metric" >&2
            rm -f "$tmp"
            exit 1
        fi
        awk -v s="$speedup" -v floor="$speedup_floor" -v n="$ncpu" 'BEGIN {
            printf "BenchmarkPDESScaleout    speedup %.2fx (median; floor %.2fx on %d cores)\n", s, floor, n
            if (s + 0 < floor + 0) {
                printf "bench_check: PDES speedup below the scaled floor\n"
                exit 1
            }
        }' || status=1
    fi
    rm -f "$tmp"
done

if [ "$status" -ne 0 ]; then
    exit 1
fi
echo "bench_check: ok"
