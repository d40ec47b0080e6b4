#!/usr/bin/env bash
# Benchmarks the parallel inference hot path and writes BENCH_1.json:
# per-stage timings (merge / consistency / total), the consistency-cache
# hit rate, matcher nodes expanded, and wall-clock speedup per thread
# count — with every parallel run asserted byte-identical to the
# sequential one. The same run also writes BENCH_3.json (the per-stage
# self-time breakdown recorded by questpro-trace, plus the
# disabled-instrumentation overhead gate, < 5% of wall) and BENCH_6.json
# (per-query walls with parallel-validity annotations, cold/warm
# columnar index-build times per world, and the improvement factor over
# the committed BENCH_1.json baseline when one exists), and BENCH_7.json
# (snapshot cold-start vs text re-parse, matcher throughput at the
# 10^6-triple scale, and the corruption-sweep tally), and BENCH_10.json (session telemetry: disabled-path record cost gated
# < 1% of the median session wall, enabled-vs-disabled walls side by
# side, and the convergence-round distribution on three worlds).
#
# Usage: scripts/bench.sh [output.json] [trace-json] [b6-json] [b7-json] [b10-json]
#   BENCH_TINY=1   smoke mode: 1 trial, heaviest query only, 10^5-triple
#                  B7 world, 2 sessions per B10 world (CI).
#   BENCH_THREADS  largest thread count in the sweep (default 8).
set -euo pipefail
caller_dir="$PWD"
cd "$(dirname "$0")/.."
# A relative output path is resolved against the caller's directory, not
# the repo root the script cds into.
out="${1:-BENCH_1.json}"
out3="${2:-BENCH_3.json}"
out6="${3:-BENCH_6.json}"
out7="${4:-BENCH_7.json}"
out10="${5:-BENCH_10.json}"
[[ "$out" == /* ]] || out="$caller_dir/$out"
[[ "$out3" == /* ]] || out3="$caller_dir/$out3"
[[ "$out6" == /* ]] || out6="$caller_dir/$out6"
[[ "$out7" == /* ]] || out7="$caller_dir/$out7"
[[ "$out10" == /* ]] || out10="$caller_dir/$out10"
threads="${BENCH_THREADS:-8}"

echo "== building exp_bench (release) =="
cargo build --release --offline -p questpro-bench --bin exp_bench

args=(--threads "$threads" --json "$out" --trace-json "$out3" --trace-overhead --bench6 "$out6")
# Diff B6 against the committed pre-run baseline, if the repo has one
# (and it isn't the file this very run is about to overwrite).
if [[ -f BENCH_1.json && "$out" != "$PWD/BENCH_1.json" ]]; then
  args+=(--baseline BENCH_1.json)
elif [[ -f BENCH_1.json ]]; then
  cp BENCH_1.json "${TMPDIR:-/tmp}/bench1_baseline.$$.json"
  args+=(--baseline "${TMPDIR:-/tmp}/bench1_baseline.$$.json")
fi
if [[ "${BENCH_TINY:-0}" == "1" ]]; then
  args+=(--tiny)
fi

echo "== running hot-path bench (threads 1..$threads) =="
./target/release/exp_bench "${args[@]}"

# B7 runs as its own invocation: it re-execs this binary as cold timing
# children, so it must not share allocator state with the phases above.
echo "== running snapshot cold-start bench (B7) =="
b7args=(--bench7 "$out7")
if [[ "${BENCH_TINY:-0}" == "1" ]]; then
  b7args+=(--tiny)
fi
./target/release/exp_bench "${b7args[@]}"

# B10 also runs standalone: its session walls feed the < 1% telemetry
# gate and must not inherit allocator warmth from the sweep above.
echo "== running session telemetry bench (B10) =="
b10args=(--bench10 "$out10")
if [[ "${BENCH_TINY:-0}" == "1" ]]; then
  b10args+=(--tiny)
fi
./target/release/exp_bench "${b10args[@]}"

# Well-formedness gate: the reports must be parseable JSON.
python3 -m json.tool "$out" > /dev/null
python3 -m json.tool "$out3" > /dev/null
python3 -m json.tool "$out6" > /dev/null
python3 -m json.tool "$out7" > /dev/null
python3 -m json.tool "$out10" > /dev/null
echo "ok — $out, $out3, $out6, $out7 and $out10 are well-formed JSON"

# Rows measured with more worker threads than the host has CPUs are
# scheduling artifacts, not parallel speedups (the runner still checks
# their outputs, but the wall times mean nothing). Make any such row
# impossible to miss.
flagged=0
for report in "$out" "$out3" "$out6" "$out7" "$out10"; do
  if grep -q '"valid_parallel": false' "$report"; then
    flagged=1
    echo
    echo "!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!"
    echo "!! WARNING: $report contains rows with \"valid_parallel\": false."
    echo "!! Those rows ran more threads than this host has CPUs: their"
    echo "!! wall times are scheduling artifacts and MUST NOT be quoted"
    echo "!! as parallel speedups. Rerun on a machine with enough cores"
    echo "!! (BENCH_THREADS caps the sweep) to get citable numbers."
    echo "!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!!"
  fi
done
if [[ "$flagged" == 0 ]]; then
  echo "ok — no report row was flagged valid_parallel: false"
fi

# Multi-core speedup gate: on a host with real parallelism, adding
# threads (up to the core count) must not make the hot path slower —
# a regression in the work-stealing pool would show up exactly here.
# On a single-CPU host the sweep has one meaningful row and the gate
# is vacuous, so it reports itself skipped rather than pretending the
# 1-thread wall proves anything about scaling.
python3 - "$out" <<'PY'
import json, sys
report = json.load(open(sys.argv[1]))
cpus = report["config"]["host_cpus"]
if cpus < 2:
    print(f"skip — monotone thread-speedup gate needs >1 CPU (host has {cpus});")
    print("       rerun scripts/bench.sh on a multi-core host for citable scaling")
    sys.exit(0)
TOLERANCE = 1.15  # 15% noise allowance between adjacent thread counts
bad = []
by_query = {}
for row in report["runs"]:
    if row["threads"] <= cpus:
        by_query.setdefault(row["query"], []).append((row["threads"], row["wall_ms"]))
for query, rows in sorted(by_query.items()):
    rows.sort()
    for (t_prev, wall_prev), (t_next, wall_next) in zip(rows, rows[1:]):
        if wall_next > wall_prev * TOLERANCE:
            bad.append(
                f"{query}: {t_next} threads ({wall_next:.1f} ms) slower than "
                f"{t_prev} threads ({wall_prev:.1f} ms)"
            )
if bad:
    print("monotone thread-speedup gate FAILED:")
    for line in bad:
        print("  " + line)
    sys.exit(1)
print(f"ok — thread speedup monotone (within {(TOLERANCE-1)*100:.0f}%) up to {cpus} threads")
PY
