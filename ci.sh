#!/usr/bin/env bash
# CI entry point: sanitized debug build, full test suite, then one bench run
# whose BENCH_*.json artifact is schema-checked. Mirrors what a reviewer
# should run before merging.
set -euo pipefail
cd "$(dirname "$0")"

BUILD_DIR="${BUILD_DIR:-build-ci}"
JOBS="$(nproc 2>/dev/null || echo 4)"

echo "== configure (Debug + ASan/UBSan + VSGC_WERROR=ON) =="
# VSGC_WERROR=ON makes the build stage below a -Werror gate on the whole tree.
cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DVSGC_WERROR=ON \
  -DCMAKE_CXX_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=all"

echo "== static analysis =="
# Runs BEFORE the full build so determinism/hygiene violations are reported
# even when the tree itself would fail to compile. Only the linter and the
# artifact validator are built here.
cmake --build "$BUILD_DIR" -j "$JOBS" --target vsgc_lint_tool validate_bench_json
ARTIFACT_DIR="$BUILD_DIR/artifacts"
mkdir -p "$ARTIFACT_DIR"
# One pass emits both artifacts: the findings report (LINT_vsgc.json) and the
# include-graph/sim-purity summary (LINT_deps.json + Graphviz module diagram).
# The tree must be finding-free, which also enforces the sim-purity ratchet:
# an unledgered sim dependency (growth) or a ledger line whose dependency is
# gone (staleness) is an unsuppressed finding and fails this gate.
"$BUILD_DIR/tools/vsgc_lint" --root . --json "$ARTIFACT_DIR/LINT_vsgc.json" \
  --deps-json "$ARTIFACT_DIR/LINT_deps.json" \
  --dot "$ARTIFACT_DIR/modules.dot"
"$BUILD_DIR/tools/validate_bench_json" "$ARTIFACT_DIR/LINT_vsgc.json"
"$BUILD_DIR/tools/validate_bench_json" "$ARTIFACT_DIR/LINT_deps.json"

echo "== static analysis: batch engine hygiene =="
# The thread-pool is the one threaded component in src/; it must pass the
# determinism lint on its own (no wall-clock reads, no ambient randomness).
"$BUILD_DIR/tools/vsgc_lint" --root src/sim

echo "== static analysis self-check (planted violation) =="
# A deliberately planted determinism violation must fail the lint gate —
# mirrors the planted-bug self-checks of vsgc_stress and vsgc_mc.
LINT_PLANT="$BUILD_DIR/lint-selfcheck"
rm -rf "$LINT_PLANT"
mkdir -p "$LINT_PLANT/src/sim"
printf 'int planted() { return std::rand(); }\n' \
  > "$LINT_PLANT/src/sim/planted.cpp"
if "$BUILD_DIR/tools/vsgc_lint" --root "$LINT_PLANT" > /dev/null; then
  echo "vsgc_lint failed to flag a planted std::rand violation" >&2
  exit 1
fi
echo "planted violation caught by vsgc_lint"

echo "== static analysis self-check (architecture passes) =="
# One scratch tree plants a violation per architecture-conformance rule
# family; the linter must flag every family and exit non-zero. The stale
# ledger entry also proves the ratchet's shrink direction is enforced, not
# just its growth direction.
ARCH_PLANT="$BUILD_DIR/lint-selfcheck-arch"
rm -rf "$ARCH_PLANT"
mkdir -p "$ARCH_PLANT/src/transport" "$ARCH_PLANT/src/gcs" \
  "$ARCH_PLANT/src/util" "$ARCH_PLANT/tools"
# layer-violation: transport (rank 30) reaching up into gcs (rank 50).
printf '#pragma once\n#include "gcs/view.hpp"\n' \
  > "$ARCH_PLANT/src/transport/up.hpp"
printf '#pragma once\n' > "$ARCH_PLANT/src/gcs/view.hpp"
# include-cycle: two util headers including each other.
printf '#pragma once\n#include "util/b.hpp"\n' > "$ARCH_PLANT/src/util/a.hpp"
printf '#pragma once\n#include "util/a.hpp"\n' > "$ARCH_PLANT/src/util/b.hpp"
# sim-purity (growth): protocol header pulls in the event kernel unledgered.
printf '#pragma once\n#include "sim/simulator.hpp"\n' \
  > "$ARCH_PLANT/src/gcs/simdep.hpp"
# sim-purity (staleness): ledger line whose dependency does not exist.
printf 'src/gcs/gone.hpp symbol Simulator\n' \
  > "$ARCH_PLANT/tools/sim_purity_ledger.txt"
ARCH_OUT="$BUILD_DIR/lint-selfcheck-arch.out"
if "$BUILD_DIR/tools/vsgc_lint" --root "$ARCH_PLANT" > "$ARCH_OUT"; then
  echo "vsgc_lint failed to flag the planted architecture violations" >&2
  cat "$ARCH_OUT" >&2
  exit 1
fi
for rule in layer-violation include-cycle sim-purity; do
  if ! grep -q "\[$rule\]" "$ARCH_OUT"; then
    echo "vsgc_lint missed the planted $rule violation:" >&2
    cat "$ARCH_OUT" >&2
    exit 1
  fi
done
if ! grep -q "stale ledger entry" "$ARCH_OUT"; then
  echo "vsgc_lint missed the planted stale sim-purity ledger entry" >&2
  cat "$ARCH_OUT" >&2
  exit 1
fi
echo "planted layer/cycle/sim-purity violations all caught"

# clang-tidy half of the gate; skips with a notice when not installed.
tools/run_clang_tidy.sh "$BUILD_DIR"

echo "== build (with -Werror) =="
cmake --build "$BUILD_DIR" -j "$JOBS"

echo "== test: unit =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" -L unit

echo "== test: property =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" -L property

echo "== test: mc =="
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$JOBS" -L mc

echo "== bench smoke + artifact validation =="
# Every bench here runs under the exact online spec checkers and ends each
# measured run with their finalize() (Property 4.1's cross-process half), so
# a violation fails this stage. Every artifact they write is schema-checked.
ARTIFACT_DIR="$BUILD_DIR/artifacts"
mkdir -p "$ARTIFACT_DIR"
for b in view_change sync_overhead forwarding obsolete_views blocking \
         hierarchy crash_recovery membership total_order; do
  VSGC_BENCH_OUT="$ARTIFACT_DIR" "$BUILD_DIR/bench/bench_$b"
done
"$BUILD_DIR/tools/validate_bench_json" "$ARTIFACT_DIR"/BENCH_*.json

echo "== artifact validator self-check (planted artifact) =="
# A copy of BENCH_view_change.json without its "sim" object must fail the
# schema check, for that reason — mirrors the planted lint violations above.
VALIDATE_PLANT="$BUILD_DIR/validate-selfcheck"
rm -rf "$VALIDATE_PLANT"
mkdir -p "$VALIDATE_PLANT"
python3 - "$ARTIFACT_DIR/BENCH_view_change.json" \
  "$VALIDATE_PLANT/BENCH_view_change.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
del doc["sim"]
json.dump(doc, open(sys.argv[2], "w"), indent=2)
PY
if "$BUILD_DIR/tools/validate_bench_json" \
    "$VALIDATE_PLANT/BENCH_view_change.json" 2> "$VALIDATE_PLANT/out.txt"; then
  echo "validate_bench_json accepted an artifact without 'sim'" >&2
  exit 1
fi
if ! grep -q "missing object field 'sim'" "$VALIDATE_PLANT/out.txt"; then
  echo "validate_bench_json rejected the plant for the wrong reason:" >&2
  cat "$VALIDATE_PLANT/out.txt" >&2
  exit 1
fi
echo "planted artifact without 'sim' rejected by validate_bench_json"
# A copy of BENCH_obsolete_views.json without its gcs.obsolete_views rows
# (the E5 claim metric) must fail too, and the error must name the metric.
python3 - "$ARTIFACT_DIR/BENCH_obsolete_views.json" \
  "$VALIDATE_PLANT/BENCH_obsolete_views.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
counters = doc["metrics"]["counters"]
kept = [r for r in counters if r["name"] != "gcs.obsolete_views"]
assert len(kept) < len(counters), "no gcs.obsolete_views rows to remove"
doc["metrics"]["counters"] = kept
json.dump(doc, open(sys.argv[2], "w"), indent=2)
PY
if "$BUILD_DIR/tools/validate_bench_json" \
    "$VALIDATE_PLANT/BENCH_obsolete_views.json" 2> "$VALIDATE_PLANT/out.txt"; then
  echo "validate_bench_json accepted an artifact without gcs.obsolete_views" >&2
  exit 1
fi
if ! grep -q "missing metric 'gcs.obsolete_views'" "$VALIDATE_PLANT/out.txt"; then
  echo "validate_bench_json rejected the plant for the wrong reason:" >&2
  cat "$VALIDATE_PLANT/out.txt" >&2
  exit 1
fi
echo "planted artifact without gcs.obsolete_views rejected by validate_bench_json"

echo "== committed perf trajectory (schema only) =="
# BENCH_perf.json holds perfbench's end-to-end results per commit
# (tools/perf_trajectory.py appends a row). Its shape is checked here against
# the workloads and metrics of the BENCHMARK.json beside it; no wall-clock
# number is compared. A copy without a workload must fail.
"$BUILD_DIR/tools/validate_bench_json" BENCH_perf.json
cp BENCHMARK.json "$VALIDATE_PLANT/"
python3 - BENCH_perf.json "$VALIDATE_PLANT/BENCH_perf.json" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
del doc["rows"][-1]["workloads"]["churn"]
json.dump(doc, open(sys.argv[2], "w"), indent=1)
PY
if "$BUILD_DIR/tools/validate_bench_json" \
    "$VALIDATE_PLANT/BENCH_perf.json" 2> "$VALIDATE_PLANT/out.txt"; then
  echo "validate_bench_json accepted a trajectory row without churn" >&2
  exit 1
fi
if ! grep -q "workloads.churn missing" "$VALIDATE_PLANT/out.txt"; then
  echo "validate_bench_json rejected the plant for the wrong reason:" >&2
  cat "$VALIDATE_PLANT/out.txt" >&2
  exit 1
fi
echo "BENCH_perf.json valid; planted row without churn rejected"

echo "== observability tour =="
# The example converges through a crash and a rejoin under the exact
# checkers (exit 1 otherwise) and writes its JSONL/Chrome-trace files into
# the working directory, so it runs from a scratch directory.
TOUR_DIR="$BUILD_DIR/observability-tour"
rm -rf "$TOUR_DIR"
mkdir -p "$TOUR_DIR"
TOUR_BIN="$(cd "$BUILD_DIR/examples" && pwd)/observability"
(cd "$TOUR_DIR" && "$TOUR_BIN" > tour.txt)
test -s "$TOUR_DIR/observability_trace.jsonl"
test -s "$TOUR_DIR/observability_timeline.json"
echo "observability tour converged, finalized and exported its trace"

echo "== trace determinism =="
# Same binary, same seed: the JSONL trace must be byte-identical.
ARTIFACT_DIR2="$BUILD_DIR/artifacts2"
mkdir -p "$ARTIFACT_DIR2"
VSGC_BENCH_OUT="$ARTIFACT_DIR2" "$BUILD_DIR/bench/bench_view_change" > /dev/null
cmp "$ARTIFACT_DIR/TRACE_view_change.jsonl" "$ARTIFACT_DIR2/TRACE_view_change.jsonl"
echo "TRACE_view_change.jsonl byte-identical across runs"

echo "== causal trace analysis (vsgc_trace) =="
# Fault-free seeded stress through the span analyzer: every expected
# delivery must be accounted for (zero orphans), the report and the
# BENCH_tracelat.json artifact must be schema-valid, and the report must be
# byte-identical across two same-seed replays.
TRACE_OUT="$BUILD_DIR/trace-out"
rm -rf "$TRACE_OUT"
mkdir -p "$TRACE_OUT"
"$BUILD_DIR/tools/vsgc_trace" --record --seed 7 --clients 5 --servers 2 \
  --messages 40 --check-no-orphans --report "$TRACE_OUT/report1.txt" \
  --json "$TRACE_OUT"
"$BUILD_DIR/tools/vsgc_trace" --record --seed 7 --clients 5 --servers 2 \
  --messages 40 --check-no-orphans --report "$TRACE_OUT/report2.txt"
cmp "$TRACE_OUT/report1.txt" "$TRACE_OUT/report2.txt"
"$BUILD_DIR/tools/validate_bench_json" "$TRACE_OUT/BENCH_tracelat.json"
echo "vsgc_trace: zero orphans fault-free, report byte-identical across runs"
# Churn run: losses under injected faults must all be attributable (crash,
# exclusion by the cut, in-flight at trace end) — never "unexplained".
"$BUILD_DIR/tools/vsgc_trace" --record --seed 11 --churn --check-clean \
  --report "$TRACE_OUT/churn.txt"
echo "vsgc_trace: churn losses fully attributed (no unexplained orphans)"
# Churn artifact: the span.* histograms and the phase rows come from one
# analysis, so the validator requires every row's count to equal its
# histogram's even when some wire legs never deliver.
mkdir -p "$TRACE_OUT/churn-json" "$TRACE_OUT/churn-offline"
"$BUILD_DIR/tools/vsgc_trace" --record --seed 3 --churn --clients 5 \
  --servers 2 --check-clean --report "$TRACE_OUT/churn3.txt" \
  --json "$TRACE_OUT/churn-json" --jsonl "$TRACE_OUT/churn3.jsonl"
"$BUILD_DIR/tools/validate_bench_json" "$TRACE_OUT/churn-json/BENCH_tracelat.json"
echo "vsgc_trace: churn span histograms match their phase rows"
# Every metric is a fold of the trace: re-analyzing the recorded JSONL must
# reproduce the record run's metrics object exactly, headline metrics
# included.
"$BUILD_DIR/tools/vsgc_trace" "$TRACE_OUT/churn3.jsonl" \
  --report "$TRACE_OUT/churn3-offline.txt" --json "$TRACE_OUT/churn-offline"
python3 - "$TRACE_OUT/churn-json/BENCH_tracelat.json" \
  "$TRACE_OUT/churn-offline/BENCH_tracelat.json" <<'PY'
import json, sys
online = json.load(open(sys.argv[1]))["metrics"]
offline = json.load(open(sys.argv[2]))["metrics"]
if online != offline:
    sys.exit("vsgc_trace: offline metrics differ from the record run's")
if not any(h["name"] == "gcs.view_change_latency_us"
           for h in online["histograms"]):
    sys.exit("vsgc_trace: metrics lack gcs.view_change_latency_us")
PY
echo "vsgc_trace: offline metrics equal the record run's"
# Malformed JSONL (a start_id key that is not a decimal pid) must be a
# parse error, exit 2, not a crash.
printf '%s\n' '{"at":1,"type":"gcs_view","p":1,"view":{"epoch":1,"origin":1,"members":[1],"start_id":{"x":1}},"transitional":[1]}' \
  > "$TRACE_OUT/malformed.jsonl"
rc=0
"$BUILD_DIR/tools/vsgc_trace" "$TRACE_OUT/malformed.jsonl" > /dev/null 2>&1 \
  || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "vsgc_trace on malformed JSONL: expected exit 2, got $rc" >&2
  exit 1
fi
echo "vsgc_trace: malformed JSONL refused with exit 2"

echo "== stress fuzz smoke (sanitized) =="
# Fixed seed block, small world, full checker suite: any violation fails CI
# and the repro bundle path is printed by the tool itself.
STRESS_OUT="$BUILD_DIR/stress-out"
rm -rf "$STRESS_OUT"
if ! "$BUILD_DIR/tools/vsgc_stress" --seeds 0:24 --clients 4 --servers 2 \
    --steps 15 --out "$STRESS_OUT"; then
  echo "vsgc_stress found a violation; repro bundles under $STRESS_OUT" >&2
  exit 1
fi

echo "== stress pipeline self-check (planted bug) =="
# A deliberately injected endpoint bug must be caught by the checkers,
# minimized, and the minimized bundle must replay to the same violation with
# a byte-identical trace.
PLANT_OUT="$BUILD_DIR/stress-selfcheck"
rm -rf "$PLANT_OUT"
"$BUILD_DIR/tools/vsgc_stress" --seeds 3:3 --inject-bug 10 \
  --expect-violation --out "$PLANT_OUT" > /dev/null
"$BUILD_DIR/tools/vsgc_stress" --replay "$PLANT_OUT/seed3" --expect-violation \
  > /dev/null
echo "planted bug caught, minimized, and replayed"
# Malformed copies of that bundle must be refused with exit 2 (a parse or
# usage error), never crash or replay: one op names process 99 of a
# 4-client world, and one config.json has a non-integer client count.
BAD_OP="$BUILD_DIR/stress-bad-op"
BAD_CFG="$BUILD_DIR/stress-bad-config"
rm -rf "$BAD_OP" "$BAD_CFG"
cp -r "$PLANT_OUT/seed3" "$BAD_OP"
cp -r "$PLANT_OUT/seed3" "$BAD_CFG"
sed -i 's/"a": [0-9]*/"a": 99/' "$BAD_OP/fault_script.min.json"
sed -i 's/"clients": [0-9]*/"clients": "abc"/' "$BAD_CFG/config.json"
grep -q '"a": 99' "$BAD_OP/fault_script.min.json"
grep -q '"clients": "abc"' "$BAD_CFG/config.json"
for bad in "$BAD_OP" "$BAD_CFG"; do
  rc=0
  "$BUILD_DIR/tools/vsgc_stress" --replay "$bad" > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "vsgc_stress --replay $bad: expected exit 2, got $rc" >&2
    exit 1
  fi
done
echo "malformed bundles refused with exit 2"

echo "== corruption stress sweep (eventual-safety suite) =="
# State-corruption fault family (DESIGN.md §12): 200 seeds of corruption-heavy
# churn judged by the eventual-safety checker bundle. Recoverable corruption
# may violate safety only inside the post-injection tolerance window; any
# post-window violation or failed reconvergence fails the sweep.
CORRUPT_OUT="$BUILD_DIR/corrupt-out"
rm -rf "$CORRUPT_OUT"
if ! "$BUILD_DIR/tools/vsgc_stress" --corrupt --seeds 0:199 --clients 4 \
    --servers 2 --steps 15 --jobs "$JOBS" --out "$CORRUPT_OUT" > /dev/null; then
  echo "corruption sweep violation; repro bundles under $CORRUPT_OUT" >&2
  exit 1
fi
echo "200-seed corruption sweep clean (zero post-window violations)"

echo "== corruption pipeline self-check (planted wedge) =="
# The unrecoverable planted corruption (the endpoint view-epoch wedge) must
# be flagged by the stabilize epilogue even under the eventual bundle,
# minimized to the single injection, and the minimized bundle must replay to
# the same violation under the same tolerance window.
CORRUPT_PLANT="$BUILD_DIR/corrupt-selfcheck"
rm -rf "$CORRUPT_PLANT"
"$BUILD_DIR/tools/vsgc_stress" --corrupt --seeds 3:3 --inject-bug 10 \
  --expect-violation --out "$CORRUPT_PLANT" > /dev/null
"$BUILD_DIR/tools/vsgc_stress" --replay "$CORRUPT_PLANT/seed3" \
  --expect-violation > /dev/null
echo "planted corruption wedge caught, minimized, and replayed"
# Without minimization the bundle holds the generate run itself, whose churn
# runs on past its last op; the replay must run to the script's end_at and
# reproduce that run's trace byte for byte (the tool checks the bytes both
# when it writes the bundle and on --replay).
CORRUPT_FULL="$BUILD_DIR/corrupt-selfcheck-full"
rm -rf "$CORRUPT_FULL"
"$BUILD_DIR/tools/vsgc_stress" --corrupt --seeds 3:3 --inject-bug 10 \
  --no-minimize --expect-violation --out "$CORRUPT_FULL" > /dev/null
"$BUILD_DIR/tools/vsgc_stress" --replay "$CORRUPT_FULL/seed3" \
  --expect-violation > "$CORRUPT_FULL/replay.txt"
grep -q "trace vs trace.jsonl: byte-identical" "$CORRUPT_FULL/replay.txt"
echo "unminimized corruption wedge bundle replayed byte-identically"

echo "== parallel sweep: jobs-independence (stress) =="
# The work-stealing seed sweep must be an invisible optimization: stdout (the
# deterministic per-seed verdict stream + summary) must be byte-identical
# between --jobs 1 and a parallel run. Throughput lines go to stderr and are
# deliberately excluded from the contract.
# The artifact path line is the only stdout that names the output dir. Both
# sweeps' BENCH_stress.json artifacts (one result row per seed) must pass the
# schema check.
SWEEP_J1="$BUILD_DIR/sweep-jobs1"
SWEEP_JN="$BUILD_DIR/sweep-jobsN"
rm -rf "$SWEEP_J1" "$SWEEP_JN"
mkdir -p "$SWEEP_J1" "$SWEEP_JN"
VSGC_BENCH_OUT="$SWEEP_J1" "$BUILD_DIR/tools/vsgc_stress" --seeds 0:11 \
  --clients 4 --servers 2 --steps 12 --jobs 1 --out "$SWEEP_J1" \
  2>/dev/null | grep -v '^\[artifact\]' > "$BUILD_DIR/sweep-jobs1.txt"
VSGC_BENCH_OUT="$SWEEP_JN" "$BUILD_DIR/tools/vsgc_stress" --seeds 0:11 \
  --clients 4 --servers 2 --steps 12 --jobs 4 --out "$SWEEP_JN" \
  2>/dev/null | grep -v '^\[artifact\]' > "$BUILD_DIR/sweep-jobsN.txt"
cmp "$BUILD_DIR/sweep-jobs1.txt" "$BUILD_DIR/sweep-jobsN.txt"
"$BUILD_DIR/tools/validate_bench_json" "$SWEEP_J1/BENCH_stress.json" \
  "$SWEEP_JN/BENCH_stress.json"
echo "vsgc_stress stdout byte-identical at --jobs 1 and --jobs 4"

echo "== model checker: exhaustive exploration + artifact =="
# Bounded exploration of the 3-process view-change scenario must exhaust the
# frontier within the deviation bound and emit a schema-valid BENCH_mc.json.
MC_OUT="$BUILD_DIR/mc-out"
rm -rf "$MC_OUT"
mkdir -p "$MC_OUT"
VSGC_BENCH_OUT="$MC_OUT" "$BUILD_DIR/tools/vsgc_mc" \
  --clients 3 --servers 1 --max-deviations 1 --out "$MC_OUT"
"$BUILD_DIR/tools/validate_bench_json" "$MC_OUT"/BENCH_mc.json

echo "== model checker self-check (planted bug) =="
# The explorer must find the planted duplicate-delivery bug, minimize the
# schedule, and the minimized ScheduleScript must replay byte-identically.
MC_PLANT="$BUILD_DIR/mc-selfcheck"
rm -rf "$MC_PLANT"
mkdir -p "$MC_PLANT"
VSGC_BENCH_OUT="$MC_PLANT" "$BUILD_DIR/tools/vsgc_mc" --inject-bug \
  --max-deviations 1 --expect-violation --out "$MC_PLANT" > /dev/null
"$BUILD_DIR/tools/vsgc_mc" --replay "$MC_PLANT/seed1" --expect-violation \
  > /dev/null
echo "planted schedule bug found, minimized, and replayed byte-identically"
# Bad --clients/--servers values are usage errors (exit 2), not a false
# violation with a bundle, and not an abort.
for bad in "--clients 0" "--clients abc" "--servers 0"; do
  rc=0
  # $bad unquoted: "--flag value" is two arguments.
  "$BUILD_DIR/tools/vsgc_mc" $bad --out "$MC_PLANT/bad-flags" \
    > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "vsgc_mc $bad: expected exit 2, got $rc" >&2
    exit 1
  fi
done
test ! -e "$MC_PLANT/bad-flags"
echo "vsgc_mc refuses non-positive or non-numeric --clients/--servers"

echo "== tool flags: malformed values are usage errors =="
# Every numeric and enum flag of vsgc_stress, vsgc_mc and vsgc_trace parses
# strictly: a non-numeric, out-of-range or unknown value exits 2 before
# anything runs, so there is no false verdict and no bundle or artifact.
BAD_FLAGS="$BUILD_DIR/bad-flags"
rm -rf "$BAD_FLAGS"
for bad in "vsgc_stress --out $BAD_FLAGS --seeds abc" \
           "vsgc_stress --out $BAD_FLAGS --forwarding simpel" \
           "vsgc_stress --out $BAD_FLAGS --steps abc" \
           "vsgc_stress --out $BAD_FLAGS --steps -3" \
           "vsgc_mc --out $BAD_FLAGS --drop 7" \
           "vsgc_mc --out $BAD_FLAGS --walks xyz" \
           "vsgc_mc --out $BAD_FLAGS --messages abc" \
           "vsgc_trace --record --json $BAD_FLAGS --top -5"; do
  rc=0
  # $bad unquoted: the tool name and each flag and value are one word each.
  VSGC_BENCH_OUT="$BAD_FLAGS" "$BUILD_DIR/tools/"$bad > /dev/null 2>&1 \
    || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "$bad: expected exit 2, got $rc" >&2
    exit 1
  fi
done
test ! -e "$BAD_FLAGS"
echo "malformed flag values refused with exit 2, nothing written"

echo "== model checker corruption self-check (planted wedge) =="
# With --corrupt the fault menu gains the corruption family and the planted
# action becomes the unrecoverable view-epoch wedge: exploration must find
# it, the minimizer must shrink the schedule to that single injection, and
# the bundle (scenario.json round-trips the corruption flag, so the replay
# is judged under the same eventual-safety window) must replay identically.
MC_CORRUPT="$BUILD_DIR/mc-corrupt-selfcheck"
rm -rf "$MC_CORRUPT"
mkdir -p "$MC_CORRUPT"
VSGC_BENCH_OUT="$MC_CORRUPT" "$BUILD_DIR/tools/vsgc_mc" --corrupt \
  --inject-bug --max-deviations 1 --expect-violation --out "$MC_CORRUPT" \
  > /dev/null
"$BUILD_DIR/tools/vsgc_mc" --replay "$MC_CORRUPT/seed1" --expect-violation \
  > /dev/null
echo "corruption wedge found by exploration, minimized, and replayed"

echo "== parallel exploration: jobs-independence (mc) =="
# Same contract for the model checker: parallel chunked exploration must
# report the identical run/dedup/depth breakdown and verdict as --jobs 1.
# The artifact path line is the only stdout that names the output dir.
MC_J1="$BUILD_DIR/mc-jobs1"
MC_JN="$BUILD_DIR/mc-jobsN"
rm -rf "$MC_J1" "$MC_JN"
mkdir -p "$MC_J1" "$MC_JN"
VSGC_BENCH_OUT="$MC_J1" "$BUILD_DIR/tools/vsgc_mc" --clients 3 --servers 1 \
  --max-deviations 1 --jobs 1 --out "$MC_J1" 2>/dev/null \
  | grep -Ev '^(artifact:|\[artifact\])' > "$BUILD_DIR/mc-jobs1.txt"
VSGC_BENCH_OUT="$MC_JN" "$BUILD_DIR/tools/vsgc_mc" --clients 3 --servers 1 \
  --max-deviations 1 --jobs 4 --out "$MC_JN" 2>/dev/null \
  | grep -Ev '^(artifact:|\[artifact\])' > "$BUILD_DIR/mc-jobsN.txt"
cmp "$BUILD_DIR/mc-jobs1.txt" "$BUILD_DIR/mc-jobsN.txt"
echo "vsgc_mc stdout byte-identical at --jobs 1 and --jobs 4"

echo "== bench: E2 throughput artifact (Release) =="
# The Release tree hosts the benches too slow for the sanitized build. The E2
# table's artifact must pass the throughput schema. Wall-clock cost is
# measured by perfbench (python3 perfbench/run.py), not gated here.
BUILD_DIR_REL="${BUILD_DIR_REL:-build-ci-rel}"
cmake -B "$BUILD_DIR_REL" -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build "$BUILD_DIR_REL" -j "$JOBS" \
  --target bench_throughput validate_bench_json
PERF_OUT="$BUILD_DIR_REL/artifacts"
mkdir -p "$PERF_OUT"
VSGC_BENCH_OUT="$PERF_OUT" "$BUILD_DIR_REL/bench/bench_throughput"
"$BUILD_DIR_REL/tools/validate_bench_json" "$PERF_OUT/BENCH_throughput.json"

echo "== perf bench: scale sweep (Release, sublinear gate) =="
# E12: the N-sweep (64/256/1024 clients, ~N/8 groups, Zipf traffic, flash
# crowds, failure waves) must show view-change latency and per-member
# resident bytes growing sublinearly (log-log fit exponent < 1.15), and the
# same-seed determinism double-run inside the bench must be byte-identical.
cmake --build "$BUILD_DIR_REL" -j "$JOBS" --target bench_scale
VSGC_BENCH_OUT="$PERF_OUT" "$BUILD_DIR_REL/bench/bench_scale" \
  --check-sublinear
"$BUILD_DIR_REL/tools/validate_bench_json" "$PERF_OUT/BENCH_scale.json"

echo "== thread sanitizer (batch engine) =="
# TSan and ASan cannot share a build; a dedicated tree covers the only
# threaded component (sim::BatchRunner) plus a parallel stress sweep that
# drives it end to end.
BUILD_DIR_TSAN="${BUILD_DIR_TSAN:-build-ci-tsan}"
cmake -B "$BUILD_DIR_TSAN" -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DCMAKE_CXX_FLAGS="-fsanitize=thread -fno-sanitize-recover=all" > /dev/null
cmake --build "$BUILD_DIR_TSAN" -j "$JOBS" --target batch_test vsgc_stress
"$BUILD_DIR_TSAN/tests/batch_test" > /dev/null
TSAN_OUT="$BUILD_DIR_TSAN/stress-out"
rm -rf "$TSAN_OUT"
mkdir -p "$TSAN_OUT"
VSGC_BENCH_OUT="$TSAN_OUT" "$BUILD_DIR_TSAN/tools/vsgc_stress" --seeds 0:3 \
  --clients 3 --servers 1 --steps 8 --jobs 4 --out "$TSAN_OUT" > /dev/null
echo "TSan clean on batch_test and a parallel stress sweep"

echo "CI OK"
