#!/usr/bin/env bash
# CI entry point: configure + build with warnings-as-errors, run the
# full ctest suite, then smoke-test the spmcoh_run CLI (exercising
# the --jobs worker pool and JSON export on every push), then rerun
# the suite under ASan+UBSan and the --jobs workers under TSan.
# Usage: scripts/ci.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-ci}"

echo "== no environment-variable hooks in the simulator =="
# Configuration comes from the experiment spec; a getenv read at
# static init is process-wide and can throw before main.
if grep -rn 'getenv' src; then
    echo "getenv found under src/"; exit 1
fi

echo "== statistics live in their component =="
# A component's counters and histograms are members registered with
# its StatGroup; a reference member into group-owned storage puts a
# separate heap node on the hot path.
if grep -rnE --include='*.hh' '^\s*(Counter|Histogram)\s*&\s*\w+\s*;' src; then
    echo "Counter/Histogram reference member found under src/"; exit 1
fi

cmake -B "$BUILD_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSPMCOH_WERROR=ON
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

echo "== spmcoh_run smoke test =="
"$BUILD_DIR"/spmcoh_run --workload=CG --cores=8 --jobs=2 \
    --format=json > "$BUILD_DIR"/smoke.json
# The run must have produced a non-empty result set.
grep -q '"workload":"CG"' "$BUILD_DIR"/smoke.json

echo "== result regression check (CG 8-core vs golden) =="
"$BUILD_DIR"/spmcoh_run --workload=CG --cores=8 --jobs=2 \
    --format=json --no-stats > "$BUILD_DIR"/smoke8.json
python3 scripts/diff_results.py "$BUILD_DIR"/smoke8.json \
    tests/golden/cg8_smoke.json

echo "== workload registry smoke (>=14 parameterized workloads) =="
"$BUILD_DIR"/spmcoh_run --list-workloads \
    > "$BUILD_DIR"/workloads.txt
# One unindented line per workload; indented lines are the phase
# graph shape and --wparam parameter descriptions.
WORKLOADS=$(grep -c '^[A-Za-z0-9]' "$BUILD_DIR"/workloads.txt)
test "$WORKLOADS" -ge 14 || {
    echo "only $WORKLOADS workloads registered"; exit 1; }
grep -q -- '--wparam=grids=' "$BUILD_DIR"/workloads.txt
grep -q -- '--wparam=aliased=' "$BUILD_DIR"/workloads.txt
# Every workload advertises its phase-graph shape.
PHASES=$(grep -c '^  phase graph: ' "$BUILD_DIR"/workloads.txt)
test "$PHASES" -eq "$WORKLOADS" || {
    echo "phase-graph shape missing ($PHASES of $WORKLOADS)"
    exit 1; }

echo "== result regression check (pipeline 8-core vs golden) =="
"$BUILD_DIR"/spmcoh_run --workload=pipeline --cores=8 --jobs=2 \
    --format=json --no-stats > "$BUILD_DIR"/pipeline8.json
python3 scripts/diff_results.py "$BUILD_DIR"/pipeline8.json \
    tests/golden/pipeline8_smoke.json

echo "== full-stats regression checks (the benchmark's 64-core shapes) =="
# CG hybrid, pipeline hybrid and contend cache-only at 64 cores are the
# benchmark's three workloads. Their goldens keep every counter, so a
# change that moves a component counter (core.storeForwards, say)
# without moving cycles fails here. The pipeline run probes 63 SPMDirs
# per FilterDir broadcast; the 8-core golden probes 7.
for shape in "pipeline64_smoke --workload=pipeline" \
             "cg64_smoke --workload=CG" \
             "contend64_cache_smoke --workload=contend --mode=cache"; do
    read -r golden args <<< "$shape"
    # shellcheck disable=SC2086  # $args is a list of flags
    "$BUILD_DIR"/spmcoh_run $args --cores=64 --jobs=1 --format=json \
        > "$BUILD_DIR"/"$golden".json
    cmp "$BUILD_DIR"/"$golden".json tests/golden/"$golden".json || {
        echo "$golden full-stats output diverged from the golden"
        exit 1; }
done

echo "== result regression check (stencil 8-core vs golden) =="
"$BUILD_DIR"/spmcoh_run --workload=stencil --cores=8 \
    --wparam=grids=7 --jobs=2 --format=json --no-stats \
    > "$BUILD_DIR"/stencil8.json
python3 scripts/diff_results.py "$BUILD_DIR"/stencil8.json \
    tests/golden/stencil8_smoke.json

echo "== protocol registry smoke (>=3 protocols) =="
"$BUILD_DIR"/spmcoh_run --list-protocols \
    > "$BUILD_DIR"/protocols.txt
PROTOCOLS=$(grep -c '^[a-z]' "$BUILD_DIR"/protocols.txt)
test "$PROTOCOLS" -ge 3 || {
    echo "only $PROTOCOLS protocols registered"; exit 1; }
grep -q '^spm-hybrid (default)' "$BUILD_DIR"/protocols.txt
grep -q '^mesi' "$BUILD_DIR"/protocols.txt
grep -q '^dragon' "$BUILD_DIR"/protocols.txt

echo "== two-protocol sweep smoke test =="
"$BUILD_DIR"/spmcoh_run --workload=contend --cores=8 --jobs=2 \
    --protocol=spm-hybrid,dragon --format=json \
    > "$BUILD_DIR"/protosweep.json
# The non-default point must carry its protocol in spec and label.
grep -q '"protocol":"dragon"' "$BUILD_DIR"/protosweep.json
grep -q '"label":"contend/hybrid-proto/dragon/8c' \
    "$BUILD_DIR"/protosweep.json

echo "== result regression check (CG 8-core mesi vs golden) =="
"$BUILD_DIR"/spmcoh_run --workload=CG --cores=8 --protocol=mesi \
    --jobs=2 --format=json --no-stats > "$BUILD_DIR"/cg8mesi.json
python3 scripts/diff_results.py "$BUILD_DIR"/cg8mesi.json \
    tests/golden/cg8_mesi_smoke.json

echo "== result regression check (gather 8-core vs golden) =="
"$BUILD_DIR"/spmcoh_run --workload=gather --cores=8 --jobs=2 \
    --format=json --no-stats > "$BUILD_DIR"/gather8.json
python3 scripts/diff_results.py "$BUILD_DIR"/gather8.json \
    tests/golden/gather8_smoke.json

echo "== result regression check (contend 8-core vs golden) =="
"$BUILD_DIR"/spmcoh_run --workload=contend --cores=8 --jobs=2 \
    --format=json --no-stats > "$BUILD_DIR"/contend8.json
python3 scripts/diff_results.py "$BUILD_DIR"/contend8.json \
    tests/golden/contend8_smoke.json

echo "== full-stats regression check (contend 8-core protocols vs golden) =="
# The other goldens drop stats (--no-stats); this one keeps every
# counter and histogram, including the mshrOccupancy/txnOccupancy
# samples of the per-line tables' sizes, and must match byte for byte.
"$BUILD_DIR"/spmcoh_run --workload=contend --cores=8 \
    --mode=cache,hybrid-proto --protocol=spm-hybrid,moesi,mesi,dragon \
    --jobs=2 --format=json > "$BUILD_DIR"/contend8_protocols_full.json
cmp "$BUILD_DIR"/contend8_protocols_full.json \
    tests/golden/contend8_protocols_full.json || {
    echo "full-stats output diverged from the golden"; exit 1; }

echo "== full-stats regression check (EP 8-core vs golden) =="
# No other golden schedules an event beyond the event queue's
# 4096-tick ring; EP at 8 cores schedules tens of thousands, so this
# one covers the overflow heap and the migration of far events into
# the ring.
"$BUILD_DIR"/spmcoh_run --workload=EP --cores=8 \
    --mode=cache,hybrid-proto --jobs=2 --format=json \
    > "$BUILD_DIR"/ep8_full.json
cmp "$BUILD_DIR"/ep8_full.json tests/golden/ep8_full.json || {
    echo "EP full-stats output diverged from the golden"; exit 1; }

echo "== full-stats regression check (gather aliased 8-core vs golden) =="
# The only golden whose guarded accesses are served by an SPM (local
# and remote), so the L1 write of each such store runs.
"$BUILD_DIR"/spmcoh_run --workload=gather --wparam=aliased=1 --cores=8 \
    --mode=cache,hybrid-proto --jobs=2 --format=json \
    > "$BUILD_DIR"/gather8_aliased_full.json
cmp "$BUILD_DIR"/gather8_aliased_full.json \
    tests/golden/gather8_aliased_full.json || {
    echo "gather aliased full-stats output diverged from the golden"
    exit 1; }

echo "== full-stats regression check (filter x prefetcher variants vs golden) =="
# The only golden on the ablation axes: CG at 8 cores, two filter
# sizes by prefetcher on/off on both modes. The labels, the variant
# key and the filterEntries/prefetcherEnabled params come from the
# spec's two knobs, and must match byte for byte.
"$BUILD_DIR"/spmcoh_run --workload=CG --cores=8 --mode=cache,hybrid-proto \
    --filter-entries=4,48 --prefetcher=on,off --jobs=2 --format=json \
    > "$BUILD_DIR"/variants8_full.json
cmp "$BUILD_DIR"/variants8_full.json tests/golden/variants8_full.json || {
    echo "variant-axis full-stats output diverged from the golden"
    exit 1; }

echo "== full-stats regression check (stencil 8-core cache vs golden) =="
# Long strided streams fill every prefetch slot, so this one covers the
# L1's maxPrefetchInFlight throttle.
"$BUILD_DIR"/spmcoh_run --workload=stencil --cores=8 --mode=cache \
    --jobs=1 --format=json > "$BUILD_DIR"/stencil8_cache_full.json
cmp "$BUILD_DIR"/stencil8_cache_full.json \
    tests/golden/stencil8_cache_full.json || {
    echo "stencil cache full-stats output diverged from the golden"
    exit 1; }

echo "== result regression check (pipeline 2-chip 16-core vs golden) =="
"$BUILD_DIR"/spmcoh_run --workload=pipeline --cores=16 --chips=2 \
    --jobs=2 --format=json --no-stats > "$BUILD_DIR"/pipeline2x8.json
python3 scripts/diff_results.py "$BUILD_DIR"/pipeline2x8.json \
    tests/golden/pipeline2x8_smoke.json

echo "== single-chip equivalence (--chips=1 changes nothing) =="
# An explicit --chips=1 must be byte-identical to the implicit
# default — the fabric must not exist at one chip.
"$BUILD_DIR"/spmcoh_run --workload=pipeline --cores=8 --chips=1 \
    --jobs=2 --format=json --no-stats > "$BUILD_DIR"/pipeline8_1chip.json
cmp "$BUILD_DIR"/pipeline8_1chip.json tests/golden/pipeline8_smoke.json || {
    echo "--chips=1 diverged from the single-chip golden"; exit 1; }

echo "== cross-chip fabric smoke (home agent + links in stats) =="
"$BUILD_DIR"/spmcoh_run --workload=xpipeline --cores=16 --chips=2 \
    --far-mem-lat=200 --format=json > "$BUILD_DIR"/xchip.json
grep -q '"homeagent"' "$BUILD_DIR"/xchip.json
grep -q '"iclink"' "$BUILD_DIR"/xchip.json
grep -q '"farmem"' "$BUILD_DIR"/xchip.json
# Link traffic and home-agent crossings must be non-zero.
grep -q '"upPackets":[1-9]' "$BUILD_DIR"/xchip.json
grep -q '"crossings":[1-9]' "$BUILD_DIR"/xchip.json

echo "== determinism stress (jobs=1 vs jobs=4, run twice each) =="
# A multi-axis sweep (2 workloads x 2 protocols x 2 scales) executed
# serially and on 4 worker threads, twice each, must produce four
# byte-identical JSON documents. This is the gate that catches any
# shared mutable state between sweep points (allocator-address
# ordering, pool reuse across experiments, stray globals) — the
# per-experiment goldens above cannot see cross-experiment leaks.
# The --chips axis rides along so multi-chip points (with their
# home-agent and link state) are covered by the same gate.
for run in 1a 1b 4a 4b; do
    jobs="${run%[ab]}"
    "$BUILD_DIR"/spmcoh_run --workload=gather,contend \
        --protocol=spm-hybrid,mesi --scale=1.0,1.25 --cores=8 \
        --chips=1,2 --jobs="$jobs" --format=json --no-stats \
        > "$BUILD_DIR"/determinism_"$run".json
done
for run in 1b 4a 4b; do
    cmp "$BUILD_DIR"/determinism_1a.json \
        "$BUILD_DIR"/determinism_"$run".json || {
        echo "determinism stress: run $run diverged from run 1a"
        exit 1; }
done

echo "== selfperf regression gate (loose tolerance) =="
"$BUILD_DIR"/bench_selfperf --reps=3 \
    --out="$BUILD_DIR"/selfperf.json
python3 scripts/check_selfperf.py "$BUILD_DIR"/selfperf.json

echo "== selfperf rejects malformed counts (no simulation runs) =="
# Trailing junk and counts past 32 bits must fail at parse time, not
# run as --reps=1 or as an 8-core capture.
for bad in --reps=1x --cores=4294967304; do
    rc=0
    "$BUILD_DIR"/bench_selfperf "$bad" > /dev/null 2>&1 || rc=$?
    test "$rc" -eq 2 || {
        echo "bench_selfperf $bad exited $rc, expected 2"; exit 1; }
done

echo "== figure presets (fig8 vs golden, table smokes) =="
# Figure 8 is six 64-core points; its full JSON must match byte for
# byte.
"$BUILD_DIR"/spmcoh_run --figure=fig8 --format=json --jobs=auto \
    > "$BUILD_DIR"/fig8.json
cmp "$BUILD_DIR"/fig8.json tests/golden/fig8.json || {
    echo "--figure=fig8 diverged from the golden"; exit 1; }
# The tables run no simulation. Table 1 checks the built system and
# table 2 the paper's program structure; both fail on a mismatch.
"$BUILD_DIR"/spmcoh_run --figure=table1 > "$BUILD_DIR"/table1.txt
grep -q '^config check: OK$' "$BUILD_DIR"/table1.txt
"$BUILD_DIR"/spmcoh_run --figure=table2 > "$BUILD_DIR"/table2.txt
grep -q '^SP ' "$BUILD_DIR"/table2.txt

echo "== large-mesh smoke test (256 cores, 16x16) =="
"$BUILD_DIR"/spmcoh_run --workload=CG --cores=256 --jobs=auto \
    --format=json > "$BUILD_DIR"/smoke256.json
grep -q '"cores":256' "$BUILD_DIR"/smoke256.json
grep -q '"meshWidth":16' "$BUILD_DIR"/smoke256.json

echo "== host memory guard (256-core pipeline peak RSS) =="
# Caches, SPMs and cache sets allocate storage on first use. This run
# peaks near 57 MB that way, near 88 MB when every L1 line, cache set
# and SPM byte is allocated up front, and near 142 MB when the L2
# payloads are too, so eager allocation fails here.
python3 - "$BUILD_DIR"/spmcoh_run <<'PY'
import resource, subprocess, sys
LIMIT_MB = 75
subprocess.run([sys.argv[1], "--workload=pipeline", "--cores=256",
                "--mode=hybrid-proto", "--jobs=1", "--format=json"],
               stdout=subprocess.DEVNULL, check=True)
mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"peak RSS {mb:.1f} MB (limit {LIMIT_MB} MB)")
sys.exit(mb > LIMIT_MB)
PY

echo "== ASan+UBSan build + full test suite =="
# Memory and undefined-behaviour errors abort the test that hits them.
# Excluded: the 128-core sharer-bit shift in DirectorySlice (ROADMAP
# open item 1) trips UBSan in this one test until it is fixed.
ASAN_DIR="$BUILD_DIR-asan"
SAN_FLAGS="-fsanitize=address,undefined -fno-sanitize-recover=undefined"
cmake -B "$ASAN_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="$SAN_FLAGS -fno-omit-frame-pointer" \
    -DCMAKE_EXE_LINKER_FLAGS="$SAN_FLAGS"
cmake --build "$ASAN_DIR" -j "$(nproc)"
GTEST_FILTER='-ExperimentTopology.LargeMeshJsonByteIdenticalAcrossWorkers' \
    ctest --test-dir "$ASAN_DIR" --output-on-failure -j "$(nproc)"
# FilterDir requests stay parked as pooled messages across the events
# of a broadcast, its re-entry and its lookup; this run parks checks
# 437,870 times. No golden parks a map-invalidation; the FilterDirQueue
# tests above do.
"$ASAN_DIR"/spmcoh_run --workload=pipeline --cores=64 --jobs=1 \
    --format=json > "$ASAN_DIR"/pipeline64_smoke.json
cmp "$ASAN_DIR"/pipeline64_smoke.json tests/golden/pipeline64_smoke.json || {
    echo "pipeline64_smoke under ASan+UBSan diverged from the golden"
    exit 1; }

echo "== ThreadSanitizer build + --jobs workers =="
# The only threads left are the --jobs sweep workers: TSan runs the
# worker-pool tests and the jobs=4 determinism sweep.
TSAN_DIR="$BUILD_DIR-tsan"
cmake -B "$TSAN_DIR" -S . \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DSPMCOH_TSAN=ON
cmake --build "$TSAN_DIR" -j "$(nproc)" \
    --target test_executor spmcoh_run
"$TSAN_DIR"/test_executor
"$TSAN_DIR"/spmcoh_run --workload=gather,contend \
    --protocol=spm-hybrid,mesi --cores=8 --chips=1,2 --jobs=4 \
    --format=json --no-stats > /dev/null
echo "ok"
