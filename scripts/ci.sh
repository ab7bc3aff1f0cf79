#!/usr/bin/env bash
# CI entry point: configure + build with warnings-as-errors, run the
# full ctest suite, then smoke-test the spmcoh_run CLI (exercising
# the thread-pool executor and JSON export on every push), then rerun
# the suite under ASan+UBSan and the --jobs executor under TSan.
# Usage: scripts/ci.sh [build-dir]
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-ci}"

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

echo "== result regression check (pipeline 64-core vs golden) =="
# The 8-core golden probes 7 SPMDirs per FilterDir broadcast; this one
# probes 63, the fan-out the benchmark's pipeline-hybrid run exercises.
"$BUILD_DIR"/spmcoh_run --workload=pipeline --cores=64 --jobs=1 \
    --format=json --no-stats > "$BUILD_DIR"/pipeline64.json
python3 scripts/diff_results.py "$BUILD_DIR"/pipeline64.json \
    tests/golden/pipeline64_smoke.json

echo "== result regression check (CG 64-core vs golden) =="
# The shape of the benchmark's cg-hybrid workload.
"$BUILD_DIR"/spmcoh_run --workload=CG --cores=64 --jobs=1 \
    --format=json --no-stats > "$BUILD_DIR"/cg64.json
python3 scripts/diff_results.py "$BUILD_DIR"/cg64.json \
    tests/golden/cg64_smoke.json

echo "== result regression check (contend 64-core cache vs golden) =="
# The shape of the benchmark's contend-cache workload.
"$BUILD_DIR"/spmcoh_run --workload=contend --cores=64 --mode=cache \
    --jobs=1 --format=json --no-stats > "$BUILD_DIR"/contend64cache.json
python3 scripts/diff_results.py "$BUILD_DIR"/contend64cache.json \
    tests/golden/contend64_cache_smoke.json

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

echo "== large-mesh smoke test (256 cores, 16x16) =="
"$BUILD_DIR"/spmcoh_run --workload=CG --cores=256 --jobs=auto \
    --format=json > "$BUILD_DIR"/smoke256.json
grep -q '"cores":256' "$BUILD_DIR"/smoke256.json
grep -q '"meshWidth":16' "$BUILD_DIR"/smoke256.json

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

echo "== ThreadSanitizer build + --jobs executor =="
# The only threads left are the --jobs sweep workers: TSan runs the
# executor tests and the jobs=4 determinism sweep.
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
