#!/usr/bin/env bash
# CI entry point: builds the two supported configurations, lints changed
# files, and runs the test suite under both.
#
#   1. Release-ish (RelWithDebInfo) with -Werror          -> build/
#   2. ASan/UBSan with -Werror and FIX_DCHECK invariants  -> build-asan/
#   3. clang-tidy over changed files (all of src/ if the diff is empty or
#      git history is unavailable); no-ops when clang-tidy is missing
#   4. ctest in both trees; the asan tree also runs the `sanitizer-clean`
#      labeled smoke subset first for fast failure.
#   5. the `fault-injection` labeled suite as its own stage in both trees
#      (injected I/O faults, torn writes, crash-recovery matrix).
#   6. the WAL crash-recovery loop on its own in both trees (every injected
#      crash point of the data file and of the log, fsync fail-stop,
#      torn-tail discard), plus the bench_qps mixed read/write sweep (95/5
#      and 50/50 commit mixes with p50/p95/p99 and a `.metrics.prom`
#      snapshot carrying the fix.wal.* counters) and its shard sweep
#      (1/2/4/8 hash shards x 1/2/4/8 threads through the scatter-gather
#      path, parity-checked per op, mixed read/write per layout, own CSV
#      + snapshot carrying the fix.shard.* counters).
#   7. a TSan build running the `concurrency` labeled suite (thread pool,
#      metrics registry, concurrent queries, sharding, the wire codec and
#      the loopback fixd service tests). Index construction runs on one
#      thread, so the feature-cache and build-determinism tests are not in
#      it.
#   8. the fixd server smoke: boot the real binary on a loopback port over
#      the deterministic DBLP corpus (the one-shard layout fixctl build
#      writes), prove the wire path lossless with the bench_qps --remote
#      parity sweep, probe /stats over real HTTP, then SIGTERM and require
#      the clean-drain exit code (docs/FIXD.md); fixd must refuse a
#      directory without shards.manifest, naming `fixctl build`.
#   9. the concurrent-query stress test on its own, in both the Release and
#      TSan trees: many threads against one Database, results checked
#      against single-threaded baselines.
#  10. fixdb_scrub over every index page file persist_test produced
#      (FIX_PERSIST_TEST_DIR keeps the suite's output for this step).
#  11. the shard-parity smoke + quarantine drill: the same deterministic
#      corpus built into one and into four hash shards must answer a
#      query identically; the four-shard layout must scrub clean as a
#      directory; then one shard's page file is corrupted and the reopen
#      must quarantine that shard alone — same answers, a degraded marker,
#      and a now-failing scrub. A second twig with an interior // (the
#      whole-document doc-bitmap intersection) must match across layouts.
#      `fixctl gen` over a built layout must fail rather than write a
#      corpus that build would never read.
#  12. static-analysis: fixlint (the project-invariant analyzer, see
#      docs/STATIC_ANALYSIS.md) over the whole tree plus the `lint` ctest
#      label, and — when clang++ is installed — a FIX_THREAD_SAFETY=ON
#      build that turns the thread-safety annotations into compile errors.
#  13. docs-check: every relative markdown link in the repo's *.md files
#      must resolve, the documented headers must keep their thread-safety
#      contracts, and docs/FIXD.md must name every wire opcode and result
#      code the codec defines (plain grep/awk — no extra tooling).
#
# Usage: tools/ci.sh [base-ref]     (base-ref defaults to origin/main, falls
#                                    back to HEAD~1, for the changed-file set)

set -euo pipefail

cd "$(dirname "$0")/.."

JOBS="${JOBS:-$(nproc)}"
BASE_REF="${1:-origin/main}"

# One EXIT trap for everything the stages leave behind: the fixd server
# process (stage 8) and the temp dirs (stages 8, 10, and 11).
SRV_DIR=""
SRV_PID=""
SCRUB_DIR=""
SHARD_DIR=""
cleanup() {
  if [ -n "$SRV_PID" ] && kill -0 "$SRV_PID" 2>/dev/null; then
    kill -9 "$SRV_PID" 2>/dev/null || true
  fi
  if [ -n "$SRV_DIR" ]; then rm -rf "$SRV_DIR"; fi
  if [ -n "$SCRUB_DIR" ]; then rm -rf "$SCRUB_DIR"; fi
  if [ -n "$SHARD_DIR" ]; then rm -rf "$SHARD_DIR"; fi
}
trap cleanup EXIT

echo "=== [1/13] Release build (FIX_WERROR=ON) ==="
cmake -B build -S . -DFIX_WERROR=ON
cmake --build build -j "$JOBS"

echo "=== [2/13] ASan/UBSan build (FIX_WERROR=ON, dchecks on) ==="
cmake -B build-asan -S . -DFIX_WERROR=ON -DFIX_SANITIZE="address;undefined"
cmake --build build-asan -j "$JOBS"

echo "=== [3/13] clang-tidy on changed files ==="
if ! git rev-parse --verify --quiet "$BASE_REF" >/dev/null; then
  BASE_REF="HEAD~1"
fi
CHANGED=()
if git rev-parse --verify --quiet "$BASE_REF" >/dev/null; then
  mapfile -t CHANGED < <(git diff --name-only --diff-filter=d "$BASE_REF" -- \
      'src/*.cc' 'src/*.h' | grep '\.cc$' || true)
fi
if [ "${#CHANGED[@]}" -gt 0 ]; then
  tools/run_clang_tidy.sh build "${CHANGED[@]}"
else
  tools/run_clang_tidy.sh build
fi

echo "=== [4/13] Tests ==="
(cd build-asan && ctest -L sanitizer-clean --output-on-failure)
(cd build-asan && ctest --output-on-failure -j "$JOBS")
(cd build && ctest --output-on-failure -j "$JOBS")

echo "=== [5/13] Fault-injection suite (Release + ASan) ==="
(cd build && ctest -L fault-injection --output-on-failure -j "$JOBS")
(cd build-asan && ctest -L fault-injection --output-on-failure -j "$JOBS")

echo "=== [6/13] WAL crash loop + mixed read/write bench ==="
# The COW+WAL acceptance loop on its own: FaultInjectionPageIo crashes the
# data file and the log at every write index of an InsertDocument commit,
# plus the fsync fail-stop latch, the torn-tail discard, the online
# rebuild swap, and the upgrade of a pre-v7 index by rebuild at open
# (RebuildUpgradesPreV7Index crashes that rebuild at every write). ASan
# re-runs it to catch lifetime bugs in the replay path.
(cd build && ctest -R '^RecoveryTest\.(Wal|Rebuild)' --output-on-failure)
(cd build-asan && ctest -R '^RecoveryTest\.(Wal|Rebuild)' --output-on-failure)
# Readers at full service while a single writer commits generations: the
# bench_qps mixed sweep (95/5 and 50/50 op mixes) FIX_CHECKs reader
# failures and per-commit generation accounting, and writes p50/p95/p99
# plus a .metrics.prom snapshot next to its CSV. The grep pins the
# snapshot's WAL counters: a sweep that commits nothing through the log is
# a broken sweep.
cmake --build build -j "$JOBS" --target bench_qps
(cd build/bench && ./bench_qps)
grep -q '^fix_wal_appends [1-9]' build/bench/bench_qps.csv.metrics.prom
# The shard sweep (1/2/4/8 shards x 1/2/4/8 threads, parity-checked
# against the 1-shard baseline, with a mixed read/write phase per layout)
# writes its own CSV + snapshot; the greps pin that the scatter-gather
# path actually ran and routed inserts.
grep -q '^fix_shard_scatters [1-9]' \
    build/bench/bench_qps_shards.csv.metrics.prom
grep -q '^fix_shard_inserts [1-9]' \
    build/bench/bench_qps_shards.csv.metrics.prom

echo "=== [7/13] TSan build + concurrency/observability suites ==="
cmake -B build-tsan -S . -DFIX_WERROR=ON -DFIX_SANITIZE="thread"
cmake --build build-tsan -j "$JOBS"
(cd build-tsan && ctest -L concurrency --output-on-failure -j "$JOBS")
# Snapshot-while-writing and trace-sink races only surface under TSan;
# the observability label also runs in the Release tree via stage 4.
(cd build-tsan && ctest -L observability --output-on-failure -j "$JOBS")

echo "=== [8/13] fixd server smoke (loopback) ==="
# The real binary end to end (docs/FIXD.md): serve the deterministic DBLP
# corpus, prove the wire path lossless with the bench_qps --remote parity
# sweep (every result byte-identical to in-process execution), probe the
# HTTP sidecar, then SIGTERM and require the clean-drain exit code.
cmake --build build -j "$JOBS" --target fixd fixctl bench_qps
SRV_DIR="$(mktemp -d)"
build/examples/fixctl gen "$SRV_DIR/db" dblp
# Depth 6 is the paper's DBLP depth limit and what bench_qps builds for
# its in-process ground truth; byte-identical ordering requires the same
# index shape on both sides.
build/examples/fixctl build "$SRV_DIR/db" --depth 6
build/src/server/fixd --dir "$SRV_DIR/db" --port 0 \
    >"$SRV_DIR/fixd.out" 2>"$SRV_DIR/fixd.err" &
SRV_PID=$!
# --port 0 binds a kernel-assigned port; parse it from the startup line.
SRV_PORT=""
for _ in $(seq 1 100); do
  SRV_PORT="$(sed -n 's/^fixd: listening on .*:\([0-9]*\)$/\1/p' \
      "$SRV_DIR/fixd.out")"
  if [ -n "$SRV_PORT" ]; then break; fi
  sleep 0.1
done
if [ -z "$SRV_PORT" ]; then
  echo "error: fixd never printed its listen line" >&2
  cat "$SRV_DIR/fixd.err" >&2
  exit 1
fi
build/examples/fixctl ping "127.0.0.1:$SRV_PORT"
(cd build/bench && ./bench_qps --remote "127.0.0.1:$SRV_PORT")
# curl-equivalent /stats probe over real HTTP (bash /dev/tcp, so the stage
# needs no curl): the sidecar must expose the server's own live counters.
exec 3<>"/dev/tcp/127.0.0.1/$SRV_PORT"
printf 'GET /stats HTTP/1.1\r\nHost: ci\r\nConnection: close\r\n\r\n' >&3
HTTP_STATS="$(cat <&3)"
exec 3<&- 3>&-
grep -q '^fixd_requests_total [1-9]' <<<"$HTTP_STATS"
grep -q 'fixd_request_latency_us' <<<"$HTTP_STATS"
# Graceful drain: SIGTERM must finish in-flight work, exit 0, and say so.
kill -TERM "$SRV_PID"
SRV_STATUS=0
wait "$SRV_PID" || SRV_STATUS=$?
SRV_PID=""
if [ "$SRV_STATUS" -ne 0 ]; then
  echo "error: fixd drain exited with status $SRV_STATUS" >&2
  cat "$SRV_DIR/fixd.err" >&2
  exit 1
fi
grep -q '^fixd: drained cleanly$' "$SRV_DIR/fixd.out"
# fixd serves only sharded layouts: a directory without shards.manifest
# must be refused with a non-zero exit and a message naming the command
# that builds one.
mkdir "$SRV_DIR/bare"
if build/src/server/fixd --dir "$SRV_DIR/bare" --port 0 \
    >"$SRV_DIR/bare.out" 2>"$SRV_DIR/bare.err"; then
  echo "error: fixd served a directory without shards.manifest" >&2
  exit 1
fi
grep -q "no shards.manifest); run \`fixctl build $SRV_DIR/bare\`" \
    "$SRV_DIR/bare.err"
rm -rf "$SRV_DIR"
SRV_DIR=""

echo "=== [9/13] Concurrent-query stress (Release + TSan) ==="
# The data-race canary for the whole read path: many threads through one
# Database (lock-striped buffer pool, shared B+-tree, plan cache) with
# results diffed against single-threaded baselines. TSan turns a silent
# race into a hard failure.
(cd build && ctest -R '^ConcurrentQueryTest' --output-on-failure -j "$JOBS")
(cd build-tsan && ctest -R '^ConcurrentQueryTest' --output-on-failure \
    -j "$JOBS")

echo "=== [10/13] Scrub of persist_test databases ==="
SCRUB_DIR="$(mktemp -d)"
(cd build && FIX_PERSIST_TEST_DIR="$SCRUB_DIR" ctest -R '^PersistTest' \
    --output-on-failure -j "$JOBS")
mapfile -t INDEX_FILES < <(find "$SCRUB_DIR" -name '*.fix' | sort)
if [ "${#INDEX_FILES[@]}" -eq 0 ]; then
  echo "error: persist_test left no index files to scrub" >&2
  exit 1
fi
build/tools/fixdb_scrub "${INDEX_FILES[@]}"

echo "=== [11/13] Shard-parity smoke + quarantine drill ==="
# The scatter-gather contract end to end through the real binaries: the
# same deterministic corpus built into one shard (fixctl build's default)
# and into four hash shards must produce the identical result count and
# doc/node pairs. fixdb_scrub must walk the four-shard directory clean.
# Then the drill: corrupt one shard's page file, reopen — the damaged
# shard alone quarantines to its full scan, the answers must not change,
# the output must carry the degraded marker, and the scrub must now fail.
cmake --build build -j "$JOBS" --target fixctl fixdb_scrub
SHARD_DIR="$(mktemp -d)"
build/examples/fixctl gen "$SHARD_DIR/one" tcmd
build/examples/fixctl gen "$SHARD_DIR/sharded" tcmd
build/examples/fixctl build "$SHARD_DIR/one"
build/examples/fixctl build "$SHARD_DIR/sharded" --shards 4
# gen (and load) must refuse a directory that holds a layout: build would
# rebalance the layout's own documents and never read the new corpus, so
# the queries below would silently answer from the old one.
if build/examples/fixctl gen "$SHARD_DIR/one" dblp \
    2> "$SHARD_DIR/regen.err"; then
  echo "error: fixctl gen wrote a corpus under a built layout" >&2
  exit 1
fi
grep -q 'already holds a sharded layout' "$SHARD_DIR/regen.err"
SHARD_XPATH="//author/contact/email"
# Normalize both outputs to the comparable lines: the result count and
# the printed doc/node pairs (the -o extraction drops the shard count).
build/examples/fixctl query "$SHARD_DIR/one" "$SHARD_XPATH" \
    | grep -oE '^[0-9]+ result|doc [0-9]+ node [0-9]+' \
    > "$SHARD_DIR/one.txt"
build/examples/fixctl query "$SHARD_DIR/sharded" "$SHARD_XPATH" \
    | grep -oE '^[0-9]+ result|doc [0-9]+ node [0-9]+' \
    > "$SHARD_DIR/sharded.txt"
diff -u "$SHARD_DIR/one.txt" "$SHARD_DIR/sharded.txt"
# A twig with an interior // makes the whole-document lookup intersect
# per-part candidate documents (the doc-bitmap path); it must have results
# and answer identically in both layouts.
SHARD_XPATH2="//article[.//email]//section/p"
build/examples/fixctl query "$SHARD_DIR/one" "$SHARD_XPATH2" \
    | grep -oE '^[0-9]+ result|doc [0-9]+ node [0-9]+' \
    > "$SHARD_DIR/one2.txt"
grep -qE '^[1-9][0-9]* result' "$SHARD_DIR/one2.txt"
build/examples/fixctl query "$SHARD_DIR/sharded" "$SHARD_XPATH2" \
    | grep -oE '^[0-9]+ result|doc [0-9]+ node [0-9]+' \
    > "$SHARD_DIR/sharded2.txt"
diff -u "$SHARD_DIR/one2.txt" "$SHARD_DIR/sharded2.txt"
build/tools/fixdb_scrub --wal "$SHARD_DIR/sharded"
dd if=/dev/zero of="$SHARD_DIR/sharded/gen-0/shard-0001/main.fix" \
    bs=1 seek=8192 count=4096 conv=notrunc status=none
build/examples/fixctl query "$SHARD_DIR/sharded" "$SHARD_XPATH" \
    > "$SHARD_DIR/degraded.out"
grep -q 'shard(s) degraded' "$SHARD_DIR/degraded.out"
grep -oE '^[0-9]+ result|doc [0-9]+ node [0-9]+' "$SHARD_DIR/degraded.out" \
    > "$SHARD_DIR/degraded.txt"
diff -u "$SHARD_DIR/one.txt" "$SHARD_DIR/degraded.txt"
if build/tools/fixdb_scrub "$SHARD_DIR/sharded" >/dev/null 2>&1; then
  echo "error: fixdb_scrub passed a corrupted shard page file" >&2
  exit 1
fi
rm -rf "$SHARD_DIR"
SHARD_DIR=""

echo "=== [12/13] static-analysis: fixlint + thread-safety annotations ==="
# fixlint enforces the project invariants a generic linter cannot know
# (lock order vs ARCHITECTURE.md, metric/options doc drift, RAII-only
# locking, banned functions, include guards); one finding fails CI. See
# docs/STATIC_ANALYSIS.md for the catalog and suppression syntax.
cmake --build build -j "$JOBS" --target fixlint
build/tools/fixlint --root .
(cd build && ctest -L lint --output-on-failure)
if command -v clang++ >/dev/null 2>&1; then
  # Only clang's frontend implements -Wthread-safety; this build turns the
  # FIX_GUARDED_BY/FIX_REQUIRES annotations into compile errors.
  cmake -B build-tsafety -S . -DCMAKE_CXX_COMPILER=clang++ \
      -DFIX_THREAD_SAFETY=ON
  cmake --build build-tsafety -j "$JOBS"
else
  echo "static-analysis: clang++ not found; skipping the FIX_THREAD_SAFETY" \
      "build (the annotations are only verifiable under clang)."
fi

echo "=== [13/13] docs-check ==="
# Every relative link in tracked markdown must resolve. grep emits
# `file:](target)`; the loop strips the wrapper, drops externals and pure
# anchors, and resolves the rest against the linking file's directory.
DOCS_BROKEN=0
while IFS=: read -r md_file link; do
  target="${link#](}"
  target="${target%)}"
  target="${target%%#*}"   # in-page anchors: check only the file part
  [ -z "$target" ] && continue
  case "$target" in
    http://*|https://*|mailto:*) continue ;;
  esac
  if [ ! -e "$(dirname "$md_file")/$target" ]; then
    echo "docs-check: broken link in $md_file: $link" >&2
    DOCS_BROKEN=1
  fi
done < <(git ls-files '*.md' | xargs grep -oHE '\]\([^)]+\)' || true)
# The documented API contracts must not silently disappear: the headers the
# docs point at keep their thread-safety sections (cheap stand-in for a
# doc-coverage linter; no new tooling).
for hdr in src/core/database.h src/core/fix_index.h src/storage/btree.h \
           src/common/wire.h; do
  if ! grep -qi "thread-safety" "$hdr"; then
    echo "docs-check: $hdr lost its thread-safety contract comment" >&2
    DOCS_BROKEN=1
  fi
done
# docs/FIXD.md is the wire protocol's normative spec: every opcode and
# result code the codec defines must be named there, in backticks. The awk
# pass reads the enumerators straight out of wire.h (Op names convert
# kQueryBatch -> QUERY_BATCH, Code names just drop the k), so adding one
# to the code without specifying it fails CI.
while read -r wire_name; do
  if ! grep -q "\`$wire_name\`" docs/FIXD.md; then
    echo "docs-check: docs/FIXD.md does not document wire name" \
        "'$wire_name' from src/common/wire.h" >&2
    DOCS_BROKEN=1
  fi
done < <(awk '
  /^enum class Op/ { in_op = 1; next }
  /^enum class Code/ { in_code = 1; next }
  /^};/ { in_op = 0; in_code = 0 }
  in_op && match($0, /k[A-Za-z]+/) {
    n = substr($0, RSTART + 1, RLENGTH - 1)
    gsub(/[A-Z]/, "_&", n); sub(/^_/, "", n)
    print toupper(n)
  }
  in_code && match($0, /k[A-Za-z]+/) {
    print substr($0, RSTART + 1, RLENGTH - 1)
  }' src/common/wire.h)
if [ "$DOCS_BROKEN" -ne 0 ]; then
  echo "docs-check: failures above" >&2
  exit 1
fi

echo "ci.sh: all green."
