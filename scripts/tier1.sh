#!/usr/bin/env bash
# Tier-1 verification (see ROADMAP.md): full build + test suite, then the
# concurrency-sensitive tests again under ThreadSanitizer to vet the
# lock-free obs metrics / trace-span plumbing, the sampling profiler's
# signal handler, the thread pool and the corpus's render-once splits; the
# feature and GEMM kernels, corpus rendering, streaming, daemon and pool
# tests again under ASan+UBSan; then a quick-scale
# end-to-end run with the flight recorder on, gated against the committed
# baseline report via `phonolid report-diff`, plus a profiled run that must
# yield folded stacks and >= 95% sample attribution.
set -euo pipefail
cd "$(dirname "$0")/.."

cmake -B build -S .
cmake --build build -j
# Unit/integration tests must be hermetic: a restored $PHONOLID_CACHE would
# serve the integration fixture warm artifacts and zero out the stage times
# it asserts on.  The artifact store is exercised explicitly below.
(cd build && env -u PHONOLID_CACHE ctest --output-on-failure -j)

cmake -B build-tsan -S . -DPHONOLID_SANITIZE=thread
cmake --build build-tsan -j --target test_obs test_thread_pool test_pipeline_store test_la_kernels test_perf_energy test_profiler test_streaming test_serve test_corpus
./build-tsan/tests/test_obs
./build-tsan/tests/test_thread_pool
./build-tsan/tests/test_pipeline_store
./build-tsan/tests/test_la_kernels
./build-tsan/tests/test_perf_energy
./build-tsan/tests/test_profiler
./build-tsan/tests/test_streaming
./build-tsan/tests/test_serve
./build-tsan/tests/test_corpus

# ASan+UBSan side build of the feature kernels, the SIMD GEMM kernels (raw
# pointer and tail arithmetic) and the code that feeds them (corpus
# rendering, streaming features, the daemon's PCM admission, the pool): any
# out-of-bounds access, use-after-free or undefined arithmetic aborts.
cmake -B build-asan -S . "-DPHONOLID_SANITIZE=address,undefined"
cmake --build build-asan -j --target test_fft test_filterbank test_mfcc_plp test_features test_streaming test_serve test_thread_pool test_la_kernels test_corpus
./build-asan/tests/test_la_kernels
./build-asan/tests/test_fft
./build-asan/tests/test_filterbank
./build-asan/tests/test_mfcc_plp
./build-asan/tests/test_features
./build-asan/tests/test_streaming
./build-asan/tests/test_serve
./build-asan/tests/test_thread_pool
./build-asan/tests/test_corpus

# Kernel microbenchmark smoke: one repetition at minimal time, just to prove
# the harness runs and every registered shape executes.  One thread, as
# every per-kernel comparison must be: above the kernels' parallel
# threshold a wider pool reports multi-thread wall time next to main-thread
# CPU time.
cmake --build build -j --target bench_kernels
PHONOLID_THREADS=1 ./build/bench/bench_kernels --benchmark_min_time=0.01

# End-to-end observability smoke: a traced quick run must produce a loadable
# Chrome trace, Prometheus text, a decision ledger, and a schema-v1 report
# that (a) diffs clean against itself and (b) keeps the deterministic
# accuracy leaves (EER/Cavg) and the quality section (Cllr, adoption
# precision) within budget of the committed baseline.  Span timings are
# never gated here (they are machine-dependent); BENCH_*.json track the
# reference trajectory.
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
# Artifact store: $PHONOLID_CACHE (CI restores one across runs) or a temp
# dir.  Either way the cold/warm pair below shares it.
CACHE_DIR="${PHONOLID_CACHE:-$TMP/cache}"
PHONOLID_TRACE="$TMP/quick.trace.json" PHONOLID_PROM="$TMP/quick.prom" \
  ./build/tools/phonolid run --scale quick --report "$TMP/quick.report.json" \
  --ledger "$TMP/quick.ledger.jsonl" --cache-dir "$CACHE_DIR"
test -s "$TMP/quick.trace.json"
test -s "$TMP/quick.prom"
test -s "$TMP/quick.ledger.jsonl"
./build/tools/phonolid report-diff "$TMP/quick.report.json" "$TMP/quick.report.json" > /dev/null
./build/tools/phonolid report-diff BENCH_quick_run.json "$TMP/quick.report.json" \
  --max-eer-delta 0.02 --max-cavg-delta 0.02 --max-cllr-delta 0.25 \
  --max-adoption-precision-drop 0.05

# Artifact-store determinism gate: the warm run (every stage a cache hit)
# must reproduce the cold run's accuracy leaves *exactly* — zero EER/Cavg
# delta — while skipping AM training and decoding entirely.  The decision
# ledger must come out byte-identical regardless of thread count or cache
# temperature: it is the explainability record, so any nondeterminism here
# is a bug, not noise.
PHONOLID_THREADS=1 ./build/tools/phonolid run --scale quick \
  --report "$TMP/warm.report.json" --ledger "$TMP/warm_t1.ledger.jsonl" \
  --cache-dir "$CACHE_DIR"
PHONOLID_THREADS=4 ./build/tools/phonolid run --scale quick \
  --ledger "$TMP/warm_t4.ledger.jsonl" --cache-dir "$CACHE_DIR"
cmp "$TMP/quick.ledger.jsonl" "$TMP/warm_t1.ledger.jsonl"
cmp "$TMP/quick.ledger.jsonl" "$TMP/warm_t4.ledger.jsonl"
./build/tools/phonolid report-diff "$TMP/quick.report.json" "$TMP/warm.report.json" \
  --max-eer-delta 0
# Every stage of the warm run hit the store, so it must render no audio.
python3 -c 'import json,sys
n = json.load(open(sys.argv[1]))["metrics"]["counters"]["corpus.rendered_utterances"]
sys.exit(0 if n == 0 else "warm run rendered %d utterances, want 0" % n)' "$TMP/warm.report.json"
./build/tools/phonolid pipeline status --cache-dir "$CACHE_DIR"
./build/tools/phonolid pipeline gc --cache-dir "$CACHE_DIR"

# Streaming-equivalence gate: the batch pipeline is a single-chunk streaming
# session, so a chunked run must reproduce the batch run bit-for-bit — the
# decision ledger comes out byte-identical for ANY --chunk-ms and the
# accuracy leaves diff at zero tolerance.  Cold cache dirs on purpose: the
# chunking deliberately does not enter stage keys (warm artifacts are valid
# across chunkings — that is this very equivalence), so a warm store would
# serve the batch run's artifacts and prove nothing.  The first run also
# turns on checkpoint LLRs, which must leave a "streaming" section in the
# report without perturbing the ledger.
./build/tools/phonolid run --scale quick --chunk-ms 17 --stream-checkpoint-s 0.5 \
  --report "$TMP/stream17.report.json" --ledger "$TMP/stream17.ledger.jsonl" \
  --cache-dir "$TMP/stream17-cache"
cmp "$TMP/quick.ledger.jsonl" "$TMP/stream17.ledger.jsonl"
./build/tools/phonolid report-diff "$TMP/quick.report.json" \
  "$TMP/stream17.report.json" --max-eer-delta 0
grep -q '"streaming"' "$TMP/stream17.report.json"
./build/tools/phonolid run --scale quick --chunk-ms 250 \
  --ledger "$TMP/stream250.ledger.jsonl" --cache-dir "$TMP/stream250-cache"
cmp "$TMP/quick.ledger.jsonl" "$TMP/stream250.ledger.jsonl"
# Invalid streaming flags must exit 2 before any work happens.
rc=0
./build/tools/phonolid run --scale quick --chunk-ms 0 2> /dev/null || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "run: --chunk-ms 0 should exit 2 (got $rc)" >&2
  exit 1
fi

# Energy-accounting smoke: a run with the deterministic software cost model
# must stay within 1% of the committed baseline's joules.  This run gets its
# own cold cache dir on purpose — software joules measure work actually
# done, so a warm store (which skips AM training and decoding) would report
# a fraction of the baseline's energy and trip the gate spuriously.  The
# sampling CPU profiler rides along on the same run (software joules count
# work, not wall time, so sampling cannot perturb the energy gate) and must
# leave folded stacks plus a populated "profile" report section behind.
PHONOLID_ENERGY=software PHONOLID_PROFILE=cpu \
  PHONOLID_PROFILE_OUT="$TMP/quick.folded" \
  ./build/tools/phonolid run --scale quick \
  --report "$TMP/energy.report.json" --cache-dir "$TMP/energy-cache"
test -s "$TMP/quick.folded"
# The fresh store misses everywhere, so every quick-scale utterance renders
# exactly once: 192 am_train + 144 vsm_train + 72 dev + 180 test.
python3 -c 'import json,sys
n = json.load(open(sys.argv[1]))["metrics"]["counters"]["corpus.rendered_utterances"]
sys.exit(0 if n == 588 else "cold run rendered %d utterances, want 588" % n)' "$TMP/energy.report.json"
./build/tools/phonolid report-diff BENCH_quick_run.json "$TMP/energy.report.json" \
  --max-energy-delta-pct 1 --max-eer-delta 0.02 --max-cavg-delta 0.02 \
  --max-cllr-delta 0.25 --max-adoption-precision-drop 0.05 \
  --max-self-share-delta 0.2
# Per-stage watts table, kept with the CI artifacts.
./build/tools/phonolid power --input "$TMP/energy.report.json" \
  | tee "$TMP/quick.power.txt"
# Flame table from the same report; the profile must attribute >= 95% of
# samples to named functions (the profiler is useless if most samples only
# say "libm.so.6+0x..."), and the self-share gate must pass a self-diff at
# a zero threshold (identical reports have zero share deltas).
./build/tools/phonolid flame --input "$TMP/energy.report.json" \
  | tee "$TMP/quick.flame.txt"
grep -Eo '[0-9.]+% of samples attributed' "$TMP/quick.flame.txt" \
  | awk -F% '{ if ($1 < 95) { print "profile attribution below 95%: " $1 "%"; exit 1 } }'
./build/tools/phonolid report-diff "$TMP/energy.report.json" \
  "$TMP/energy.report.json" --max-self-share-delta 0 > /dev/null

# Decision-ledger surface smoke: diag must summarize the ledger, explain
# must resolve a recorded utterance id, and an unknown id must exit 2.
./build/tools/phonolid diag --ledger "$TMP/quick.ledger.jsonl" > /dev/null
./build/tools/phonolid explain 0 --scale quick --ledger "$TMP/quick.ledger.jsonl" > /dev/null
rc=0
./build/tools/phonolid explain 999999999 --scale quick \
  --ledger "$TMP/quick.ledger.jsonl" 2> /dev/null || rc=$?
if [ "$rc" -ne 2 ]; then
  echo "explain: unknown id should exit 2 (got $rc)" >&2
  exit 1
fi

# Serve gate: the train/infer split end to end.  Freeze a bundle from the
# warm cache, serve it as a daemon, and drive it with the closed-loop load
# generator.  The daemon's LLRs must come out byte-identical to the offline
# run's decision ledger (`cmp` of two %.17g dumps — batching and transport
# must never change an answer), micro-batching must actually engage
# (batch-size p50 >= 2 with 8 concurrent connections), and the serve report
# diffs against the committed baseline with deliberately generous gates:
# bucketed p99 on a loaded daemon is noisy, so only order-of-magnitude
# regressions should trip CI.  The admin HTTP plane is exercised live:
# /healthz must answer ok before and during load, /metrics must scrape
# during load, and after the load the scrape's serve_requests_total must
# equal the requests_total the daemon reports in its own stats document
# (/statusz) — the pull-based plane and the kStats frame are two views of
# the same ledger.  Per-phase p99/p99.9 gate separately from end-to-end
# latency so a queue-wait regression cannot hide behind fast compute.
# SIGTERM must drain gracefully (exit 0).
./build/tools/phonolid freeze --scale quick --out "$TMP/bundle" \
  --cache-dir "$CACHE_DIR"
./build/tools/phonolid serve --bundle "$TMP/bundle" --port 0 \
  --port-file "$TMP/serve.port" --admin-port 0 \
  --admin-port-file "$TMP/admin.port" > "$TMP/serve.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
  [ -s "$TMP/serve.port" ] && [ -s "$TMP/admin.port" ] && break
  if ! kill -0 "$SERVE_PID" 2> /dev/null; then
    echo "serve daemon died during startup:" >&2
    cat "$TMP/serve.log" >&2
    exit 1
  fi
  sleep 0.1
done
test -s "$TMP/serve.port"
test -s "$TMP/admin.port"
ADMIN_URL="http://127.0.0.1:$(cat "$TMP/admin.port")"
curl -fsS "$ADMIN_URL/healthz" | grep -qx "ok"
./build/bench/bench_serve --port "$(cat "$TMP/serve.port")" --scale quick \
  --connections 8 --ledger "$TMP/quick.ledger.jsonl" \
  --llr-out "$TMP/serve_llr.txt" --expected-llr "$TMP/expected_llr.txt" \
  --min-batch-p50 2 --report "$TMP/serve.report.json" &
BENCH_PID=$!
# Scrapes during load: read-only, must succeed, must not perturb scoring.
# (healthz may honestly answer 503 while the queue is at the shed threshold,
# so only the metrics/statusz scrapes demand a 200 here.)
curl -sS "$ADMIN_URL/healthz" > /dev/null
curl -fsS "$ADMIN_URL/metrics" > "$TMP/during.prom"
curl -fsS "$ADMIN_URL/statusz" > /dev/null
wait "$BENCH_PID"
cmp "$TMP/serve_llr.txt" "$TMP/expected_llr.txt"
# Post-load, with the daemon idle: the Prometheus scrape and the daemon's
# own stats document must agree exactly on how many PLSV requests ran
# (admin scrapes are metered separately and must not inflate it).
curl -fsS "$ADMIN_URL/metrics" > "$TMP/serve.prom"
curl -fsS "$ADMIN_URL/statusz" > "$TMP/serve.statusz.json"
SCRAPE_TOTAL="$(awk '/^phonolid_serve_requests_total /{print $2}' "$TMP/serve.prom")"
STATS_TOTAL="$(python3 -c 'import json,sys
print(int(json.load(open(sys.argv[1]))["requests_total"]))' "$TMP/serve.statusz.json")"
if [ "${SCRAPE_TOTAL%.*}" != "$STATS_TOTAL" ]; then
  echo "serve: /metrics requests_total ($SCRAPE_TOTAL) != /statusz requests_total ($STATS_TOTAL)" >&2
  exit 1
fi
./build/tools/phonolid report-diff BENCH_serve.json "$TMP/serve.report.json" \
  --max-serve-p99-regress 400 --max-serve-throughput-drop 90 \
  --max-phase-p99-regress 400
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
grep -q "drained and stopped" "$TMP/serve.log"

# Keep the run artifacts around for CI upload (the mktemp dir is wiped on
# exit).
ARTIFACTS="build/tier1-artifacts"
rm -rf "$ARTIFACTS" && mkdir -p "$ARTIFACTS"
cp "$TMP/quick.report.json" "$TMP/quick.ledger.jsonl" "$TMP/quick.trace.json" \
   "$TMP/quick.prom" "$TMP/energy.report.json" "$TMP/quick.power.txt" \
   "$TMP/quick.folded" "$TMP/quick.flame.txt" \
   "$TMP/serve.report.json" "$TMP/serve.log" \
   "$TMP/serve.prom" "$TMP/serve.statusz.json" \
   "$ARTIFACTS/"

echo "tier-1 OK"
