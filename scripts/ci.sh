#!/usr/bin/env bash
# Local CI gate for the DPCopula workspace. Mirrors the tier-1 verify:
# release build, full test suite, and a smoke run of the experiment
# harness. Everything runs --offline: the workspace has zero registry
# dependencies (rngkit/testkit are in-repo), so this works in a hermetic
# container with no crates.io access.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy (offline, warnings are errors)"
cargo clippy --workspace --all-targets --offline -- -D warnings

echo "==> cargo doc (offline, warnings are errors: no broken or private links)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "==> cargo build --release (offline)"
cargo build --release --offline

echo "==> cargo test -q (offline)"
cargo test -q --offline

echo "==> bench-target compile check (offline)"
cargo check --workspace --all-targets --offline

echo "==> experiment-harness smoke: table02_domains"
QUICK=1 cargo run -p dpcopula-bench --release --offline --bin table02_domains

echo "==> dpcopula-cli smoke: fit-once/sample-many bit-identity"
CLI=target/release/dpcopula-cli
SMOKE="$(mktemp -d)"
SERVE_PID=""
trap 'kill "${SERVE_PID:-}" 2>/dev/null || true; rm -rf "$SMOKE"' EXIT
"$CLI" gen --out "$SMOKE/census.csv" --records 2000 --seed 7
"$CLI" fit --input "$SMOKE/census.csv" --out "$SMOKE/model.dpcm" --epsilon 1.0 --seed 99
"$CLI" inspect --model "$SMOKE/model.dpcm" >/dev/null
"$CLI" sample --model "$SMOKE/model.dpcm" --out "$SMOKE/served.csv" --rows 1000 --workers 3
"$CLI" synth --input "$SMOKE/census.csv" --out "$SMOKE/synthed.csv" --rows 1000 \
    --epsilon 1.0 --seed 99
# Serving a saved artifact must reproduce in-process synthesis exactly.
diff "$SMOKE/served.csv" "$SMOKE/synthed.csv"
echo "    served rows are byte-identical to in-process synthesis"
# Every diff in this script compares the CSV encoder with itself (CLI
# vs HTTP vs synth); these checksums pin its bytes from outside, for a
# generated table and a reference-profile sample written to files.
pin_cksum() {
    local got
    got="$(cksum < "$1")"
    if [ "$got" != "$2" ]; then
        echo "    $1: cksum $got, pinned $2" >&2
        exit 1
    fi
}
pin_cksum "$SMOKE/census.csv" "2986137986 23493"
pin_cksum "$SMOKE/served.csv" "4140187095 12522"
echo "    census.csv and served.csv match their pinned checksums"

echo "==> dpcopula-cli smoke: fast sampling profile"
# Fast is deterministic with itself (any worker count), draws a stream
# distinct from reference, and serves identically to in-process synth.
"$CLI" synth --input "$SMOKE/census.csv" --out "$SMOKE/fast-a.csv" --rows 1000 \
    --epsilon 1.0 --seed 99 --profile fast
"$CLI" synth --input "$SMOKE/census.csv" --out "$SMOKE/fast-b.csv" --rows 1000 \
    --epsilon 1.0 --seed 99 --profile fast --workers 3
diff "$SMOKE/fast-a.csv" "$SMOKE/fast-b.csv"
echo "    fast profile is byte-identical with itself across worker counts"
if cmp -s "$SMOKE/fast-a.csv" "$SMOKE/synthed.csv"; then
    echo "    fast profile unexpectedly reproduced the reference stream" >&2
    exit 1
fi
echo "    fast profile draws a stream distinct from reference"
"$CLI" sample --model "$SMOKE/model.dpcm" --out "$SMOKE/fast-served.csv" --rows 1000 \
    --workers 2 --profile fast
diff "$SMOKE/fast-served.csv" "$SMOKE/fast-a.csv"
echo "    fast served rows are byte-identical to in-process fast synthesis"
# The diffs above compare fast with itself; this window, which burns
# 4,153 rows of chunk 1 first, pins fast bytes from outside.
"$CLI" sample --model "$SMOKE/model.dpcm" --out "$SMOKE/fast-offset.csv" --rows 1000 \
    --offset 12345 --profile fast
pin_cksum "$SMOKE/fast-offset.csv" "3226830112 12536"
echo "    fast window at offset 12345 matches its pinned checksum"

echo "==> distfit tier: fit-shard x4 + merge vs fit --shards 4 (byte identity)"
# Split the census CSV at the global shard boundaries (first rows%N
# shards take one extra row, like shard_specs), fit each part in its own
# process, merge the .dpcs artifacts, and demand the merged model is
# byte-identical to the single-process sharded fit.
"$CLI" fit --input "$SMOKE/census.csv" --out "$SMOKE/sharded.dpcm" \
    --epsilon 1.0 --seed 99 --shards 4
ROWS=$(( $(wc -l < "$SMOKE/census.csv") - 1 ))
BASE=$(( ROWS / 4 )); EXTRA=$(( ROWS % 4 )); START=0
for i in 0 1 2 3; do
    TAKE=$BASE
    [ "$i" -lt "$EXTRA" ] && TAKE=$(( BASE + 1 ))
    { head -n 1 "$SMOKE/census.csv"
      tail -n +2 "$SMOKE/census.csv" | sed -n "$(( START + 1 )),$(( START + TAKE ))p"
    } > "$SMOKE/part$i.csv"
    "$CLI" fit-shard --input "$SMOKE/part$i.csv" --out "$SMOKE/part$i.dpcs" \
        --shard-index "$i" --shards 4 --total-rows "$ROWS" --epsilon 1.0 --seed 99
    START=$(( START + TAKE ))
done
"$CLI" merge "$SMOKE/part0.dpcs" "$SMOKE/part1.dpcs" "$SMOKE/part2.dpcs" \
    "$SMOKE/part3.dpcs" --out "$SMOKE/merged.dpcm"
cmp "$SMOKE/merged.dpcm" "$SMOKE/sharded.dpcm"
echo "    fit-shard x4 + merge reproduces fit --shards 4 byte-for-byte"
# Shards release nothing of their own: each margin is published once
# from the counts of every row, so the sharded model's margins section
# (offset, length, CRC-32 in inspect) is the unsharded model's.
margins_section() {
    "$CLI" inspect --model "$1" | sed -n 's/^  margins  *\(offset .* crc32 .*\)$/\1/p'
}
PLAIN_MARGINS="$(margins_section "$SMOKE/model.dpcm")"
SHARDED_MARGINS="$(margins_section "$SMOKE/sharded.dpcm")"
if [ -z "$PLAIN_MARGINS" ] || [ "$PLAIN_MARGINS" != "$SHARDED_MARGINS" ]; then
    echo "    sharded margins section [$SHARDED_MARGINS] differs from unsharded" \
        "[$PLAIN_MARGINS]" >&2
    exit 1
fi
echo "    fit --shards 4 releases the unsharded margins section: $PLAIN_MARGINS"
# Degenerate single-shard form: one worker over the whole CSV must
# reproduce the plain (unsharded) fit of the same seed and budget.
"$CLI" fit-shard --input "$SMOKE/census.csv" --out "$SMOKE/whole.dpcs" \
    --shard-index 0 --shards 1 --total-rows "$ROWS" --epsilon 1.0 --seed 99
"$CLI" merge "$SMOKE/whole.dpcs" --out "$SMOKE/merged1.dpcm"
cmp "$SMOKE/merged1.dpcm" "$SMOKE/model.dpcm"
echo "    fit-shard x1 + merge reproduces the plain fit byte-for-byte"
# Both cmps compare two paths through the same merge code; these
# checksums pin the fitted and merged bytes from outside it.
pin_cksum "$SMOKE/model.dpcm" "3643897734 13525"
pin_cksum "$SMOKE/sharded.dpcm" "400761141 13629"
pin_cksum "$SMOKE/part0.dpcs" "3143645981 21391"
pin_cksum "$SMOKE/part1.dpcs" "1118993987 21391"
pin_cksum "$SMOKE/part2.dpcs" "591143848 21391"
pin_cksum "$SMOKE/part3.dpcs" "1899404685 21391"
echo "    model, sharded and shard artifacts match their pinned checksums"

echo "==> ingest tier: a training CSV past many read buffers, LF and CRLF"
# census.csv (23 KB) fits in one 64 KiB read buffer. This 50,000-row
# table (585 KB) crosses eight buffer refills, in the eager reader
# (`fit`) and in the streamed one (`fit-shard`). Its CRLF twin must fit
# to the LF model's bytes both ways, and the checksums pin the table
# and its model from outside the readers.
"$CLI" gen --out "$SMOKE/big.csv" --records 50000 --seed 7
"$CLI" fit --input "$SMOKE/big.csv" --out "$SMOKE/big.dpcm" --epsilon 1.0 --seed 99
sed 's/$/\r/' "$SMOKE/big.csv" > "$SMOKE/big-crlf.csv"
"$CLI" fit --input "$SMOKE/big-crlf.csv" --out "$SMOKE/big-crlf.dpcm" --epsilon 1.0 --seed 99
cmp "$SMOKE/big-crlf.dpcm" "$SMOKE/big.dpcm"
"$CLI" fit-shard --input "$SMOKE/big-crlf.csv" --out "$SMOKE/big-crlf.dpcs" \
    --shard-index 0 --shards 1 --total-rows 50000 --epsilon 1.0 --seed 99
"$CLI" merge "$SMOKE/big-crlf.dpcs" --out "$SMOKE/big-streamed.dpcm"
cmp "$SMOKE/big-streamed.dpcm" "$SMOKE/big.dpcm"
echo "    the CRLF twin fits to the LF model, eager and streamed"
pin_cksum "$SMOKE/big.csv" "3928615331 585739"
pin_cksum "$SMOKE/big.dpcm" "1708305388 13525"
echo "    big.csv and its model match their pinned checksums"

echo "==> wide-fit tier: 400,000 Brazil rows, 4 shards, 1 and 2 workers"
# The shape of dpbench's fit-sharded workload (8 attributes, a 25,200-
# row τ sample over 4 shards): every exact count and every Kendall pair
# of a full-size fit, pinned from outside the fit, at two worker counts.
"$CLI" gen --out "$SMOKE/wide.csv" --dataset brazil-census --records 400000 --seed 7
"$CLI" fit --input "$SMOKE/wide.csv" --out "$SMOKE/wide.dpcm" --epsilon 1.0 --seed 99 \
    --shards 4 --workers 2
"$CLI" fit --input "$SMOKE/wide.csv" --out "$SMOKE/wide-w1.dpcm" --epsilon 1.0 --seed 99 \
    --shards 4 --workers 1
cmp "$SMOKE/wide-w1.dpcm" "$SMOKE/wide.dpcm"
pin_cksum "$SMOKE/wide.csv" "2557290253 8300912"
pin_cksum "$SMOKE/wide.dpcm" "3202569158 8752"
echo "    wide.csv and its model match their pinned checksums at 1 and 2 workers"

echo "==> examples tier: the seven example binaries, six stdouts pinned"
# Every example prints a seeded release, so its stdout pins the public
# API's bytes from outside the library. fit_once_sample_many prints a
# wall-clock line, so it only has to run.
pin_example() {
    "target/release/$1" > "$SMOKE/example-$1.out"
    pin_cksum "$SMOKE/example-$1.out" "$2"
}
pin_example quickstart "2680006100 603"
pin_example census_release "891752849 897"
pin_example budget_planner "3593714852 764"
pin_example workload_eval "2981658027 480"
pin_example heavy_tail_release "174435419 554"
pin_example streaming_release "3795201704 637"
target/release/fit_once_sample_many > /dev/null
echo "    six example stdouts match their pinned checksums; fit_once_sample_many runs"

echo "==> observability: CLI metrics smoke vs golden manifest"
# synth with a JSON snapshot; the emitted metric *names* must match the
# checked-in manifest exactly (taxonomy drift lands with a manifest
# update, never silently). Metrics must not perturb the release either.
"$CLI" synth --input "$SMOKE/census.csv" --out "$SMOKE/obs.csv" --rows 1000 \
    --epsilon 1.0 --seed 99 --metrics json --metrics-out "$SMOKE/obs.metrics.json"
diff "$SMOKE/obs.csv" "$SMOKE/synthed.csv"
echo "    synthesis with metrics on is byte-identical to metrics off"
sed -n 's/.*"id":"\([a-z_]*\).*/\1/p' "$SMOKE/obs.metrics.json" | sort -u \
    > "$SMOKE/metric_names.txt"
diff scripts/metrics_manifest.txt "$SMOKE/metric_names.txt"
echo "    metric names match scripts/metrics_manifest.txt"
# Prometheus rendering smoke: serving counters move and the exposition
# format carries TYPE headers.
"$CLI" sample --model "$SMOKE/model.dpcm" --out "$SMOKE/obs-served.csv" --rows 500 \
    --workers 2 --metrics prom --metrics-out "$SMOKE/obs.metrics.prom"
grep -q '^# TYPE serve_rows_total counter' "$SMOKE/obs.metrics.prom"
grep -q '^serve_rows_total 500' "$SMOKE/obs.metrics.prom"
echo "    prometheus exposition carries live serving counters"

echo "==> observability: stray-timing grep gate"
# All wall-clock timing flows through obskit (Stopwatch/Span); testkit's
# bench harness predates it and is the only other sanctioned caller.
if grep -rn --include='*.rs' 'Instant::now()' crates \
    | grep -v '^crates/obskit/' | grep -v '^crates/testkit/'; then
    echo "    stray Instant::now() outside obskit/testkit (use obskit::Stopwatch)" >&2
    exit 1
fi
echo "    no stray Instant::now() outside obskit/testkit"

echo "==> observability: disabled-sink overhead gate"
# QUICK keeps the committed BENCH_obskit.json untouched.
QUICK=1 cargo run -p dpcopula-bench --release --offline --bin bench_obskit

echo "==> serving-throughput regression gate (fast >= 1.5x reference)"
# bench_serving exits nonzero when the fast profile's sampling
# throughput falls below 1.5x the reference profile's. QUICK keeps the
# committed BENCH_serving.json untouched.
QUICK=1 cargo run -p dpcopula-bench --release --offline --bin bench_serving

echo "==> serve tier: daemon smoke over HTTP"
# Start the daemon on an ephemeral port over a model dir seeded with the
# CLI-fit artifact, wait for its listening line, then curl every route.
mkdir -p "$SMOKE/models"
cp "$SMOKE/model.dpcm" "$SMOKE/models/model.dpcm"
printf 'default = 1.5\n' > "$SMOKE/tenants.conf"
"$CLI" serve --model-dir "$SMOKE/models" --addr 127.0.0.1:0 \
    --tenants "$SMOKE/tenants.conf" > "$SMOKE/serve.log" 2>&1 &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's#^listening on http://##p' "$SMOKE/serve.log")"
    [ -n "$ADDR" ] && break
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "    daemon never reported its address" >&2
    cat "$SMOKE/serve.log" >&2
    exit 1
fi
curl -sf "http://$ADDR/healthz" | grep -q '^ok$'
echo "    healthz answers"
# A window sampled over HTTP must be byte-identical to the CLI-served
# window from the same artifact (which itself matches in-process synth).
curl -sf -X POST "http://$ADDR/v1/sample" \
    -d '{"model":"model","offset":0,"rows":1000}' > "$SMOKE/http-served.csv"
diff "$SMOKE/http-served.csv" "$SMOKE/served.csv"
echo "    HTTP-served rows are byte-identical to CLI-served rows"
# The window above is one chunk, so one block. Rows [5000, 25000) start
# mid-chunk and span four chunks of the default 8,192-row grid, so the
# daemon (1 sample worker) serves four blocks from four chunk tasks;
# the CLI samples the same window at 3 workers.
curl -sf -X POST "http://$ADDR/v1/sample" \
    -d '{"model":"model","offset":5000,"rows":20000}' > "$SMOKE/http-chunks.csv"
"$CLI" sample --model "$SMOKE/model.dpcm" --out "$SMOKE/cli-chunks.csv" \
    --offset 5000 --rows 20000 --workers 3 > /dev/null
diff "$SMOKE/http-chunks.csv" "$SMOKE/cli-chunks.csv"
echo "    a four-chunk HTTP window is byte-identical to the CLI's"
# A per-mechanism budget below the floor (k = 1e-150 leaves the margins
# epsilon_1 = 0) is a 400 before admission. Had it debited the tenant,
# the epsilon 1.0 fit below would get 429.
TINY_STATUS="$(curl -s -o "$SMOKE/tinyk.json" -w '%{http_code}' -X POST \
    "http://$ADDR/v1/fit?id=tinyk&epsilon=1&k=1e-150&seed=99" \
    -H 'Content-Type: text/csv' --data-binary "@$SMOKE/census.csv")" || true
if [ "$TINY_STATUS" != "400" ]; then
    echo "    expected 400 for a below-floor budget, got $TINY_STATUS" >&2
    exit 1
fi
echo "    a below-floor per-mechanism budget is a 400 that debits nothing"
# Fit over HTTP: first fit fits in the tenant budget, the second must be
# refused with 429 (admission control), and sampling must keep serving.
# sed joins lines with literal \n; tr strips the real trailing newline
# sed appends, which would be a raw control byte inside the JSON string.
{ printf '{"id":"httpfit","epsilon":1.0,"seed":99,"csv":"'
  sed ':a;N;$!ba;s/\n/\\n/g' "$SMOKE/census.csv" | tr -d '\n'
  printf '\\n"}'; } > "$SMOKE/fit.json"
curl -sf -X POST "http://$ADDR/v1/fit" \
    -H 'Content-Type: application/json' --data-binary "@$SMOKE/fit.json" \
    | grep -q '"id":"httpfit"'
echo "    fit over HTTP releases a model"
FIT2_STATUS="$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$ADDR/v1/fit" \
    -H 'Content-Type: application/json' --data-binary "@$SMOKE/fit.json")"
if [ "$FIT2_STATUS" != "429" ]; then
    echo "    expected 429 for the over-budget fit, got $FIT2_STATUS" >&2
    exit 1
fi
curl -sf -X POST "http://$ADDR/v1/sample" \
    -d '{"model":"httpfit","rows":10}' > /dev/null
echo "    exhausted tenant gets 429 on fit while sampling keeps serving"
curl -sf "http://$ADDR/v1/models" | grep -q '"id":"httpfit"'
echo "    model listing reflects the HTTP-fit artifact"
# The daemon's /metrics must expose exactly the manifest's metric names.
curl -sf "http://$ADDR/metrics" > "$SMOKE/serve.metrics.prom"
sed -n 's/^# TYPE \([a-z_]*\) .*/\1/p' "$SMOKE/serve.metrics.prom" | sort -u \
    > "$SMOKE/serve_metric_names.txt"
diff scripts/metrics_manifest.txt "$SMOKE/serve_metric_names.txt"
grep -q 'budget_rejections_total{tenant="default"} 1' "$SMOKE/serve.metrics.prom"
echo "    /metrics matches the manifest and counts the rejection"
kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

echo "==> faults tier: deterministic fault-injection suite"
# Every faultline fault (slowloris head, stalled body, mid-body cut,
# split writes, seeded floods) must map to its pinned status code and
# metrics delta. This is the same binary `cargo test` already ran; the
# explicit invocation keeps the tier addressable on its own.
cargo test -q --offline -p integration-tests --test serving_faults

echo "==> faults tier: overload shed + lifecycle smoke against the live daemon"
# A daemon with a deliberately tiny sample gate, hit by 12 concurrent
# samples big enough to overlap: some must be admitted, the rest must
# shed as 503s that show up in server_shed_total. Then the model is
# DELETEd and must 404 afterwards. Its in-memory body cap is below the
# training CSV, so a raw-CSV fit of it spools to disk.
"$CLI" serve --model-dir "$SMOKE/models" --addr 127.0.0.1:0 --max-inflight 2 \
    --max-body-bytes 16384 --max-fit-body 1048576 > "$SMOKE/faults.log" 2>&1 &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 100); do
    ADDR="$(sed -n 's#^listening on http://##p' "$SMOKE/faults.log")"
    [ -n "$ADDR" ] && break
    sleep 0.1
done
if [ -z "$ADDR" ]; then
    echo "    faults daemon never reported its address" >&2
    cat "$SMOKE/faults.log" >&2
    exit 1
fi
rm -f "$SMOKE"/flood-*.code
CURL_PIDS=""
for i in $(seq 1 12); do
    curl -s -o /dev/null -w '%{http_code}\n' -X POST "http://$ADDR/v1/sample" \
        -d '{"model":"model","rows":300000}' > "$SMOKE/flood-$i.code" &
    CURL_PIDS="$CURL_PIDS $!"
done
for p in $CURL_PIDS; do wait "$p" || true; done
ADMITTED="$(cat "$SMOKE"/flood-*.code | grep -c '^200$' || true)"
SHED="$(cat "$SMOKE"/flood-*.code | grep -c '^503$' || true)"
if [ "$ADMITTED" -lt 1 ]; then
    echo "    flood expected at least one admitted sample, got $ADMITTED" >&2
    exit 1
fi
curl -sf "http://$ADDR/metrics" > "$SMOKE/faults.metrics.prom"
if ! grep -q 'server_shed_total{route="sample"} [1-9]' "$SMOKE/faults.metrics.prom"; then
    echo "    flood never moved server_shed_total (admitted=$ADMITTED shed=$SHED)" >&2
    exit 1
fi
echo "    flood: $ADMITTED admitted, $SHED shed, counter moved"
DEL_STATUS="$(curl -s -o /dev/null -w '%{http_code}' -X DELETE \
    "http://$ADDR/v1/models/model")"
if [ "$DEL_STATUS" != "200" ]; then
    echo "    expected 200 deleting the model, got $DEL_STATUS" >&2
    exit 1
fi
GONE_STATUS="$(curl -s -o /dev/null -w '%{http_code}' -X POST \
    "http://$ADDR/v1/sample" -d '{"model":"model","rows":10}')"
if [ "$GONE_STATUS" != "404" ]; then
    echo "    expected 404 sampling a deleted model, got $GONE_STATUS" >&2
    exit 1
fi
echo "    DELETE invalidates the model and later samples 404"
# The spooled raw-CSV fit must release the artifact the serve tier's
# JSON fit of the same rows, epsilon and seed did.
curl -sf -X POST "http://$ADDR/v1/fit?id=spooled&epsilon=1.0&seed=99" \
    -H 'Content-Type: text/csv' --data-binary "@$SMOKE/census.csv" \
    | grep -q '"id":"spooled"'
cmp "$SMOKE/models/spooled.dpcm" "$SMOKE/models/httpfit.dpcm"
echo "    spooled raw-CSV fit is byte-identical to the JSON fit"
# A tiny but valid epsilon must fit, not panic: below ~3e-16 the Kendall
# sample-size rule exceeds usize, and its target saturates to every row.
curl -sf -X POST "http://$ADDR/v1/fit?id=tiny&epsilon=1e-20&seed=99" \
    -H 'Content-Type: text/csv' --data-binary "@$SMOKE/census.csv" \
    | grep -q '"id":"tiny"'
echo "    a fit at epsilon 1e-20 answers 200"
kill "$SERVE_PID"
wait "$SERVE_PID" 2>/dev/null || true
SERVE_PID=""

echo "==> serve load-test regression gate (HTTP efficiency floor)"
# bench_serve exits nonzero when end-to-end HTTP sampling throughput
# falls below 15% of the in-process baseline. QUICK keeps the committed
# BENCH_serve.json untouched.
QUICK=1 cargo run -p dpcopula-bench --release --offline --bin bench_serve

echo "==> sharded-fit regression gates (merge overhead < 15%, shard speedup)"
# bench_pipeline exits nonzero when merging 4 shard summaries costs more
# than 15% of the single-shard fit, or (on hosts with >= 4 cores) when
# the 4-shard fit is under 2x the serial fit. QUICK keeps the committed
# BENCH_pipeline.json untouched.
QUICK=1 cargo run -p dpcopula-bench --release --offline --bin bench_pipeline

echo "==> dpbench smoke: end-to-end benchmark checks at scaled-down sizes"
# About 10 s over all four workloads. Exits nonzero when any output
# check fails: served windows byte-identical to in-process sampling, fit
# checksums equal to in-process fits, sharded fit equal to fit_shard x4
# plus merge.
cargo run --release --offline --manifest-path dpbench/Cargo.toml --bin dpbench -- --smoke

echo "==> statcheck smoke: empirical DP audit of every margin method"
# Exits nonzero if any registered mechanism exceeds its declared epsilon
# empirically, or if the broken-Laplace negative control goes undetected.
# STATCHECK_FULL=1 (or scripts/statcheck_full.sh) runs the deep sweep.
cargo run -p statcheck --release --offline --bin statcheck

echo "==> ci.sh: all green"
