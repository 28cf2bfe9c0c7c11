#!/usr/bin/env bash
# Diagnostics-plane smoke test (the CI diagnostics-smoke job).
#
# Boots flosd with the flight recorder, slow-query log, SLO tracking and span
# tracing (head rate 0 — only tail promotion retains anything) enabled; fires
# 200 queries plus an injected slow query carrying a known X-Request-ID and
# W3C traceparent; asserts the query is captured in /debug/flos/slow,
# joinable through its latency-bucket exemplar in /metrics?format=json,
# visible in the flos_slo_* gauges, replayable offline with `flos -replay`,
# and — despite the 0% head rate — retained as a tail-promoted span tree at
# /debug/flos/traces. Along the way it exercises the /v1 API: exact envelope
# with a certification block, ε-certified query with achieved gap <= ε,
# anytime under an expiring deadline answering 200 with certified:false (and
# counted in flos_query_anytime_partial_total), and the retired unversioned
# /topk answering 404, and a three-query batch answered whole and counted
# once, under its endpoint's latency histogram. flosd must refuse an
# ambiguous command line. The cache-analytics plane (on
# by default) is asserted too: /debug/flos/cache serves the result-cache
# snapshot (no page plane — this server holds the graph in memory) and the
# flos_result_cache_* lens gauges land in /metrics. A second, short leg
# serves the same graph from a disk store and reads the page cache over
# HTTP: its counters render once, without a shard label, in both /metrics
# formats, and /debug/flos/cache gains the page_cache plane. The store is
# then cut in half under the server: within 20 distinct queries one must
# answer 503 naming the storage failure, and /healthz must still answer 200.
# Each leg ends with SIGTERM, and flosd must drain and exit 0.
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="127.0.0.1:18097"
BASE="http://$ADDR"
WORK="$(mktemp -d)"
FLOSD_PID=""
trap '[ -n "$FLOSD_PID" ] && kill "$FLOSD_PID" 2>/dev/null; rm -rf "$WORK"' EXIT

fail() { echo "FAIL: $*" >&2; exit 1; }

echo "== build =="
go build -o "$WORK/flosgen" ./cmd/flosgen
go build -o "$WORK/flosd" ./cmd/flosd
go build -o "$WORK/flos" ./cmd/flos

echo "== generate graph =="
"$WORK/flosgen" -model rmat -n 20000 -m 100000 -seed 1 -format bin -out "$WORK/graph.bin"
"$WORK/flosgen" -model rmat -n 20000 -m 100000 -seed 1 -format store -out "$WORK/graph.store"

echo "== flosd refuses two graph sources =="
# Refused by flag validation, before either (missing) file is opened.
if "$WORK/flosd" -graph x -bin y -addr "$ADDR" 2>"$WORK/ambiguous.err"; then
  fail "flosd -graph x -bin y exited 0"
fi
grep -q 'exactly one of -graph, -bin, -store' "$WORK/ambiguous.err" ||
  fail "flosd -graph x -bin y did not name the conflict: $(cat "$WORK/ambiguous.err")"

echo "== boot flosd with the diagnostics plane on =="
# -slow-latency 1ns promotes every query, which makes the injected slow query
# (fired last, with a client-supplied request ID) deterministically retained
# in the slow log and deterministically the most recent exemplar of its
# latency bucket.
# -trace-sample 0 turns the head sampler fully off: a trace can only survive
# by tail promotion, which is exactly the retention path this smoke asserts.
# -flightrec 512 sizes both the flight-recorder and the completed-trace ring.
"$WORK/flosd" -bin "$WORK/graph.bin" -addr "$ADDR" \
  -flightrec 512 -slow-latency 1ns \
  -slo-latency 100ms -cache 64 \
  -trace-sample 0 \
  -log-level warn &
FLOSD_PID=$!
# stop_flosd sends SIGTERM and requires a clean drain: flosd exits 0.
stop_flosd() {
  kill "$FLOSD_PID"
  local status=0
  wait "$FLOSD_PID" || status=$?
  FLOSD_PID=""
  [ "$status" -eq 0 ] || fail "flosd exited $status after SIGTERM, want 0"
}
wait_up() {
  for _ in $(seq 1 50); do
    if curl -fsS "$BASE/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.2
  done
  fail "flosd did not come up on $ADDR"
}
wait_up

echo "== fire 200 queries =="
for i in $(seq 0 199); do
  q=$(( (i * 37) % 20000 ))
  curl -fsS "$BASE/v1/topk?q=$q&k=10&measure=php" >/dev/null
done
curl -fsS "$BASE/v1/unified?q=11&k=5" >/dev/null
curl -fsS -X POST -d '{"queries":[1,2,3],"k":5,"measure":"rwr"}' "$BASE/v1/topk/batch" >"$WORK/batch.json"
grep -q '"count":3' "$WORK/batch.json" || fail "batch response does not count 3 members: $(cat "$WORK/batch.json")"
grep -q '"errors":0' "$WORK/batch.json" || fail "batch response reports failed members: $(cat "$WORK/batch.json")"
curl -fsS "$BASE/v1/topk?q=0&k=10&measure=php" >/dev/null # repeat: result-cache hit

echo "== /v1 envelope carries version and certification =="
curl -fsS "$BASE/v1/topk?q=11&k=10&measure=php" >"$WORK/v1.json"
grep -q '"api_version":"v1"' "$WORK/v1.json" || fail "/v1/topk envelope has no api_version"
grep -q '"certification":{' "$WORK/v1.json" || fail "/v1/topk envelope has no certification block"
grep -q '"mode":"exact"' "$WORK/v1.json" || fail "/v1 exact response does not report mode=exact"
grep -q '"certified":true' "$WORK/v1.json" || fail "/v1 exact response is not certified"

echo "== ε-certified mode stays within its budget =="
curl -fsS "$BASE/v1/topk?q=11&k=10&measure=rwr&mode=epsilon&epsilon=0.001" >"$WORK/v1eps.json"
grep -q '"mode":"epsilon"' "$WORK/v1eps.json" || fail "ε response does not echo its mode"
grep -q '"certified":true' "$WORK/v1eps.json" || fail "ε response is not certified"
gap=$(sed -n 's/.*"certification":{[^}]*"gap":\([0-9.eE+-]*\).*/\1/p' "$WORK/v1eps.json")
[ -n "$gap" ] || fail "ε response reports no achieved gap"
awk -v g="$gap" 'BEGIN { exit !(g <= 0.001) }' || fail "ε achieved gap $gap exceeds the 0.001 budget"

echo "== anytime under an expiring deadline is a 200, not a 504 =="
code=$(curl -s -o "$WORK/v1any.json" -w '%{http_code}' \
  "$BASE/v1/topk?q=123&k=50&measure=rwr&mode=anytime&deadline=1ns")
[ "$code" = "200" ] || fail "anytime under expiring deadline got $code, want 200"
grep -q '"mode":"anytime"' "$WORK/v1any.json" || fail "anytime response does not echo its mode"
grep -q '"certified":false' "$WORK/v1any.json" || fail "anytime partial under 1ns deadline claims certified"

echo "== the unversioned /topk is gone =="
code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/topk?q=11&k=10&measure=php")
[ "$code" = "404" ] || fail "unversioned /topk got $code, want 404"

echo "== inject slow query with a known request ID and traceparent =="
SLOW_ID="smoke-slow-$$"
# A client traceparent with the sampled flag OFF (flags 00): with the head
# sampler also at 0, nothing but tail promotion can keep this trace.
TRACE_ID="$(printf '%032x' "$$")"
curl -fsS -H "X-Request-ID: $SLOW_ID" \
  -H "traceparent: 00-$TRACE_ID-00000000000000aa-00" \
  -D "$WORK/slow.headers" \
  "$BASE/v1/topk?q=123&k=50&measure=rwr" >/dev/null
grep -qi "traceparent: 00-$TRACE_ID-" "$WORK/slow.headers" ||
  fail "response did not echo the client's trace in traceparent"

echo "== malformed traceparent is a structured 400 =="
code=$(curl -s -o /dev/null -w '%{http_code}' -H "traceparent: garbage" "$BASE/v1/topk?q=1&k=5")
[ "$code" = "400" ] || fail "malformed traceparent got $code, want 400"

echo "== slow log captured it =="
curl -fsS "$BASE/debug/flos/slow" >"$WORK/slow.json"
grep -q "\"$SLOW_ID\"" "$WORK/slow.json" || fail "$SLOW_ID not in /debug/flos/slow"
grep -q '"trace":' "$WORK/slow.json" || fail "slow log carries no trajectories"

echo "== request ID is its latency bucket's exemplar =="
curl -fsS "$BASE/metrics?format=json" >"$WORK/metrics.json"
grep -q "\"$SLOW_ID\"" "$WORK/metrics.json" || fail "$SLOW_ID is not a latency-bucket exemplar"

echo "== slow query's trace was tail-promoted at head rate 0 =="
curl -fsS "$BASE/debug/flos/traces?id=$TRACE_ID" >"$WORK/trace.json"
grep -q '"sampled":"tail:' "$WORK/trace.json" || fail "trace $TRACE_ID not tail-promoted"
grep -q '"name":"qserve.execute"' "$WORK/trace.json" || fail "trace has no qserve.execute span"
grep -q '"name":"GET /v1/topk"' "$WORK/trace.json" || fail "trace has no boundary span"
grep -q "\"parent_span_id\":\"00000000000000aa\"" "$WORK/trace.json" ||
  fail "boundary span not parented on the client's span"
curl -fsS "$BASE/debug/flos/traces" | grep -q '"kept_tail":' || fail "trace list has no counters"

echo "== exemplar joins to the trace store =="
grep -q "\"trace_id\":\"$TRACE_ID\"" "$WORK/metrics.json" ||
  fail "no latency exemplar carries trace_id $TRACE_ID"

echo "== slow log record carries the trace ID =="
curl -fsS "$BASE/debug/flos/slow" | grep -q "\"trace_id\":\"$TRACE_ID\"" ||
  fail "slow-log record has no trace_id join key"

echo "== SLO gauges and recorder counters exposed =="
curl -fsS "$BASE/metrics" >"$WORK/metrics.prom"
for m in 'flos_slo_availability{window="5m"}' 'flos_slo_availability_burn_rate{window="1h"}' \
  'flos_slo_latency_compliance{window="5m"}' 'flos_flightrec_recorded_total' \
  'flos_query_outcomes_total{outcome="hit"}' 'flos_query_outcomes_total{outcome="ok"}' \
  'flos_traces_started_total' 'flos_traces_kept_total{sampled="tail"}' \
  'flos_traces_kept_total{sampled="head"} 0'; do
  grep -qF "$m" "$WORK/metrics.prom" || fail "/metrics missing $m"
done
curl -fsS "$BASE/debug/flos/slo" | grep -q '"window":"5m"' || fail "/debug/flos/slo has no 5m window"
# A batch is counted once, by its endpoint's latency histogram.
grep -qF 'flos_http_request_duration_seconds_count{endpoint="/v1/topk/batch"} 1' "$WORK/metrics.prom" ||
  fail "/metrics does not count the one batch request under its endpoint"
if grep -q 'flos_batches_served_total' "$WORK/metrics.prom"; then
  fail "/metrics still serves the retired flos_batches_served_total"
fi
partial=$(sed -n 's/^flos_query_anytime_partial_total \([0-9]*\)$/\1/p' "$WORK/metrics.prom")
[ "${partial:-0}" -ge 1 ] || fail "flos_query_anytime_partial_total = '$partial' after the 1ns anytime request, want >= 1"

echo "== cache analytics: result-cache lens snapshot and gauges =="
curl -fsS "$BASE/debug/flos/cache" >"$WORK/cache.json"
grep -q '"result_cache":{' "$WORK/cache.json" || fail "/debug/flos/cache has no result_cache plane"
if grep -q '"page_cache":{' "$WORK/cache.json"; then
  fail "/debug/flos/cache grew a page_cache plane on an in-memory graph"
fi
grep -q '"miss_ratio_curve":\[' "$WORK/cache.json" || fail "cache snapshot has no miss-ratio curve"
grep -q '"working_set":\[' "$WORK/cache.json" || fail "cache snapshot has no working-set windows"
for m in 'flos_result_cache_mrc_hit_ratio{scale="1x"}' 'flos_result_cache_mrc_hit_ratio{scale="4x"}' \
  'flos_result_cache_hits_total' 'flos_result_cache_wss_estimate{window="1m0s"}' \
  'flos_result_cache_capacity 64'; do
  grep -qF "$m" "$WORK/metrics.prom" || fail "/metrics missing $m"
done

echo "== offline replay renders the convergence table =="
"$WORK/flos" -replay "$WORK/slow.json" -replay-id "$SLOW_ID" >"$WORK/replay.txt"
grep -q "convergence trace:" "$WORK/replay.txt" ||
  { cat "$WORK/replay.txt" >&2; fail "replay printed no convergence table"; }
grep -Eq '^\s+[0-9]+\s+[0-9]+' "$WORK/replay.txt" || fail "replay table has no iteration rows"
grep -q " yes " "$WORK/replay.txt" || fail "replayed trajectory has no certified row"

stop_flosd

echo "== disk store: the page cache over HTTP =="
# A 1 MiB page budget is far smaller than the store, so the queries below
# both hit and fault.
"$WORK/flosd" -store "$WORK/graph.store" -pagecache 1 -addr "$ADDR" -log-level warn &
FLOSD_PID=$!
wait_up
for i in $(seq 0 19); do
  curl -fsS "$BASE/v1/topk?q=$(( (i * 37) % 20000 ))&k=10&measure=php" >/dev/null
done
curl -fsS "$BASE/metrics" >"$WORK/store.prom"
for m in flos_page_cache_hits_total flos_page_cache_faults_total; do
  grep -Eq "^$m [0-9]+$" "$WORK/store.prom" || fail "/metrics has no unlabeled $m series"
done
if grep -q 'shard=' "$WORK/store.prom"; then
  fail "/metrics still labels a series by page-cache shard"
fi
curl -fsS "$BASE/metrics?format=json" >"$WORK/store.json"
grep -q '"page_hits":' "$WORK/store.json" || fail "JSON disk block has no page_hits"
grep -q '"page_faults":' "$WORK/store.json" || fail "JSON disk block has no page_faults"
if grep -q '"per_shard"' "$WORK/store.json"; then
  fail "JSON disk block still carries per_shard"
fi
curl -fsS "$BASE/debug/flos/cache" | grep -q '"page_cache":{' || fail "/debug/flos/cache has no page_cache plane on a store"

echo "== disk store: a lost row fails its query, not the process =="
# Cut the store to half its size under the running server: a query that
# reads a row past the cut is a 503 naming the storage failure, and the
# server keeps serving.
truncate -s "$(( $(wc -c <"$WORK/graph.store") / 2 ))" "$WORK/graph.store"
got503=""
for i in $(seq 0 19); do
  code=$(curl -s -o "$WORK/lost.json" -w '%{http_code}' "$BASE/v1/topk?q=$(( 19999 - i * 53 ))&k=10&measure=php") ||
    fail "a query over the truncated store dropped its connection (curl exit $?)"
  if [ "$code" = "503" ]; then got503=yes; break; fi
done
[ -n "$got503" ] || fail "no query over the truncated store answered 503"
grep -q 'storage read failed' "$WORK/lost.json" || fail "503 does not name the storage failure: $(cat "$WORK/lost.json")"
code=$(curl -s -o /dev/null -w '%{http_code}' "$BASE/healthz")
[ "$code" = "200" ] || fail "/healthz got $code after the storage failure, want 200"

stop_flosd

echo "diagnostics smoke: OK"
