#!/usr/bin/env bash
# serve_smoke.sh — end-to-end lifecycle smoke for cmd/catsserve.
#
# Trains a tiny model, boots catsserve with TWO tenants from a -models
# directory, drives concurrent detect traffic at both, hot-reloads one
# tenant via the authenticated /admin/reload mid-traffic (asserting
# zero non-2xx responses across the swap and that
# cats_registry_reloads_total moved), picks up a third tenant via
# SIGHUP re-scan (booted from a columnar .catc snapshot to exercise the
# registry's format sniffing), closes the drift loop (labeled feedback
# on /v1/feedback — the canonical batch through the single-pass decoder
# into a window whose byte gauge moves, the same batch with its keys
# reordered through encoding/json — a 1s retrain cycle, and a
# champion/challenger promotion swapping the default tenant mid-traffic
# with zero non-2xx),
# probes /healthz, /readyz and /metrics (asserting the tenant-labeled
# pipeline and trainer counters moved), then sends SIGTERM and requires
# a clean exit. A second boot with -batch-max-wait 500ms then checks the
# request path's two rules from the outside: a lone detect is dispatched
# at once (answered far inside the max wait, cats_serve_flushes_total
# shows an idle flush and no timer flush), and a body the single-pass
# decoder declines (upper-case key, \u-escaped text) gets the same
# verdicts through encoding/json (cats_http_decode_total{path="stdlib"}
# moves). That second detect follows the first inside the max wait, so
# it is traffic and collects for it (the flush counters are printed;
# which rule fired depends on how fast the script ran, so it is not
# asserted). CI runs this via `make serve-smoke`; it needs only the go
# toolchain and curl.
set -euo pipefail

cd "$(dirname "$0")/.."

PORT="${SERVE_SMOKE_PORT:-18473}"
BASE="http://127.0.0.1:${PORT}"
TOKEN="smoke-admin-token"
WORK="$(mktemp -d)"
SERVER_PID=""

cleanup() {
  if [[ -n "${SERVER_PID}" ]] && kill -0 "${SERVER_PID}" 2>/dev/null; then
    kill -KILL "${SERVER_PID}" 2>/dev/null || true
  fi
  rm -rf "${WORK}"
}
trap cleanup EXIT

echo "== serve-smoke: train a tiny model"
go run ./cmd/catsgen -dataset d0 -scale 0.004 -out "${WORK}/train.jsonl"
go run ./cmd/cats -train "${WORK}/train.jsonl" -corpus 2000 \
  -save-model "${WORK}/model.json" \
  -detect "${WORK}/train.jsonl" -out /dev/null

echo "== serve-smoke: re-save it as a columnar snapshot"
# The registry sniffs the on-disk format per file, so the SIGHUP tenant
# below boots from this .catc to prove the columnar load path end to end.
go run ./cmd/cats -load-model "${WORK}/model.json" \
  -save-model "${WORK}/mobile.catc" -model-format columnar \
  -detect "${WORK}/train.jsonl" -out /dev/null

mkdir -p "${WORK}/models"
cp "${WORK}/model.json" "${WORK}/models/taobao.json"
cp "${WORK}/model.json" "${WORK}/models/eplatform.json"

echo "== serve-smoke: boot catsserve on ${BASE} (two tenants, batching on)"
go build -o "${WORK}/catsserve" ./cmd/catsserve
"${WORK}/catsserve" -models "${WORK}/models" -default-tenant taobao \
  -admin-token "${TOKEN}" -addr "127.0.0.1:${PORT}" \
  -shutdown-timeout 10s \
  -batch -batch-max-size 64 -batch-max-wait 2ms -queue-depth 512 -retry-after 1s \
  -tenant-max-concurrency 4 \
  -retrain-interval 1s -retrain-min-samples 8 -retrain-min-f1-gain=-2 &
SERVER_PID=$!

for i in $(seq 1 50); do
  if curl -fsS "${BASE}/healthz" >/dev/null 2>&1; then
    break
  fi
  if ! kill -0 "${SERVER_PID}" 2>/dev/null; then
    echo "serve-smoke: FAIL: server died during startup" >&2
    exit 1
  fi
  sleep 0.2
done
curl -fsS "${BASE}/healthz" >/dev/null
curl -fsS "${BASE}/readyz" >/dev/null
echo "== serve-smoke: /healthz and /readyz OK"

echo "== serve-smoke: admin surface requires the bearer token"
if curl -fsS "${BASE}/admin/tenants" >/dev/null 2>&1; then
  echo "serve-smoke: FAIL: /admin/tenants answered without a token" >&2
  exit 1
fi
TENANTS="$(curl -fsS -H "Authorization: Bearer ${TOKEN}" "${BASE}/admin/tenants")"
for t in taobao eplatform; do
  if ! grep -qF "\"tenant\":\"${t}\"" <<<"${TENANTS}"; then
    echo "serve-smoke: FAIL: tenant ${t} missing from /admin/tenants: ${TENANTS}" >&2
    exit 1
  fi
done

# reload_ok_count <tenant> — current cats_registry_reloads_total ok
# count for the tenant (boot's own load counts as the first one).
reload_ok_count() {
  curl -fsS "${BASE}/metrics" \
    | awk -v s="cats_registry_reloads_total{outcome=\"ok\",tenant=\"$1\"}" \
        'index($0, s) == 1 { print $2; found = 1 } END { if (!found) print 0 }'
}
# counter_value <series> — the sample value of one exact series, 0 if absent.
counter_value() {
  curl -fsS "${BASE}/metrics" \
    | awk -v s="$1" 'index($0, s " ") == 1 { print $2; found = 1 } END { if (!found) print 0 }'
}

RELOADS_BEFORE="$(reload_ok_count eplatform)"

echo "== serve-smoke: concurrent detects on both tenants across a hot reload"
ITEM_JSON="$(head -n 1 "${WORK}/train.jsonl")"
CURL_PIDS=()
burst() {
  local path=$1
  for i in $(seq 1 6); do
    curl -fsS -X POST -H 'Content-Type: application/json' \
      -d "{\"items\":[${ITEM_JSON}]}" "${BASE}${path}" >/dev/null &
    CURL_PIDS+=("$!")
  done
}
burst "/v1/detect"                  # default tenant (taobao)
burst "/t/eplatform/v1/detect"      # path-routed tenant
curl -fsS -X POST -H "Authorization: Bearer ${TOKEN}" \
  -d '{"tenant":"eplatform"}' "${BASE}/admin/reload" >/dev/null
burst "/t/eplatform/v1/detect"      # rides the freshly-swapped model
burst "/t/taobao/v1/detect"
# Wait on the curl jobs only — a bare `wait` would also block on the
# server background job, which never exits on its own. curl -f exits
# non-zero on any non-2xx answer, so one shed/error anywhere (including
# mid-swap) fails the smoke.
DETECT_FAIL=0
for pid in "${CURL_PIDS[@]}"; do
  wait "${pid}" || DETECT_FAIL=1
done
if [[ "${DETECT_FAIL}" -ne 0 ]]; then
  echo "serve-smoke: FAIL: a detect answered non-2xx during the hot reload" >&2
  exit 1
fi

RELOADS_AFTER="$(reload_ok_count eplatform)"
if ! awk -v a="${RELOADS_AFTER}" -v b="${RELOADS_BEFORE}" 'BEGIN { exit !(a > b) }'; then
  echo "serve-smoke: FAIL: cats_registry_reloads_total{ok,eplatform} did not move (${RELOADS_BEFORE} -> ${RELOADS_AFTER})" >&2
  exit 1
fi
echo "== serve-smoke: hot reload swapped with zero failed requests (ok reloads ${RELOADS_BEFORE} -> ${RELOADS_AFTER})"

echo "== serve-smoke: a rejected reload leaves the tenant serving"
printf '{"version":1,"analyzer"' > "${WORK}/models/broken.tmp"
if curl -fsS -X POST -H "Authorization: Bearer ${TOKEN}" \
  -d "{\"tenant\":\"eplatform\",\"path\":\"${WORK}/models/broken.tmp\"}" \
  "${BASE}/admin/reload" >/dev/null 2>&1; then
  echo "serve-smoke: FAIL: truncated snapshot was accepted" >&2
  exit 1
fi
curl -fsS -X POST -H 'Content-Type: application/json' \
  -d "{\"items\":[${ITEM_JSON}]}" "${BASE}/t/eplatform/v1/detect" >/dev/null

echo "== serve-smoke: SIGHUP re-scan picks up a new tenant (columnar snapshot)"
cp "${WORK}/mobile.catc" "${WORK}/models/mobile.catc"
kill -HUP "${SERVER_PID}"
for i in $(seq 1 50); do
  if curl -fsS -H "Authorization: Bearer ${TOKEN}" "${BASE}/admin/tenants" | grep -qF '"tenant":"mobile"'; then
    break
  fi
  sleep 0.2
done
curl -fsS -X POST -H 'Content-Type: application/json' \
  -d "{\"items\":[${ITEM_JSON}]}" "${BASE}/t/mobile/v1/detect" >/dev/null

echo "== serve-smoke: drift loop — feedback in, promotion out, zero dropped requests"
# Build labeled feedback from the training file's own ground truth: a
# mixed batch (12 fraud, 20 normal) so the trainer's stratified split
# has both classes. The forced gate (-retrain-min-f1-gain=-2) promotes
# the challenger, which swaps the default tenant's model mid-traffic.
# The batch is far too large for a command-line argument, so it goes
# through a file.
# feedback_batch <0|1> prints it; with 1, each entry's "fraud" comes ahead
# of its "item" — not the order json.Marshal writes, so the single-pass
# decoder leaves that body to encoding/json.
feedback_batch() {
  awk -v swap="$1" '
    function entry(item, fraud) {
      return swap ? "{\"fraud\":" fraud ",\"item\":" item "}" : "{\"item\":" item ",\"fraud\":" fraud "}"
    }
    { fraud = (index($0, "\"label\":1") || index($0, "\"label\":2")) }
    fraud && nf < 12  { nf++; out[n++] = entry($0, "true") }
    !fraud && nn < 20 { nn++; out[n++] = entry($0, "false") }
    END {
      printf "{\"feedback\":["
      for (i = 0; i < n; i++) printf "%s%s", (i ? "," : ""), out[i]
      printf "]}"
    }
  ' "${WORK}/train.jsonl"
}
feedback_batch 0 > "${WORK}/feedback.json"
feedback_batch 1 > "${WORK}/feedback_reordered.json"

taobao_generation() {
  curl -fsS -H "Authorization: Bearer ${TOKEN}" "${BASE}/admin/tenants" \
    | tr '}' '\n' | grep -F '"tenant":"taobao"' \
    | grep -o '"generation":[0-9]*' | head -n 1 | cut -d: -f2
}
GEN_BEFORE="$(taobao_generation)"

if curl -fsS -X POST -H 'Content-Type: application/json' \
  -d '{"feedback":[]}' "${BASE}/v1/feedback" >/dev/null 2>&1; then
  echo "serve-smoke: FAIL: empty feedback batch was accepted" >&2
  exit 1
fi
FB_RESP="$(curl -fsS -X POST -H 'Content-Type: application/json' \
  -d @"${WORK}/feedback.json" "${BASE}/v1/feedback")"
if ! grep -qF '"accepted":32' <<<"${FB_RESP}"; then
  echo "serve-smoke: FAIL: /v1/feedback did not accept the batch: ${FB_RESP}" >&2
  exit 1
fi
if [[ "$(counter_value 'cats_http_decode_total{route="/v1/feedback",path="fast"}')" -lt 1 ]]; then
  echo "serve-smoke: FAIL: the canonical feedback batch did not take the fast decoder" >&2
  exit 1
fi
WINDOW_BYTES="$(counter_value 'cats_trainer_window_bytes{tenant="taobao"}')"
if [[ "${WINDOW_BYTES}" -le 0 ]]; then
  echo "serve-smoke: FAIL: cats_trainer_window_bytes{taobao} = ${WINDOW_BYTES} after 32 accepted entries" >&2
  exit 1
fi
FB_STDLIB_BEFORE="$(counter_value 'cats_http_decode_total{route="/v1/feedback",path="stdlib"}')"
FB_RESP="$(curl -fsS -X POST -H 'Content-Type: application/json' \
  -d @"${WORK}/feedback_reordered.json" "${BASE}/v1/feedback")"
FB_STDLIB_AFTER="$(counter_value 'cats_http_decode_total{route="/v1/feedback",path="stdlib"}')"
if ! grep -qF '"accepted":32' <<<"${FB_RESP}" || [[ "${FB_STDLIB_AFTER}" -le "${FB_STDLIB_BEFORE}" ]]; then
  echo "serve-smoke: FAIL: reordered feedback batch: ${FB_RESP}, stdlib decodes ${FB_STDLIB_BEFORE} -> ${FB_STDLIB_AFTER}" >&2
  exit 1
fi
echo "== serve-smoke: feedback took the fast decoder (window ${WINDOW_BYTES} bytes); a reordered batch took encoding/json"

# Keep detect traffic flowing while the 1s retrain loop trains, gates,
# and promotes; every response across the swap must be 2xx.
CURL_PIDS=()
GEN_AFTER="${GEN_BEFORE}"
for i in $(seq 1 75); do
  burst "/v1/detect"
  GEN_AFTER="$(taobao_generation)"
  if [[ -n "${GEN_AFTER}" && "${GEN_AFTER}" -gt "${GEN_BEFORE}" ]]; then
    break
  fi
  sleep 0.2
done
burst "/v1/detect"   # rides the freshly-promoted model
DETECT_FAIL=0
for pid in "${CURL_PIDS[@]}"; do
  wait "${pid}" || DETECT_FAIL=1
done
if [[ "${DETECT_FAIL}" -ne 0 ]]; then
  echo "serve-smoke: FAIL: a detect answered non-2xx during the promotion swap" >&2
  exit 1
fi
if [[ -z "${GEN_AFTER}" || "${GEN_AFTER}" -le "${GEN_BEFORE}" ]]; then
  echo "serve-smoke: FAIL: promotion never bumped taobao's generation (${GEN_BEFORE} -> ${GEN_AFTER})" >&2
  exit 1
fi
TRAINER_STATUS="$(curl -fsS -H "Authorization: Bearer ${TOKEN}" "${BASE}/admin/trainer")"
for want in '"enabled":true' '"tenant":"taobao"' '"outcome":"promoted"'; do
  if ! grep -qF "${want}" <<<"${TRAINER_STATUS}"; then
    echo "serve-smoke: FAIL: /admin/trainer missing ${want}: ${TRAINER_STATUS}" >&2
    exit 1
  fi
done
echo "== serve-smoke: challenger promoted (generation ${GEN_BEFORE} -> ${GEN_AFTER}) with zero failed requests"

echo "== serve-smoke: scrape /metrics"
METRICS="$(curl -fsS "${BASE}/metrics")"
for want in \
  'cats_http_requests_total{route="/v1/detect",code="200"}' \
  'cats_http_requests_total{route="/t/{tenant}/v1/detect",code="200"}' \
  'cats_pipeline_items_total{outcome="scored",tenant="taobao"}' \
  'cats_pipeline_items_total{outcome="scored",tenant="eplatform"}' \
  'cats_pipeline_stage_seconds_count{stage="analyze",tenant="taobao"}' \
  'cats_features_comments_analyzed_total' \
  'cats_serve_batches_total{tenant="taobao"}' \
  'cats_serve_batch_size_count{tenant="eplatform"}' \
  'cats_serve_queue_depth{tenant="taobao"}' \
  'cats_serve_coalesced_total{tenant="taobao"}' \
  'cats_serve_shed_total{reason="queue_full",tenant="taobao"}' \
  'cats_serve_flushes_total{reason="idle",tenant="taobao"}' \
  'cats_http_decode_total{route="/v1/detect",path="fast"}' \
  'cats_registry_model_version{tenant="mobile"}' \
  'cats_registry_reloads_total{outcome="ok",tenant="taobao"}' \
  'cats_trainer_cycles_total{outcome="promoted",tenant="taobao"}' \
  'cats_trainer_promoted_generation{tenant="taobao"}' \
  'cats_trainer_window_size{tenant="taobao"}' \
  'cats_trainer_window_bytes{tenant="taobao"}' \
  'cats_http_decode_total{route="/v1/feedback",path="fast"}'; do
  if ! grep -qF "${want}" <<<"${METRICS}"; then
    echo "serve-smoke: FAIL: /metrics is missing ${want}" >&2
    exit 1
  fi
done
if ! grep -E '^cats_serve_batches_total\{tenant="taobao"\} [1-9]' <<<"${METRICS}" >/dev/null; then
  echo "serve-smoke: FAIL: cats_serve_batches_total{taobao} did not move; batcher not in the path" >&2
  exit 1
fi
if ! grep -E '^cats_trainer_cycles_total\{outcome="promoted",tenant="taobao"\} [1-9]' <<<"${METRICS}" >/dev/null; then
  echo "serve-smoke: FAIL: cats_trainer_cycles_total{promoted,taobao} did not move; drift loop not in the path" >&2
  exit 1
fi
echo "== serve-smoke: metric names present and counting"

echo "== serve-smoke: SIGTERM graceful shutdown"
kill -TERM "${SERVER_PID}"
STATUS=0
wait "${SERVER_PID}" || STATUS=$?
SERVER_PID=""
if [[ "${STATUS}" -ne 0 ]]; then
  echo "serve-smoke: FAIL: catsserve exited ${STATUS} on SIGTERM" >&2
  exit 1
fi

echo "== serve-smoke: second boot, -batch-max-wait 500ms: a lone request does not pay it"
"${WORK}/catsserve" -models "${WORK}/models" -default-tenant taobao \
  -addr "127.0.0.1:${PORT}" -shutdown-timeout 10s \
  -batch -batch-max-wait 500ms &
SERVER_PID=$!
for i in $(seq 1 50); do
  if curl -fsS "${BASE}/healthz" >/dev/null 2>&1; then
    break
  fi
  if ! kill -0 "${SERVER_PID}" 2>/dev/null; then
    echo "serve-smoke: FAIL: server died during the second startup" >&2
    exit 1
  fi
  sleep 0.2
done

# One item in the canonical encoding, and the same item written the way
# the single-pass decoder does not read: an upper-case key (encoding/json
# folds case) and the comment text as \u escapes.
CANONICAL='{"items":[{"item_id":"smoke-lone","shop_id":"s1","item_name":"n","price_cents":100,"sales_volume":50,"comments":[{"comment_id":"c1","item_id":"smoke-lone","comment_content":"好评很好","user_id":"u1","nickname":"n1","userExpValue":100,"client_information":1,"date":"2018-06-01T08:00:00Z"}],"label":0}]}'
REENCODED='{"ITEMS":[{"item_id":"smoke-lone","shop_id":"s1","item_name":"n","price_cents":100,"sales_volume":50,"comments":[{"comment_id":"c1","item_id":"smoke-lone","comment_content":"\u597d\u8bc4\u5f88\u597d","user_id":"u1","nickname":"n1","userExpValue":100,"client_information":1,"date":"2018-06-01T08:00:00Z"}],"label":0}]}'

LONE="$(curl -fsS -o "${WORK}/canonical.out" -w '%{time_total}' -X POST \
  -H 'Content-Type: application/json' -d "${CANONICAL}" "${BASE}/v1/detect")"
if ! awk -v t="${LONE}" 'BEGIN { exit !(t < 0.25) }'; then
  echo "serve-smoke: FAIL: a lone detect took ${LONE}s under -batch-max-wait 500ms; it waited for the timer" >&2
  exit 1
fi
IDLE="$(counter_value 'cats_serve_flushes_total{reason="idle",tenant="taobao"}')"
TIMER="$(counter_value 'cats_serve_flushes_total{reason="timer",tenant="taobao"}')"
if [[ "${IDLE}" -lt 1 || "${TIMER}" -ne 0 ]]; then
  echo "serve-smoke: FAIL: flushes after one lone detect: idle=${IDLE} timer=${TIMER}, want >=1 and 0" >&2
  exit 1
fi
echo "== serve-smoke: lone detect answered in ${LONE}s (idle flushes ${IDLE}, timer flushes ${TIMER})"

STDLIB_BEFORE="$(counter_value 'cats_http_decode_total{route="/v1/detect",path="stdlib"}')"
curl -fsS -o "${WORK}/reencoded.out" -X POST -H 'Content-Type: application/json' \
  -d "${REENCODED}" "${BASE}/v1/detect"
STDLIB_AFTER="$(counter_value 'cats_http_decode_total{route="/v1/detect",path="stdlib"}')"
detections() { grep -o '"detections":\[[^]]*\]' "$1"; }
if [[ -z "$(detections "${WORK}/canonical.out")" || "$(detections "${WORK}/canonical.out")" != "$(detections "${WORK}/reencoded.out")" ]]; then
  echo "serve-smoke: FAIL: re-encoded body scored differently:" >&2
  cat "${WORK}/canonical.out" "${WORK}/reencoded.out" >&2
  exit 1
fi
if [[ "${STDLIB_AFTER}" -le "${STDLIB_BEFORE}" ]]; then
  echo "serve-smoke: FAIL: cats_http_decode_total{path=\"stdlib\"} did not move (${STDLIB_BEFORE} -> ${STDLIB_AFTER})" >&2
  exit 1
fi
if [[ "$(counter_value 'cats_http_decode_total{route="/v1/detect",path="fast"}')" -lt 1 ]]; then
  echo "serve-smoke: FAIL: the canonical body did not take the fast decoder" >&2
  exit 1
fi
echo "== serve-smoke: re-encoded body took encoding/json and got the same verdicts" \
  "(idle flushes $(counter_value 'cats_serve_flushes_total{reason="idle",tenant="taobao"}')," \
  "timer flushes $(counter_value 'cats_serve_flushes_total{reason="timer",tenant="taobao"}'))"

kill -TERM "${SERVER_PID}"
STATUS=0
wait "${SERVER_PID}" || STATUS=$?
SERVER_PID=""
if [[ "${STATUS}" -ne 0 ]]; then
  echo "serve-smoke: FAIL: catsserve (second boot) exited ${STATUS} on SIGTERM" >&2
  exit 1
fi
echo "== serve-smoke: PASS"
