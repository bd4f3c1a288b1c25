#!/usr/bin/env bash
# Smoke-test a live nanobenchd against the documented wire examples:
# build the binary, start it with the docs/API.md golden configuration,
# curl /v1/healthz and a small /v1/run (three times: the miss, the first
# cache hit and a hit answered from the stored rendering by the body's
# alias, then once more re-indented, which decodes and answers the same
# stored rendering; the four must count three cache hits on /metrics),
# submit a sweep through the async jobs API (submit → long-poll →
# result), scrape /metrics, check that an oversized campaign is refused
# and that a campaign failing mid-evaluation answers 422 while the
# daemon keeps serving, and diff each
# deterministic response against the corresponding example in
# docs/API.md. (Job records and the metrics body carry wall-clock
# timestamps, so those are checked structurally, not byte-for-byte.)
# CI runs this (make smoke) so the server a user starts and the document
# they read can never drift apart — the same contract TestAPIDocGolden
# enforces in-process, checked once more over a real socket and a real
# process lifecycle.
set -eu

cd "$(dirname "$0")/.."
PORT="${SMOKE_PORT:-18080}"
ADDR="127.0.0.1:$PORT"
BIN="$(mktemp -d)/nanobenchd"

# extract NAME prints the fenced block following "<!-- golden:NAME -->".
extract() {
	awk -v name="$1" '
		$0 == "<!-- golden:" name " -->" { grab = 1; next }
		grab && /^```/ { if (infence) exit; infence = 1; next }
		grab && infence { print }
	' docs/API.md
}

echo "== build"
go build -o "$BIN" ./cmd/nanobenchd

echo "== start on $ADDR (docs/API.md golden configuration)"
"$BIN" -addr "$ADDR" -seed 42 -parallelism 4 -warm_up_count 0 -cache_entries 1024 &
SRV=$!
trap 'kill "$SRV" 2>/dev/null || true' EXIT INT TERM

for i in $(seq 1 50); do
	if curl -sf "http://$ADDR/v1/healthz" >/dev/null 2>&1; then
		break
	fi
	[ "$i" -eq 50 ] && { echo "server never became healthy" >&2; exit 1; }
	sleep 0.1
done

echo "== GET /v1/healthz matches the documented example"
curl -s "http://$ADDR/v1/healthz" | diff <(extract healthz-response) - \
	|| { echo "healthz drifted from docs/API.md" >&2; exit 1; }

echo "== POST /v1/run matches the documented example"
extract run-request | curl -s -X POST --data-binary @- "http://$ADDR/v1/run" \
	| diff <(extract run-response) - \
	|| { echo "/v1/run drifted from docs/API.md" >&2; exit 1; }

# cache_hits prints the nanobenchd_cache_hits_total counter.
cache_hits() {
	curl -s "http://$ADDR/metrics" | awk '$1 == "nanobenchd_cache_hits_total" { print $2 }'
}

HITS="$(cache_hits)"
for leg in "first cache hit" "alias hit"; do
	echo "== POST /v1/run again ($leg) matches the documented example"
	extract run-request | curl -s -X POST --data-binary @- "http://$ADDR/v1/run" \
		| diff <(extract run-response) - \
		|| { echo "/v1/run ($leg) drifted from docs/API.md" >&2; exit 1; }
done
[ "$(cache_hits)" = "$((HITS + 2))" ] \
	|| { echo "nanobenchd_cache_hits_total went from $HITS to $(cache_hits), want +2" >&2; exit 1; }

echo "== POST /v1/run re-indented (decoded, stored-rendering hit) matches the documented example"
extract run-request | sed 's/  /\t/g' | curl -s -X POST --data-binary @- "http://$ADDR/v1/run" \
	| diff <(extract run-response) - \
	|| { echo "/v1/run (re-indented) drifted from docs/API.md" >&2; exit 1; }
[ "$(cache_hits)" = "$((HITS + 3))" ] \
	|| { echo "nanobenchd_cache_hits_total went from $HITS to $(cache_hits), want +3" >&2; exit 1; }

echo "== POST /v1/jobs accepts the documented submission"
SUBMIT="$(extract jobs-submit-request | curl -s -X POST --data-binary @- "http://$ADDR/v1/jobs")"
JOB="$(printf '%s' "$SUBMIT" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p' | head -n 1)"
[ -n "$JOB" ] || { echo "submit returned no job id: $SUBMIT" >&2; exit 1; }

echo "== GET /v1/jobs/$JOB/result?wait=1 matches the documented sync sweep"
curl -s "http://$ADDR/v1/jobs/$JOB/result?wait=1" | diff <(extract sweep-response) - \
	|| { echo "async job result drifted from the documented /v1/sweep response" >&2; exit 1; }

echo "== GET /v1/jobs/$JOB reports the job done"
curl -s "http://$ADDR/v1/jobs/$JOB" | grep -q '"state": "done"' \
	|| { echo "job record did not report done" >&2; exit 1; }

echo "== GET /metrics exposes the documented families"
METRICS="$(curl -s "http://$ADDR/metrics")"
for family in \
	nanobenchd_jobs_submitted_total \
	nanobenchd_jobs_finished_total \
	nanobenchd_job_queue_seconds_bucket \
	nanobenchd_job_run_seconds_bucket \
	nanobenchd_cache_hits_total \
	nanobenchd_requests_total; do
	printf '%s' "$METRICS" | grep -q "$family" \
		|| { echo "/metrics is missing $family" >&2; exit 1; }
done

echo "== POST /v1/jobs refuses an oversized campaign and the daemon keeps serving"
OVERSIZED="$(curl -s -w '\n%{http_code}' -X POST --data-binary '{"campaign": {"workers": 1099511627776}}' "http://$ADDR/v1/jobs")"
[ "$(printf '%s' "$OVERSIZED" | tail -n 1)" = 422 ] \
	|| { echo "oversized campaign was not refused with 422: $OVERSIZED" >&2; exit 1; }
printf '%s' "$OVERSIZED" | grep -q '"code": "invalid_argument"' \
	|| { echo "oversized campaign refusal is not invalid_argument: $OVERSIZED" >&2; exit 1; }
curl -sf "http://$ADDR/v1/healthz" >/dev/null \
	|| { echo "/v1/healthz stopped answering after an oversized campaign" >&2; exit 1; }

echo "== a campaign that fails mid-evaluation answers 422 and the daemon keeps serving"
FAILING="$(curl -s -X POST --data-binary '{"campaign": {"cpus": ["IvyBridge"], "levels": ["L1"], "age_graphs": true, "age_max_fresh": 1000, "age_step": 500, "age_trials": 2}}' "http://$ADDR/v1/jobs")"
CJOB="$(printf '%s' "$FAILING" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p' | head -n 1)"
[ -n "$CJOB" ] || { echo "campaign submit returned no job id: $FAILING" >&2; exit 1; }
FAILED="$(curl -s -w '\n%{http_code}' "http://$ADDR/v1/jobs/$CJOB/result?wait=1")"
[ "$(printf '%s' "$FAILED" | tail -n 1)" = 422 ] \
	|| { echo "failed campaign result is not 422: $FAILED" >&2; exit 1; }
printf '%s' "$FAILED" | grep -q '"code": "evaluation_failed"' \
	|| { echo "failed campaign result is not evaluation_failed: $FAILED" >&2; exit 1; }
curl -sf "http://$ADDR/v1/healthz" >/dev/null \
	|| { echo "/v1/healthz stopped answering after a failed campaign" >&2; exit 1; }

echo "== graceful shutdown"
kill -TERM "$SRV"
wait "$SRV"
trap - EXIT INT TERM
echo "smoke OK"
