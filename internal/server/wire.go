package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"nanobench"
	"nanobench/client"
	"nanobench/internal/jobs"
)

// The wire schema is documented in docs/API.md; the golden test keeps
// the two in lock-step. The /v1 evaluation and job bodies are the client
// package's exported types; this file declares only the server-side
// bodies (healthz, stats) and the error plumbing. Non-streamed responses
// are emitted json.MarshalIndent-pretty (two-space indent, trailing
// newline) so curl output and the documented examples are
// byte-identical; NDJSON stream lines are compact, one JSON object per
// line.

// healthzResponse is the body of GET /v1/healthz.
type healthzResponse struct {
	Status string   `json:"status"`
	CPUs   []string `json:"cpus"`
}

// statsResponse is the body of GET /v1/stats.
type statsResponse struct {
	Sessions []sessionStat            `json:"sessions"`
	Cache    nanobench.BatchCacheInfo `json:"cache"`
	InFlight int64                    `json:"inflight"`
	Jobs     jobs.Stats               `json:"jobs"`
	Requests requestStats             `json:"requests"`
	Options  optionsStat              `json:"options"`
}

type sessionStat struct {
	CPU  string `json:"cpu"`
	Mode string `json:"mode"`
}

type requestStats struct {
	Run      uint64 `json:"run"`
	RunBatch uint64 `json:"runbatch"`
	Sweep    uint64 `json:"sweep"`
	Jobs     uint64 `json:"jobs"`
}

type optionsStat struct {
	Seed            int64 `json:"seed"`
	Parallelism     int   `json:"parallelism"`
	WarmUpCount     int   `json:"warm_up_count"`
	CacheMaxEntries int   `json:"cache_max_entries"`
}

// apiError pairs an error envelope with its HTTP status and, for the
// backpressure codes, a Retry-After hint in seconds.
type apiError struct {
	status     int
	body       client.ItemError
	retryAfter int
}

// Error makes apiError usable as an error value, so job records can
// store the exact envelope their result endpoint will replay.
func (e *apiError) Error() string {
	return fmt.Sprintf("%s: %s", e.body.Code, e.body.Message)
}

// Error codes of the envelope, with their HTTP statuses.
func errBadRequest(msg string) *apiError {
	return &apiError{status: http.StatusBadRequest, body: client.ItemError{Code: "bad_request", Message: msg}}
}
func errInvalid(msg string) *apiError {
	return &apiError{status: http.StatusUnprocessableEntity, body: client.ItemError{Code: "invalid_argument", Message: msg}}
}
func errNotFound(msg string) *apiError {
	return &apiError{status: http.StatusNotFound, body: client.ItemError{Code: "not_found", Message: msg}}
}
func errMethod(msg string) *apiError {
	return &apiError{status: http.StatusMethodNotAllowed, body: client.ItemError{Code: "method_not_allowed", Message: msg}}
}
func errTooLarge(msg string) *apiError {
	return &apiError{status: http.StatusRequestEntityTooLarge, body: client.ItemError{Code: "request_too_large", Message: msg}}
}
func errInternal(msg string) *apiError {
	return &apiError{status: http.StatusInternalServerError, body: client.ItemError{Code: "internal", Message: msg}}
}

// errQueueFull is the admission-backpressure rejection: the job queue
// stayed full past its patience window. retryAfter is the server's
// drain-time estimate in seconds, sent as a Retry-After header.
func errQueueFull(msg string, retryAfter int) *apiError {
	return &apiError{status: http.StatusTooManyRequests, body: client.ItemError{Code: "queue_full", Message: msg}, retryAfter: retryAfter}
}

// errUnavailable covers the not-ready and shutting-down cases: a result
// requested before its job finished, or a submission during drain.
func errUnavailable(msg string, retryAfter int) *apiError {
	return &apiError{status: http.StatusServiceUnavailable, body: client.ItemError{Code: "unavailable", Message: msg}, retryAfter: retryAfter}
}

// statusClientClosedRequest is nginx's non-standard 499: the client went
// away before the response. It is reported best-effort — usually nobody
// is left to read it.
const statusClientClosedRequest = 499

// itemError maps a per-evaluation error to the envelope payload used
// inside batch items and stream lines.
func itemError(err error) *client.ItemError {
	switch {
	case errors.Is(err, context.Canceled):
		return &client.ItemError{Code: "canceled", Message: "evaluation canceled"}
	case errors.Is(err, context.DeadlineExceeded):
		return &client.ItemError{Code: "deadline_exceeded", Message: "evaluation deadline exceeded"}
	}
	return &client.ItemError{Code: "evaluation_failed", Message: err.Error()}
}

// decodeJSON strictly decodes the request body into v: unknown fields,
// trailing garbage, and oversized bodies are errors.
func decodeJSON(r *http.Request, v any) *apiError {
	body, e := readBody(r)
	if e != nil {
		return e
	}
	return decodeBody(body, v)
}

// readBody reads the whole request body; one past the server's size
// bound is the 413 request_too_large.
func readBody(r *http.Request) ([]byte, *apiError) {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return nil, errTooLarge(fmt.Sprintf("request body exceeds %d bytes", tooLarge.Limit))
		}
		return nil, errBadRequest("reading request body: " + err.Error())
	}
	return body, nil
}

// decodeBody strictly decodes a read request body into v: unknown fields
// and trailing garbage are errors.
func decodeBody(body []byte, v any) *apiError {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return errBadRequest(err.Error())
	}
	if dec.More() {
		return errBadRequest("trailing data after JSON body")
	}
	return nil
}

// rendered is a response body renderJSON has already rendered; a
// second renderJSON passes it through unchanged.
type rendered []byte

// renderJSON renders v exactly as writeJSON puts it on the wire:
// pretty-printed with a trailing newline. Job records store these bytes
// so a job's result replays the synchronous response byte-for-byte.
func renderJSON(v any) ([]byte, error) {
	if data, ok := v.(rendered); ok {
		return data, nil
	}
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// writeJSON emits a pretty-printed JSON response with a trailing
// newline, matching the documented examples byte-for-byte.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := renderJSON(v)
	if err != nil {
		// Marshalling our own response types cannot fail; if it ever
		// does, fall through to a plain 500.
		//nanolint:allow errenvelope the envelope encoder's own last-resort fallback; rendering the envelope is what just failed
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(data)
}

// writeError emits the error envelope, with a Retry-After header when
// the error carries a backpressure hint.
func writeError(w http.ResponseWriter, e *apiError) {
	if e.retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(e.retryAfter))
	}
	writeJSON(w, e.status, client.ErrorResponse{Error: e.body})
}
