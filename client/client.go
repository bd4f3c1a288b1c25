// Package client is the typed Go client for nanobenchd's wire API
// (docs/API.md): the synchronous evaluation endpoints, and handles for
// the asynchronous /v1/jobs surface — submit, poll, wait, stream
// progress, cancel. Every call takes a context.Context; cancellation
// aborts the HTTP request, and cancelling a Wait or Stream does not
// cancel the job itself (use Job.Cancel for that).
//
//	c := client.New("http://localhost:8080")
//	job, err := c.SubmitSweep(ctx, "", "", sweep)
//	...
//	body, err := job.Wait(ctx) // long-polls; bytes == the sync response
//
// The error of every failed call is an *APIError carrying the server's
// typed envelope (code, message, HTTP status, Retry-After hint), so
// callers can branch on client.IsCode(err, "queue_full") instead of
// string-matching.
//
// The exported request and response types are the Go form of every /v1
// body: the server decodes its requests into them and encodes its
// replies from them, so the client and the server cannot drift.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"nanobench"
)

// Client talks to one nanobenchd server. The zero value is not usable;
// create it with New. Safe for concurrent use.
type Client struct {
	baseURL string
	httpc   *http.Client
}

// New builds a client for the server at baseURL (e.g.
// "http://localhost:8080"). The optional httpc overrides the transport;
// by default http.DefaultClient is used.
func New(baseURL string, httpc ...*http.Client) *Client {
	c := &Client{baseURL: baseURL, httpc: http.DefaultClient}
	if len(httpc) > 0 && httpc[0] != nil {
		c.httpc = httpc[0]
	}
	return c
}

// APIError is the server's typed error envelope, plus the transport
// facts a retry policy needs.
type APIError struct {
	// StatusCode is the HTTP status the envelope arrived under.
	StatusCode int
	// Code is the stable machine-readable code ("queue_full", ...).
	Code string
	// Message is the human-readable description.
	Message string
	// RetryAfter is the server's Retry-After hint in seconds (0: none).
	RetryAfter int
}

func (e *APIError) Error() string {
	return fmt.Sprintf("nanobenchd: %s (%d): %s", e.Code, e.StatusCode, e.Message)
}

// IsCode reports whether err is an *APIError with the given code.
func IsCode(err error, code string) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == code
}

// RunRequest is one evaluation addressed to a (cpu, mode) session;
// empty strings select the server defaults ("Skylake", "kernel").
type RunRequest struct {
	CPU    string           `json:"cpu,omitempty"`
	Mode   string           `json:"mode,omitempty"`
	Config nanobench.Config `json:"config"`
}

// RunResponse is the body of a successful run (and of a run job's
// result).
type RunResponse struct {
	CPU    string            `json:"cpu"`
	Mode   string            `json:"mode"`
	Result *nanobench.Result `json:"result"`
}

// Item is one evaluation's outcome inside a batch or sweep response.
// Exactly one of Result and Err is set.
type Item struct {
	Index  int               `json:"index"`
	Result *nanobench.Result `json:"result,omitempty"`
	Err    *ItemError        `json:"error,omitempty"`
}

// ItemError is the error envelope's payload: a stable machine-readable
// code plus a human-readable message. Per-item failures carry it too.
type ItemError struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

// ErrorResponse is the error envelope every failed request returns.
type ErrorResponse struct {
	Error ItemError `json:"error"`
}

// BatchResponse is the body of a successful runbatch.
type BatchResponse struct {
	Results []Item `json:"results"`
}

// SweepResponse is the body of a successful non-streamed sweep.
type SweepResponse struct {
	Count   int    `json:"count"`
	Results []Item `json:"results"`
}

// SweepRequest is the body of a sweep. A nil Sweep is an empty one.
type SweepRequest struct {
	CPU   string           `json:"cpu,omitempty"`
	Mode  string           `json:"mode,omitempty"`
	Sweep *nanobench.Sweep `json:"sweep"`
}

// BatchRequest is the body of a runbatch.
type BatchRequest struct {
	Jobs []RunRequest `json:"jobs"`
}

// Run evaluates one config synchronously (POST /v1/run).
func (c *Client) Run(ctx context.Context, cpu, mode string, cfg nanobench.Config) (*RunResponse, error) {
	var out RunResponse
	if err := c.postJSON(ctx, "/v1/run", RunRequest{CPU: cpu, Mode: mode, Config: cfg}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RunBatch evaluates a heterogeneous batch synchronously
// (POST /v1/runbatch). Results come back in request order with
// per-item errors.
func (c *Client) RunBatch(ctx context.Context, jobs []RunRequest) (*BatchResponse, error) {
	var out BatchResponse
	if err := c.postJSON(ctx, "/v1/runbatch", BatchRequest{Jobs: jobs}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Sweep expands and evaluates a sweep synchronously (POST /v1/sweep).
func (c *Client) Sweep(ctx context.Context, cpu, mode string, sw *nanobench.Sweep) (*SweepResponse, error) {
	var out SweepResponse
	if err := c.postJSON(ctx, "/v1/sweep", SweepRequest{CPU: cpu, Mode: mode, Sweep: sw}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// StreamSweep evaluates a sweep with ?stream=1 and calls fn for every
// NDJSON line, in expansion order, as the results land. A non-nil
// error from fn stops the stream (cancelling the sweep server-side)
// and is returned.
func (c *Client) StreamSweep(ctx context.Context, cpu, mode string, sw *nanobench.Sweep, fn func(Item) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // closing the body mid-stream cancels server-side
	resp, err := c.do(ctx, http.MethodPost, "/v1/sweep?stream=1", SweepRequest{CPU: cpu, Mode: mode, Sweep: sw})
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		var it Item
		if err := json.Unmarshal(sc.Bytes(), &it); err != nil {
			return fmt.Errorf("client: stream line: %w", err)
		}
		if err := fn(it); err != nil {
			return err
		}
	}
	return sc.Err()
}

// postJSON posts body and decodes a successful response into out.
func (c *Client) postJSON(ctx context.Context, path string, body, out any) error {
	resp, err := c.do(ctx, http.MethodPost, path, body)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(out)
}

// do issues the request and turns error envelopes into *APIError. On
// success the caller owns resp.Body.
func (c *Client) do(ctx context.Context, method, path string, body any) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("client: encoding request: %w", err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	return resp, nil
}

// decodeError turns a failed response into an *APIError.
func decodeError(resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	ae := &APIError{StatusCode: resp.StatusCode}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		ae.RetryAfter, _ = strconv.Atoi(ra)
	}
	var env ErrorResponse
	if json.Unmarshal(data, &env) == nil && env.Error.Code != "" {
		ae.Code, ae.Message = env.Error.Code, env.Error.Message
		return ae
	}
	ae.Code = "internal"
	ae.Message = string(data)
	return ae
}
