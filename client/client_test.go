package client_test

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"nanobench"
	"nanobench/client"
	"nanobench/internal/server"
)

func newClient(t *testing.T, opts server.Options) *client.Client {
	t.Helper()
	srv, err := server.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return client.New(ts.URL)
}

func TestClientRunAndBatch(t *testing.T) {
	c := newClient(t, server.Options{Seed: 42})
	ctx := context.Background()

	cfg := nanobench.Config{Code: nanobench.MustAsm("add rax, rbx"), NMeasurements: 3}
	run, err := c.Run(ctx, "", "", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if run.CPU != "Skylake" || run.Mode != "kernel" || run.Result == nil {
		t.Fatalf("run = %+v", run)
	}
	if _, ok := run.Result.Get("Core cycles"); !ok {
		t.Error("run result has no Core cycles metric")
	}

	batch, err := c.RunBatch(ctx, []client.RunRequest{
		{Config: cfg},
		{CPU: "Haswell", Mode: "user", Config: cfg},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Results) != 2 || batch.Results[0].Err != nil || batch.Results[1].Err != nil {
		t.Fatalf("batch = %+v", batch)
	}
}

func TestClientErrorEnvelope(t *testing.T) {
	c := newClient(t, server.Options{})
	_, err := c.Run(context.Background(), "Pentium", "", nanobench.Config{Code: nanobench.MustAsm("nop")})
	if err == nil {
		t.Fatal("unknown CPU accepted")
	}
	var ae *client.APIError
	if !errors.As(err, &ae) {
		t.Fatalf("error is %T, want *APIError: %v", err, err)
	}
	if ae.StatusCode != 422 || ae.Code != "invalid_argument" || ae.Message == "" {
		t.Errorf("envelope = %+v", ae)
	}
	if !client.IsCode(err, "invalid_argument") || client.IsCode(err, "queue_full") {
		t.Error("IsCode misclassifies the envelope")
	}
}

func TestClientSweepSyncAsyncAndStream(t *testing.T) {
	c := newClient(t, server.Options{Seed: 42})
	ctx := context.Background()
	sw := nanobench.NewSweep(nanobench.Config{NMeasurements: 3}).
		Asm("add rax, rbx", "imul rax, rbx").
		Unroll(10, 100)

	sync, err := c.Sweep(ctx, "", "", sw)
	if err != nil {
		t.Fatal(err)
	}
	if sync.Count != 4 || len(sync.Results) != 4 {
		t.Fatalf("sync sweep = count %d, %d results", sync.Count, len(sync.Results))
	}

	var streamed []client.Item
	if err := c.StreamSweep(ctx, "", "", sw, func(it client.Item) error {
		streamed = append(streamed, it)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(streamed) != 4 {
		t.Fatalf("stream delivered %d items", len(streamed))
	}

	// The async job: raw Wait bytes decode to the same response the sync
	// call produced.
	job, err := c.SubmitSweep(ctx, "", "", sw)
	if err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.Submitted.Kind != "sweep" {
		t.Fatalf("job handle = %+v", job)
	}
	raw, err := job.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var fromJob client.SweepResponse
	if err := json.Unmarshal(raw, &fromJob); err != nil {
		t.Fatal(err)
	}
	syncJSON, _ := json.Marshal(sync)
	jobJSON, _ := json.Marshal(&fromJob)
	if string(syncJSON) != string(jobJSON) {
		t.Errorf("job result decodes differently from the sync sweep:\njob:  %s\nsync: %s", jobJSON, syncJSON)
	}

	// Typed accessors agree with the raw bytes.
	decoded, err := job.WaitSweep(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(decoded, &fromJob) {
		t.Error("WaitSweep disagrees with Wait + Unmarshal")
	}

	// The job is terminal: Poll reports done with full progress, the
	// event log replays the transitions, and Stream ends on a terminal
	// record.
	status, err := job.Poll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != "done" || !status.Terminal() || status.Progress.Completed != 4 {
		t.Errorf("status = %+v", status)
	}
	events, err := job.Events(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 || events[0].State != "queued" || events[2].State != "done" {
		t.Errorf("events = %+v", events)
	}
	var last client.JobStatus
	if err := job.Stream(ctx, func(s client.JobStatus) error { last = s; return nil }); err != nil {
		t.Fatal(err)
	}
	if !last.Terminal() {
		t.Errorf("stream ended on non-terminal record %+v", last)
	}
}

// TestClientSubmitCampaign submits a one-model, L1-only campaign through
// the typed client and decodes its single inferred cell.
func TestClientSubmitCampaign(t *testing.T) {
	c := newClient(t, server.Options{Seed: 42})
	ctx := context.Background()
	job, err := c.SubmitCampaign(ctx, client.CampaignRequest{
		CPUs: []string{"IvyBridge"}, Levels: []string{"L1"}, MaxSequences: 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	if job.ID == "" || job.Submitted.Kind != "campaign" || job.Submitted.Progress.Total != 1 {
		t.Fatalf("job handle = %+v", job)
	}
	raw, err := job.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Cells []struct {
			CPU, Level, Policy string
			OK                 bool
		} `json:"cells"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Cells) != 1 {
		t.Fatalf("campaign result: %s", raw)
	}
	if cell := res.Cells[0]; cell.CPU != "IvyBridge" || cell.Level != "L1" || !cell.OK || cell.Policy == "" {
		t.Errorf("cell = %+v", cell)
	}
	status, err := job.Poll(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if status.State != "done" || status.Progress.Completed != 1 {
		t.Errorf("status = %+v", status)
	}

	// An unknown level is refused at submit time with the typed envelope.
	if _, err := c.SubmitCampaign(ctx, client.CampaignRequest{Levels: []string{"L4"}}); !client.IsCode(err, "bad_request") {
		t.Errorf("unknown level: error %v, want code bad_request", err)
	}
}

func TestClientCancel(t *testing.T) {
	c := newClient(t, server.Options{Seed: 42, Parallelism: 1, JobWorkers: 1})
	ctx := context.Background()

	// A slow sweep on one worker; cancel it while it runs.
	slow := nanobench.NewSweep(nanobench.Config{Code: nanobench.MustAsm("add rax, rbx")}).
		Loop(1500, 1502, 1504, 1506, 1508, 1510, 1512, 1514)
	job, err := c.SubmitSweep(ctx, "", "", slow)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		s, err := job.Poll(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if s.State == "running" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started: %+v", s)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := job.Cancel(ctx); err != nil {
		t.Fatal(err)
	}
	for {
		s, err := job.Poll(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if s.Terminal() {
			if s.State != "canceled" {
				t.Fatalf("post-cancel state %q", s.State)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never wound down after cancel")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A canceled job's result is the typed 409 envelope.
	if _, err := job.Result(ctx); !client.IsCode(err, "canceled") {
		t.Errorf("canceled result error = %v, want code canceled", err)
	}
}
