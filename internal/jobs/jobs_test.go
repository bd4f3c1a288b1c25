package jobs

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// fakeClock is a deterministic Now: every reading advances 1ms.
func fakeClock() func() int64 {
	var c atomic.Int64
	return func() int64 { return c.Add(int64(time.Millisecond)) }
}

func shutdown(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := m.Shutdown(ctx); err != nil && err.Error() != "jobs: already shut down" {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestSubmitRunLifecycle(t *testing.T) {
	m := New(Options{Workers: 1, Now: fakeClock()})
	defer shutdown(t, m)

	snap, err := m.Submit("sweep", 2, func(ctx context.Context, p *Progress) ([]byte, error) {
		p.Step(false, false)
		p.Step(true, false)
		return []byte("body"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap.ID != "j000001" || snap.State != Queued || snap.Kind != "sweep" {
		t.Fatalf("submitted snapshot = %+v", snap)
	}
	if snap.SubmittedNs == 0 || snap.StartedNs != 0 || snap.FinishedNs != 0 {
		t.Fatalf("timestamps at submit: %+v", snap)
	}

	final, err := m.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != Done || final.Err != nil {
		t.Fatalf("final = %+v", final)
	}
	if final.StartedNs <= final.SubmittedNs || final.FinishedNs <= final.StartedNs {
		t.Errorf("phase timestamps not ordered: %+v", final)
	}
	if final.Progress != (Counts{Total: 2, Completed: 2, Failed: 0, CacheHits: 1}) {
		t.Errorf("progress = %+v", final.Progress)
	}

	_, body, err := m.Result(snap.ID)
	if err != nil || string(body) != "body" {
		t.Errorf("result = %q, %v", body, err)
	}

	// The transition log is queued, running, done — O(1) per job.
	events, err := m.Events(snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	states := make([]State, len(events))
	for i, e := range events {
		states[i] = e.State
	}
	if len(states) != 3 || states[0] != Queued || states[1] != Running || states[2] != Done {
		t.Errorf("transition log = %v", states)
	}
}

func TestFailedAndCanceledStates(t *testing.T) {
	m := New(Options{Workers: 1, Now: fakeClock()})
	defer shutdown(t, m)

	boom := errors.New("boom")
	snap, err := m.Submit("run", 1, func(ctx context.Context, p *Progress) ([]byte, error) {
		return nil, boom
	})
	if err != nil {
		t.Fatal(err)
	}
	final, err := m.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != Failed || !errors.Is(final.Err, boom) {
		t.Errorf("failed job = %+v", final)
	}

	// A task that returns the context's error after Cancel lands canceled.
	started := make(chan struct{})
	snap, err = m.Submit("run", 1, func(ctx context.Context, p *Progress) ([]byte, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.Cancel(snap.ID, "test"); err != nil {
		t.Fatal(err)
	}
	final, err = m.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != Canceled {
		t.Errorf("canceled job = %+v", final)
	}
}

func TestCancelQueuedNeverRuns(t *testing.T) {
	m := New(Options{Workers: 1, QueueSize: 4, Now: fakeClock()})
	defer shutdown(t, m)

	// Occupy the only worker so the next submission stays queued.
	gate := make(chan struct{})
	started := make(chan struct{})
	blocker, err := m.Submit("run", 1, func(ctx context.Context, p *Progress) ([]byte, error) {
		close(started)
		<-gate
		return []byte("ok"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	var ran atomic.Bool
	queued, err := m.Submit("run", 1, func(ctx context.Context, p *Progress) ([]byte, error) {
		ran.Store(true)
		return []byte("ok"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snap, err := m.Cancel(queued.ID, "changed my mind")
	if err != nil {
		t.Fatal(err)
	}
	if snap.State != Canceled || snap.Err == nil {
		t.Fatalf("canceled-while-queued snapshot = %+v", snap)
	}

	close(gate)
	if _, err := m.Wait(context.Background(), blocker.ID); err != nil {
		t.Fatal(err)
	}
	// The worker drains the queue past the parked job without running it.
	if _, err := m.Wait(context.Background(), queued.ID); err != nil {
		t.Fatal(err)
	}
	if ran.Load() {
		t.Error("canceled-while-queued task ran anyway")
	}
	// Cancel is idempotent on terminal jobs.
	if again, err := m.Cancel(queued.ID, "again"); err != nil || again.State != Canceled {
		t.Errorf("second cancel = %+v, %v", again, err)
	}
}

func TestQueueOverflow(t *testing.T) {
	m := New(Options{Workers: 1, QueueSize: 1, Now: fakeClock()})
	defer shutdown(t, m)

	gate := make(chan struct{})
	defer close(gate)
	// Buffered: the first task may start before the test waits, and its
	// non-blocking send must not be dropped.
	started := make(chan struct{}, 1)
	block := func(ctx context.Context, p *Progress) ([]byte, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-gate
		return []byte("ok"), nil
	}
	// One running + one queued fills the system (queue bound 1).
	if _, err := m.Submit("run", 1, block); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.Submit("run", 1, block); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Submit("run", 1, block); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit error = %v, want ErrQueueFull", err)
	}
	if ra := m.RetryAfter(); ra < 1 || ra > 60 {
		t.Errorf("RetryAfter = %d, want within [1, 60]", ra)
	}
	if s := m.Stats(); s.Queued != 1 || s.Running != 1 || s.Capacity != 1 {
		t.Errorf("stats = %+v", s)
	}
}

func TestMaxWaitAdmitsWhenSlotFrees(t *testing.T) {
	m := New(Options{Workers: 1, QueueSize: 1, MaxWait: 5 * time.Second, Now: fakeClock()})
	defer shutdown(t, m)

	gate := make(chan struct{})
	started := make(chan struct{})
	if _, err := m.Submit("run", 1, func(ctx context.Context, p *Progress) ([]byte, error) {
		close(started)
		<-gate
		return []byte("ok"), nil
	}); err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.Submit("run", 1, func(ctx context.Context, p *Progress) ([]byte, error) {
		return []byte("ok"), nil
	}); err != nil {
		t.Fatal(err)
	}

	// The third submission finds the queue full but a slot frees within
	// MaxWait — the size+max-wait admission shape admits it.
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(gate)
	}()
	snap, err := m.Submit("run", 1, func(ctx context.Context, p *Progress) ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil {
		t.Fatalf("submit within MaxWait = %v", err)
	}
	if _, err := m.Wait(context.Background(), snap.ID); err != nil {
		t.Fatal(err)
	}
}

func TestShutdownParksQueuedAndDrainsRunning(t *testing.T) {
	m := New(Options{Workers: 1, QueueSize: 4, Now: fakeClock()})

	gate := make(chan struct{})
	started := make(chan struct{})
	running, err := m.Submit("run", 1, func(ctx context.Context, p *Progress) ([]byte, error) {
		close(started)
		<-gate
		return []byte("ok"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	var ran atomic.Bool
	queued, err := m.Submit("run", 1, func(ctx context.Context, p *Progress) ([]byte, error) {
		ran.Store(true)
		return []byte("ok"), nil
	})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- m.Shutdown(ctx)
	}()
	// Once the drain is observed, new work is rejected with ErrDraining.
	// Until then a submission may land in the queue (to be parked) or
	// bounce off the bound — both fine; only ErrDraining ends the loop.
	for {
		_, err := m.Submit("run", 1, func(ctx context.Context, p *Progress) ([]byte, error) { return nil, nil })
		if errors.Is(err, ErrDraining) {
			break
		}
		if err != nil && !errors.Is(err, ErrQueueFull) {
			t.Fatalf("submit during drain = %v", err)
		}
		time.Sleep(time.Millisecond)
	}

	close(gate)
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The running job finished; the queued one was parked canceled and
	// never ran.
	if snap, _ := m.Get(running.ID); snap.State != Done {
		t.Errorf("running job ended %s, want done", snap.State)
	}
	snap, _ := m.Get(queued.ID)
	if snap.State != Canceled || ran.Load() {
		t.Errorf("queued job ended %s (ran=%v), want parked canceled", snap.State, ran.Load())
	}
	if err := m.Shutdown(context.Background()); err == nil || !strings.Contains(err.Error(), "already shut down") {
		t.Errorf("second shutdown = %v", err)
	}
}

func TestTTLPrunesFinishedRecords(t *testing.T) {
	// 1ms-per-reading clock and a 10ms TTL: after ~10 readings the first
	// job's record is expired and the next Submit prunes it.
	m := New(Options{Workers: 1, TTL: 10 * time.Millisecond, Now: fakeClock()})
	defer shutdown(t, m)

	first, err := m.Submit("run", 1, func(ctx context.Context, p *Progress) ([]byte, error) {
		return []byte("ok"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(context.Background(), first.ID); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < 12; i++ {
		snap, err := m.Submit("run", 1, func(ctx context.Context, p *Progress) ([]byte, error) {
			return []byte("ok"), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := m.Wait(context.Background(), snap.ID); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.Get(first.ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("expired record lookup = %v, want ErrNotFound", err)
	}
	if _, err := m.Get("j999999"); !errors.Is(err, ErrNotFound) {
		t.Errorf("unknown id lookup = %v, want ErrNotFound", err)
	}
}

// TestFinishedRecordsBounded: past maxFinished finished records, a
// submission prunes the records that finished first — they answer
// ErrNotFound, as expired ones do — while queued and running jobs stay,
// however early they were submitted. The injected clock keeps every
// record far inside its TTL, so only the bound prunes.
func TestFinishedRecordsBounded(t *testing.T) {
	m := New(Options{Workers: 2, QueueSize: 4, Now: fakeClock()})
	defer shutdown(t, m)
	quick := func(ctx context.Context, p *Progress) ([]byte, error) { return []byte("ok"), nil }
	gateA, gateB := make(chan struct{}), make(chan struct{})
	defer close(gateB)
	blocked := func(gate chan struct{}) Task {
		return func(ctx context.Context, p *Progress) ([]byte, error) {
			<-gate
			return []byte("ok"), nil
		}
	}
	submit := func(task Task) string {
		t.Helper()
		snap, err := m.Submit("run", 1, task)
		if err != nil {
			t.Fatal(err)
		}
		return snap.ID
	}
	waitState := func(id string, want State) {
		t.Helper()
		for {
			snap, changed, err := m.Watch(id)
			if err != nil {
				t.Fatal(err)
			}
			if snap.State == want {
				return
			}
			if snap.State.Terminal() {
				t.Fatalf("%s: state %s, want %s", id, snap.State, want)
			}
			<-changed
		}
	}

	// a runs on one worker until released; the other worker finishes
	// maxFinished+5 quick jobs.
	a := submit(blocked(gateA))
	waitState(a, Running)
	var quickIDs []string
	for i := 0; i < maxFinished+5; i++ {
		id := submit(quick)
		waitState(id, Done)
		quickIDs = append(quickIDs, id)
	}
	// b takes the second worker, so c stays queued; b's submission finds
	// maxFinished+1 finished records and prunes down to the bound.
	b := submit(blocked(gateB))
	waitState(b, Running)
	c := submit(quick)
	if snap, err := m.Get(c); err != nil || snap.State != Queued {
		t.Fatalf("c = %+v, %v; want queued", snap, err)
	}
	for i, id := range quickIDs {
		_, err := m.Get(id)
		if pruned := errors.Is(err, ErrNotFound); pruned != (i < 5) {
			t.Fatalf("quick job %d (%s): lookup error %v; want pruned %v", i, id, err, i < 5)
		}
	}
	if got := m.Stats().Stored; got != maxFinished+3 {
		t.Fatalf("stored %d records, want %d finished plus running a, b and queued c", got, maxFinished)
	}

	// a, submitted first, finishes after every quick job, and c after it
	// on a's worker: the next submission finds two records over the bound
	// and prunes the two that finished first, not a.
	close(gateA)
	waitState(a, Done)
	waitState(c, Done)
	submit(quick)
	for _, id := range []string{a, c} {
		if _, err := m.Get(id); err != nil {
			t.Fatalf("%s, among the most recently finished records, was pruned: %v", id, err)
		}
	}
	for _, id := range quickIDs[5:7] {
		if _, err := m.Get(id); !errors.Is(err, ErrNotFound) {
			t.Fatalf("earliest finished record %s: lookup error %v, want ErrNotFound", id, err)
		}
	}
	if _, body, err := m.Result(quickIDs[7]); err != nil || string(body) != "ok" {
		t.Fatalf("retained record %s: body %q, err %v", quickIDs[7], body, err)
	}
}

func TestWatchSignalsProgress(t *testing.T) {
	m := New(Options{Workers: 1, Now: fakeClock()})
	defer shutdown(t, m)

	step := make(chan struct{})
	snap, err := m.Submit("run", 2, func(ctx context.Context, p *Progress) ([]byte, error) {
		<-step
		p.Step(false, false)
		<-step
		p.Step(false, true)
		return []byte("ok"), nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Follow the job through Watch until terminal; every change closes
	// the previous channel.
	var last Snapshot
	for {
		cur, changed, err := m.Watch(snap.ID)
		if err != nil {
			t.Fatal(err)
		}
		last = cur
		if cur.State.Terminal() {
			break
		}
		select {
		case step <- struct{}{}:
		default:
		}
		select {
		case <-changed:
		case <-time.After(10 * time.Second):
			t.Fatalf("no change signal; stuck at %+v", cur)
		}
	}
	if last.State != Done || last.Progress.Completed != 2 || last.Progress.Failed != 1 {
		t.Errorf("final watch snapshot = %+v", last)
	}
}

func TestMetricsWriter(t *testing.T) {
	m := New(Options{Workers: 1, Now: fakeClock()})
	defer shutdown(t, m)

	snap, err := m.Submit("run", 1, func(ctx context.Context, p *Progress) ([]byte, error) {
		p.Step(false, false)
		return []byte("ok"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Wait(context.Background(), snap.ID); err != nil {
		t.Fatal(err)
	}

	var w MetricsWriter
	m.WriteMetrics(&w)
	var sb strings.Builder
	if _, err := w.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"nanobenchd_jobs_submitted_total 1",
		`nanobenchd_jobs_finished_total{state="done"} 1`,
		"nanobenchd_job_queue_seconds_bucket",
		"nanobenchd_job_run_seconds_sum",
		"nanobenchd_jobs_queue_depth 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
}
