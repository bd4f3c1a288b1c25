package nano

import (
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"nanobench/internal/perfcfg"
	"nanobench/internal/sim/machine"
)

// goldenResult builds a fixed result covering every metric shape: a fixed
// counter with samples, a core event, and an MSR event.
func goldenResult() *Result {
	r := newResult()
	r.addMetric(Metric{Name: "Core cycles", Fixed: true, Value: 4, Samples: []float64{4, 4.5}})
	r.addMetric(Metric{
		Name:    "MEM_LOAD_RETIRED.L1_HIT",
		Event:   perfcfg.EventSpec{Kind: perfcfg.Core, EvtSel: 0xD1, Umask: 0x01, Name: "MEM_LOAD_RETIRED.L1_HIT"},
		Value:   1,
		Samples: []float64{1, 1},
	})
	r.addMetric(Metric{
		Name:  "APERF",
		Event: perfcfg.EventSpec{Kind: perfcfg.MSR, Addr: 0xE8, Name: "APERF"},
		Value: 0.5,
	})
	return r
}

func TestMarshalJSONGolden(t *testing.T) {
	got, err := json.Marshal(goldenResult())
	if err != nil {
		t.Fatal(err)
	}
	const want = `{"metrics":[` +
		`{"name":"Core cycles","value":4,"samples":[4,4.5]},` +
		`{"name":"MEM_LOAD_RETIRED.L1_HIT","event":"D1.01","value":1,"samples":[1,1]},` +
		`{"name":"APERF","event":"MSR.E8","value":0.5}]}`
	if string(got) != want {
		t.Errorf("MarshalJSON:\n got %s\nwant %s", got, want)
	}
	// Marshalling twice (and marshalling a clone) is byte-stable.
	again, _ := json.Marshal(goldenResult().Clone())
	if string(again) != want {
		t.Errorf("clone marshals differently:\n got %s\nwant %s", again, want)
	}
}

func TestUnmarshalJSONRoundTrip(t *testing.T) {
	data, err := json.Marshal(goldenResult())
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(goldenResult()) {
		t.Errorf("round trip changed the result:\n%v\nvs\n%v", &back, goldenResult())
	}
	m, ok := back.Lookup("MEM_LOAD_RETIRED.L1_HIT")
	if !ok || m.Fixed || m.Event.EvtSel != 0xD1 || m.Event.Umask != 0x01 {
		t.Errorf("round trip lost the event spec: %+v", m)
	}
	if m, _ := back.Lookup("Core cycles"); !m.Fixed {
		t.Error("round trip lost the fixed flag")
	}
}

func TestUnmarshalJSONMalformedEvent(t *testing.T) {
	for _, bad := range []string{
		`{"metrics":[{"name":"x","event":"#","value":1}]}`,   // parses to zero specs
		`{"metrics":[{"name":"x","event":"zzz","value":1}]}`, // parse error
	} {
		var r Result
		if err := json.Unmarshal([]byte(bad), &r); err == nil {
			t.Errorf("unmarshal of %s succeeded, want an error", bad)
		}
	}
}

// TestUnmarshalJSONHostileName: metric names never pass through the
// configuration-line syntax, so comment characters and runs of
// whitespace round-trip unharmed.
func TestUnmarshalJSONHostileName(t *testing.T) {
	r := newResult()
	r.addMetric(Metric{
		Name:  "loads #demand  only",
		Event: perfcfg.EventSpec{Kind: perfcfg.Core, EvtSel: 0xD1, Umask: 0x01, Name: "loads #demand  only"},
		Value: 2,
	})
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back Result
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if !back.Equal(r) {
		t.Errorf("hostile name did not round-trip:\n%v\nvs\n%v", &back, r)
	}
}

func TestAppendCSVGolden(t *testing.T) {
	got := string(goldenResult().AppendCSV(nil))
	const want = "Core cycles,,4,4;4.5\n" +
		"MEM_LOAD_RETIRED.L1_HIT,D1.01,1,1;1\n" +
		"APERF,MSR.E8,0.5,\n"
	if got != want {
		t.Errorf("AppendCSV:\n got %q\nwant %q", got, want)
	}
	// Appending extends the buffer in place.
	withHeader := goldenResult().AppendCSV([]byte(CSVHeader + "\n"))
	if string(withHeader) != CSVHeader+"\n"+want {
		t.Errorf("AppendCSV to non-empty buffer:\n%q", withHeader)
	}
}

func TestAppendCSVQuoting(t *testing.T) {
	r := newResult()
	r.addMetric(Metric{Name: `odd,"name"`, Fixed: true, Value: 1})
	if got := string(r.AppendCSV(nil)); got != "\"odd,\"\"name\"\"\",,1,\n" {
		t.Errorf("quoting: %q", got)
	}
}

// TestAddDuplicateUpdates pins the names-vs-values invariant: a duplicate
// add with a different value updates the existing entry in place — same
// reporting position, no duplicate name, new value.
func TestAddDuplicateUpdates(t *testing.T) {
	r := newResult()
	r.addMetric(Metric{Name: "b", Value: 1})
	r.addMetric(Metric{Name: "a", Value: 2})
	r.addMetric(Metric{Name: "b", Value: 3, Samples: []float64{3}})
	names := r.Names()
	if len(names) != 2 || names[0] != "b" || names[1] != "a" {
		t.Fatalf("Names() = %v, want [b a]", names)
	}
	if v, _ := r.Get("b"); v != 3 {
		t.Errorf("duplicate add did not update: b = %v", v)
	}
	m, _ := r.Lookup("b")
	if len(m.Samples) != 1 || m.Samples[0] != 3 {
		t.Errorf("duplicate add did not replace samples: %v", m.Samples)
	}
	if len(r.metrics) != len(r.index) {
		t.Errorf("invariant broken: %d metrics, %d index entries", len(r.metrics), len(r.index))
	}
}

func TestAddCorruptedIndexPanics(t *testing.T) {
	r := newResult()
	r.addMetric(Metric{Name: "a", Value: 1})
	r.index["a"] = 7 // corrupt by hand
	defer func() {
		if recover() == nil {
			t.Error("expected a panic on a corrupted index")
		}
	}()
	r.addMetric(Metric{Name: "a", Value: 2})
}

func TestCloneAndLookupIndependence(t *testing.T) {
	orig := goldenResult()
	c := orig.Clone()
	if !c.Equal(orig) {
		t.Fatal("clone differs")
	}
	c.metrics[0].Samples[0] = 99
	if orig.metrics[0].Samples[0] == 99 {
		t.Error("clone shares sample storage with the original")
	}
	m, _ := orig.Lookup("Core cycles")
	m.Samples[0] = -1
	if orig.metrics[0].Samples[0] == -1 {
		t.Error("Lookup hands out shared sample storage")
	}
	orig.Metrics()[0].Samples[0] = -2
	if orig.metrics[0].Samples[0] == -2 {
		t.Error("Metrics hands out shared sample storage")
	}
}

func TestEqualComparesSamples(t *testing.T) {
	a, b := goldenResult(), goldenResult()
	if !a.Equal(b) {
		t.Fatal("identical results unequal")
	}
	b.metrics[0].Samples[1] = 5
	if a.Equal(b) {
		t.Error("Equal ignored a sample difference")
	}
	b = goldenResult()
	b.metrics[1].Event.Umask = 0x02
	if a.Equal(b) {
		t.Error("Equal ignored an event-spec difference")
	}
	b = goldenResult()
	b.metrics[1].Fixed = true
	if a.Equal(b) {
		t.Error("Equal ignored a fixed-flag difference")
	}
}

// TestRunResultCarriesSamplesAndSpecs runs a real evaluation and checks
// the typed metric contents: per-run samples sized by NMeasurements
// (deterministic kernel-mode runs make every sample equal the aggregate)
// and the event spec attached to programmable counters.
func TestRunResultCarriesSamplesAndSpecs(t *testing.T) {
	r := skylakeRunner(t, machine.Kernel)
	res, err := r.Run(Config{
		Code:          MustAsm("mov R14, [R14]"),
		CodeInit:      MustAsm("mov [R14], R14"),
		WarmUpCount:   1,
		NMeasurements: 5,
		Events:        perfcfg.MustParse("D1.01 MEM_LOAD_RETIRED.L1_HIT"),
	})
	if err != nil {
		t.Fatal(err)
	}
	cyc, ok := res.Lookup("Core cycles")
	if !ok || !cyc.Fixed {
		t.Fatalf("Core cycles metric missing or not fixed: %+v", cyc)
	}
	if len(cyc.Samples) != 5 {
		t.Fatalf("samples = %v, want 5 per-run values", cyc.Samples)
	}
	for _, s := range cyc.Samples {
		if s != cyc.Value {
			t.Errorf("deterministic kernel run: sample %v != aggregate %v", s, cyc.Value)
		}
	}
	hit, ok := res.Lookup("MEM_LOAD_RETIRED.L1_HIT")
	if !ok || hit.Fixed || hit.Event.EvtSel != 0xD1 || hit.Event.Umask != 0x01 {
		t.Errorf("L1_HIT metric lost its event spec: %+v", hit)
	}
}

func TestRunContextCancelled(t *testing.T) {
	r := skylakeRunner(t, machine.Kernel)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := r.RunContext(ctx, Config{Code: MustAsm("nop")})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunContext on a cancelled context = %v, want context.Canceled", err)
	}
	// The runner still works afterwards.
	if _, err := r.Run(Config{Code: MustAsm("nop")}); err != nil {
		t.Fatal(err)
	}
}

// TestRunContextStopsRunawayRun: a benchmark that never returns — a bare
// `jmp $` — used to run to the machine's 64 Mi-instruction budget (several
// seconds) and report the budget fault, whatever the context said. The run
// itself must watch the context: under a 50 ms deadline it returns the
// deadline error well within 2 s, on every engine tier.
func TestRunContextStopsRunawayRun(t *testing.T) {
	for _, e := range []machine.Engine{machine.EngineTrace, machine.EngineStep} {
		t.Run(e.String(), func(t *testing.T) {
			r := skylakeRunner(t, machine.Kernel)
			r.M.SetEngine(e)
			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			defer cancel()
			start := time.Now()
			_, err := r.RunContext(ctx, Config{
				Code:          []byte{0xE9, 0xFB, 0xFF, 0xFF, 0xFF}, // jmp $ (rel32 −5)
				UnrollCount:   1,
				NMeasurements: 1,
				WarmUpCount:   NoWarmUp,
			})
			elapsed := time.Since(start)
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("runaway run under a 50 ms deadline = %v, want context.DeadlineExceeded", err)
			}
			if elapsed > 2*time.Second {
				t.Fatalf("runaway run returned after %v, want within 2s of a 50 ms deadline", elapsed)
			}
		})
	}
}
