package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestMain lets the test binary act as the generator child that the
// gen.cpu_share probe starts.
func TestMain(m *testing.M) {
	if spec := os.Getenv(genEnv); spec != "" {
		os.Exit(genMain(spec))
	}
	os.Exit(m.Run())
}

// spec reads the metric names and units BENCHMARK.json promises.
func spec(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &s); err != nil {
		t.Fatal(err)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range s.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range s.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

func tinyOpts(t *testing.T, workload string, trace bool) *opts {
	return &opts{
		workload: workload, seed: 7, seconds: 1, trace: trace,
		workdir: t.TempDir(), repo: "..", clients: nproc(), log: io.Discard,
	}
}

// TestTinyRunsEmitEveryMetric runs each workload at the smallest size,
// untraced and traced, and checks the result names exactly the metrics
// BENCHMARK.json lists, each with its unit and a finite value.
func TestTinyRunsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("boots clusters and runs sweeps")
	}
	e2e, layers := spec(t)
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			want := e2e
			if trace {
				want = layers
			}
			res, err := run(tinyOpts(t, w, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", w, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, trace, name)
				case m.Unit != unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", w, trace, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", w, trace, name, m.Value)
				}
			}
		}
	}
}

// TestTamperedExpectationFails corrupts every expected result; each
// workload must then fail its run rather than report numbers.
func TestTamperedExpectationFails(t *testing.T) {
	if testing.Short() {
		t.Skip("boots clusters and runs sweeps")
	}
	for _, w := range workloadNames {
		o := tinyOpts(t, w, false)
		o.tamper = true
		res, err := run(o)
		if err == nil && res.Correct {
			t.Errorf("%s: tampered run passed its checks", w)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{4, 1, 2}); q1 != 1 || q3 != 4 {
		t.Errorf("quartiles of three = %v, %v; want 1, 4", q1, q3)
	}
	if m := exactMedian([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("exactMedian = %v, want 2.5", m)
	}
}

func TestTailNeedsTenBeyond(t *testing.T) {
	if tailOK(999, 0.99) || !tailOK(1000, 0.99) {
		t.Error("p99 needs at least 1000 samples")
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer()
	ms := time.Millisecond
	tr.spans = []span{
		{Req: 1, ID: 1, Name: "request", Start: 0, End: 10 * ms},
		{Req: 1, ID: 2, Parent: 1, Name: "a", Start: 1 * ms, End: 4 * ms},
		{Req: 1, ID: 3, Parent: 1, Name: "b", Start: 3 * ms, End: 6 * ms}, // overlaps a
	}
	self := map[string]float64{}
	for _, r := range tr.selfTimes() {
		self[r.Name] = r.SelfMs
	}
	if self["request"] != 5 || self["a"] != 3 || self["b"] != 3 {
		t.Errorf("self times = %v; want request 5, a 3, b 3", self)
	}
}
