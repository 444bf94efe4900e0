package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"sort"
	"testing"
	"time"
)

func TestHistQuantilesWithinOnePercentOfSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := new(hist)
	var ref []float64
	for i := 0; i < 200_000; i++ {
		// Log-uniform over 1ns..10s, the range latencies span here.
		v := time.Duration(math.Exp(rng.Float64() * math.Log(1e10)))
		h.record(v)
		ref = append(ref, float64(v))
	}
	sort.Float64s(ref)
	for _, p := range []float64{0.001, 0.5, 0.9, 0.99, 0.999, 0.9999, 1} {
		want := ref[int(math.Ceil(p*float64(len(ref))))-1]
		got := h.quantile(p)
		if math.Abs(got-want) > 0.01*want+0.5 {
			t.Errorf("p%g: %g, sorted reference %g", p*100, got, want)
		}
	}
	if h.n != uint64(len(ref)) {
		t.Errorf("count %d, want %d", h.n, len(ref))
	}
}

func TestHistSmallValuesAreExact(t *testing.T) {
	h := new(hist)
	for v := 0; v < subCount; v++ {
		h.record(time.Duration(v))
	}
	if got := h.quantile(0.5); got != float64(subCount/2-1) {
		t.Errorf("median of 0..%d = %g", subCount-1, got)
	}
	if got := h.quantile(1); got != subCount-1 {
		t.Errorf("max = %g", got)
	}
}

func TestBucketRangesTile(t *testing.T) {
	prevHi := uint64(0)
	for i := 1; i < nBuckets; i++ {
		lo, hi := bucketRange(i)
		if lo != prevHi+1 {
			t.Fatalf("bucket %d starts at %d, previous ended at %d", i, lo, prevHi)
		}
		if bucketOf(lo) != i || bucketOf(hi) != i {
			t.Fatalf("bucket %d = [%d, %d] maps back to %d and %d", i, lo, hi, bucketOf(lo), bucketOf(hi))
		}
		if lo >= subCount && float64(hi-lo+1) > float64(lo)/subCount {
			t.Fatalf("bucket %d [%d, %d] is wider than 1/%d of its bound", i, lo, hi, subCount)
		}
		prevHi = hi
		if hi == math.MaxUint64 {
			break
		}
	}
	if prevHi != math.MaxUint64 {
		t.Fatalf("buckets end at %d, not at the largest uint64", prevHi)
	}
}

func TestTailLevelKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     uint64
		p     float64
		label string
		ok    bool
	}{
		{19, 0, "", false},
		{20, 0.5, "p50", true},
		{100, 0.9, "p90", true},
		{999, 0.9, "p90", true},
		{1000, 0.99, "p99", true},
		{10_000, 0.999, "p99.9", true},
		{3_600_000, 0.99999, "p99.999", true},
	}
	for _, c := range cases {
		p, ok := tailLevel(c.n)
		if ok != c.ok || p != c.p {
			t.Errorf("tailLevel(%d) = %g, %v; want %g, %v", c.n, p, ok, c.p, c.ok)
			continue
		}
		if ok && percentileLabel(p) != c.label {
			t.Errorf("label %q, want %q", percentileLabel(p), c.label)
		}
	}
}

// near reports whether a histogram reading is within its 1% error of d.
func near(got float64, d time.Duration) bool {
	return math.Abs(got-float64(d)) <= 0.01*float64(d)
}

// fakeClock advances only when the generator sleeps or a request is
// served.
type fakeClock struct {
	t         time.Duration
	overshoot time.Duration // added to every sleep, like time.Sleep's
}

func (c *fakeClock) now() time.Duration { return c.t }

func (c *fakeClock) sleepUntil(t time.Duration) {
	if t > c.t {
		c.t = t + c.overshoot
	}
}

func TestOpenLoopOnSchedule(t *testing.T) {
	clk := &fakeClock{}
	r, err := openLoop(clk, 2*time.Millisecond, 10, func(int) error {
		clk.t += time.Millisecond
		return nil
	})
	if err != nil || r.aborted || r.sent != 10 {
		t.Fatalf("err %v aborted %v sent %d", err, r.aborted, r.sent)
	}
	if got := r.latency.quantile(1); !near(got, time.Millisecond) {
		t.Errorf("max latency %gns, want the 1ms service time", got)
	}
	if r.endLag != 0 || r.genLate.quantile(1) != 0 {
		t.Errorf("end lag %v, generator late %gns; want 0", r.endLag, r.genLate.quantile(1))
	}
}

func TestOpenLoopChargesBacklogFromDueTime(t *testing.T) {
	// A 3ms service time on a 2ms schedule: request i is sent at 3i ms,
	// i ms late, and completes at 3(i+1) ms, i+3 ms after it was due.
	clk := &fakeClock{}
	r, err := openLoop(clk, 2*time.Millisecond, 10, func(int) error {
		clk.t += 3 * time.Millisecond
		return nil
	})
	if err != nil || r.sent != 10 {
		t.Fatal(err)
	}
	if got := r.latency.quantile(1); !near(got, 12*time.Millisecond) {
		t.Errorf("max latency %gns, want 12ms", got)
	}
	if got := r.latency.quantile(0.1); !near(got, 3*time.Millisecond) {
		t.Errorf("min latency %gns, want 3ms", got)
	}
	if r.endLag != 9*time.Millisecond {
		t.Errorf("end lag %v, want the last request's 9ms", r.endLag)
	}
	// The lag is the server's backlog, not the generator's: each request
	// went out the moment the connection was free.
	if got := r.genLate.quantile(1); got != 0 {
		t.Errorf("generator late %gns, want 0", got)
	}
}

func TestOpenLoopGeneratorLateness(t *testing.T) {
	clk := &fakeClock{overshoot: 100 * time.Microsecond}
	r, err := openLoop(clk, time.Millisecond, 5, func(int) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if got := r.genLate.quantile(1); !near(got, 100*time.Microsecond) {
		t.Errorf("generator late %gns, want 100us", got)
	}
	if got := r.latency.quantile(0.5); !near(got, 100*time.Microsecond) {
		t.Errorf("latency %gns, want the 100us overshoot", got)
	}
}

func TestOpenLoopAbortsPastMaxLate(t *testing.T) {
	clk := &fakeClock{}
	r, err := openLoop(clk, time.Millisecond, 100, func(int) error {
		clk.t += 2 * maxLate
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.aborted || r.sent != 1 {
		t.Fatalf("aborted %v after %d requests; want an abort after the first", r.aborted, r.sent)
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json %s (%s), benchmark %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
