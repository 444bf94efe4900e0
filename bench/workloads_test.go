package main

import (
	"encoding/json"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"gpushare/internal/core"
)

// tinySizes runs every workload in well under a second.
var tinySizes = sizes{
	setupReps:   5,
	serveStarts: 2,

	streamGPUs: 16,
	streamWarm: 500,
	streamPass: 500,

	clusterNodes:       3,
	clusterGPUsPerNode: 2,
	clusterWorkflows:   300,
	clusterWarm:        100,

	serveGPUs:      16,
	serveBatch:     8,
	serveWarmReqs:  10,
	serveCapBlocks: 2,
	serveCapReqs:   10,
	serveRates:     []rate{{2000, 0.5}, {4000, 0.5}},
	serveWindow:    500,

	admitReps: 10,
}

func TestDigestFramingMatchesStreamer(t *testing.T) {
	arrivals, err := fleetArrivals(2000, 16, 7)
	if err != nil {
		t.Fatal(err)
	}
	store, err := catalogue(16)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.NewScheduler(device, 16, store, core.EnergyPolicy())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sched.PlanOnline(arrivals)
	if err != nil {
		t.Fatal(err)
	}
	planDigest, err := digestJSON(plan.Dispatches)
	if err != nil {
		t.Fatal(err)
	}
	st, err := sched.NewStreamer(core.StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arrivals {
		if _, err := st.Ingest(a); err != nil {
			t.Fatal(err)
		}
	}
	streamDigest, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if planDigest != streamDigest {
		t.Fatalf("digestJSON over PlanOnline's log %s, streamer %s", planDigest, streamDigest)
	}
}

// TestServedCheckMatchesReplay feeds servedCheck responses built from an
// in-process streamer two ways: with each event's co-resident list copied
// as the streamer framed it, and encoded after the whole batch as /ingest
// does, when the streamer has reused the lists' storage. The decisions
// must match the replay both ways; only the second shows mismatched
// co-resident lists.
func TestServedCheckMatchesReplay(t *testing.T) {
	const total, batch = 2000, 8
	want, err := replayServe(tinySizes, total, 7)
	if err != nil {
		t.Fatal(err)
	}
	for _, afterBatch := range []bool{false, true} {
		arrivals, err := newServedArrivals(total, tinySizes.serveGPUs, 7)
		if err != nil {
			t.Fatal(err)
		}
		sched, err := serveScheduler(tinySizes)
		if err != nil {
			t.Fatal(err)
		}
		st, err := sched.NewStreamer(core.StreamConfig{})
		if err != nil {
			t.Fatal(err)
		}
		check := &servedCheck{want: want, dec: newDecisionHasher()}
		for r := 0; r < total/batch; r++ {
			var evs []core.DispatchEvent
			for i := 0; i < batch; i++ {
				_, a := arrivals.next()
				ev, err := st.Ingest(a)
				if err != nil {
					t.Fatal(err)
				}
				if !afterBatch {
					ev.RunningAlongside = slices.Clone(ev.RunningAlongside)
				}
				evs = append(evs, ev)
			}
			body, err := json.Marshal(evs)
			if err != nil {
				t.Fatal(err)
			}
			check.keep(append(body, '\n'))
		}
		if err := check.drain(); err != nil {
			t.Fatal(err)
		}
		if check.events != total || check.dec.sum() != want.decisions {
			t.Errorf("after batch %v: %d events, decisions %s; want %d, %s",
				afterBatch, check.events, check.dec.sum(), total, want.decisions)
		}
		if afterBatch != (check.mismatched > 0) {
			t.Errorf("after batch %v: %d co-resident lists differ from the replay's", afterBatch, check.mismatched)
		}
	}
}

// runTiny runs one workload at tinySizes and checks what every run must
// deliver: a correct result carrying every metric the mode reports, with
// the end-to-end ones never zero.
func runTiny(t *testing.T, name string, traced bool, gpusched string) {
	t.Helper()
	for _, w := range workloads {
		if w.name != name {
			continue
		}
		rc := &runCtx{seed: 7, seconds: 200 * time.Millisecond, traced: traced, sizes: tinySizes, gpusched: gpusched, out: io.Discard}
		specs := endToEnd
		if traced {
			rc.tracer = newTracer(name, 1<<12)
			specs = perLayer
		}
		res, err := w.run(rc)
		if err != nil {
			t.Fatalf("%s (traced %v): %v", name, traced, err)
		}
		l, err := finalLine(res, specs)
		if err != nil {
			t.Fatalf("%s (traced %v): %v", name, traced, err)
		}
		if !l.Correct {
			t.Fatalf("%s (traced %v): incorrect run: %d of %d failed, %v", name, traced, l.Failed, l.Attempted, res.problems)
		}
		if !traced {
			for _, s := range specs {
				if l.Metrics[s.name].Value <= 0 {
					t.Errorf("%s: %s = %g, want > 0", name, s.name, l.Metrics[s.name].Value)
				}
			}
			return
		}
		path := filepath.Join(t.TempDir(), "trace.json")
		if err := rc.tracer.writeChrome(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var events []map[string]any
		if err := json.Unmarshal(data, &events); err != nil || len(events) == 0 {
			t.Fatalf("%s: trace is not a Chrome trace-event array (%d events): %v", name, len(events), err)
		}
		if len(rc.tracer.selfTimes()) == 0 {
			t.Errorf("%s: no span self times", name)
		}
		return
	}
	t.Fatalf("no workload %q", name)
}

func TestSmokeInProcess(t *testing.T) {
	for _, name := range []string{"stream-energy", "stream-throughput", "cluster-mixed"} {
		for _, traced := range []bool{false, true} {
			runTiny(t, name, traced, "")
		}
	}
}

func TestSmokeServeHTTP(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts gpusched")
	}
	bin := filepath.Join(t.TempDir(), "gpusched")
	if out, err := exec.Command("go", "build", "-o", bin, "gpushare/cmd/gpusched").CombinedOutput(); err != nil {
		t.Fatalf("build gpusched: %v\n%s", err, out)
	}
	for _, traced := range []bool{false, true} {
		runTiny(t, "serve-http", traced, bin)
	}
}
