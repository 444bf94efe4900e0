package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"gpushare/internal/profile"
	"gpushare/internal/workflow"
)

// fleetScheduler builds a scheduler over a generated fleet's store.
func fleetScheduler(t *testing.T, store *profile.Store, gpus int) *Scheduler {
	t.Helper()
	s, err := NewScheduler(a100x(), gpus, store, EnergyPolicy())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFleetSourceMatchesGenerateFleet pins the lazy source to the
// materializing generator draw for draw: same spec, same arrivals, same
// store profiles.
func TestFleetSourceMatchesGenerateFleet(t *testing.T) {
	spec := FleetSpec{Workflows: 500, TargetGPUs: 8, Seed: 42}
	want, wantStore, err := GenerateFleet(a100x(), spec)
	if err != nil {
		t.Fatal(err)
	}
	src, store, err := NewFleetSource(a100x(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if src.Remaining() != len(want) {
		t.Fatalf("Remaining = %d, want %d", src.Remaining(), len(want))
	}
	var got []Arrival
	for {
		a, ok := src.Next()
		if !ok {
			break
		}
		got = append(got, a)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("lazy source diverged from GenerateFleet")
	}
	if src.Remaining() != 0 {
		t.Fatalf("Remaining after drain = %d", src.Remaining())
	}
	// Same archetype fabrication: an arbitrary archetype profile must
	// match bit for bit.
	p1, err1 := store.Lookup("fleet-a003", "1x")
	p2, err2 := wantStore.Lookup("fleet-a003", "1x")
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("archetype profiles diverged")
	}
}

// TestStreamDigestMatchesPlan pins the streaming frame format: digest
// over '[' e1 ',' ... ']' streamed one event at a time equals
// sha256(json.Marshal(dispatches)) of the materialized plan, and the
// JSONL spill holds exactly the plan's events in order.
func TestStreamDigestMatchesPlan(t *testing.T) {
	arrivals, store, err := GenerateFleet(a100x(), FleetSpec{Workflows: 1200, TargetGPUs: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	s := fleetScheduler(t, store, 8)
	plan, err := s.PlanOnline(arrivals)
	if err != nil {
		t.Fatal(err)
	}
	_, wantDigest := digestDispatches(t, plan.Dispatches)

	var spill bytes.Buffer
	st, err := s.NewStreamer(StreamConfig{RingCapacity: 64, Spill: &spill})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arrivals {
		if _, err := st.Ingest(a); err != nil {
			t.Fatal(err)
		}
	}
	if st.Events() != int64(len(arrivals)) {
		t.Fatalf("events = %d, want %d", st.Events(), len(arrivals))
	}
	digest, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if digest != wantDigest {
		t.Fatalf("stream digest %s, want plan digest %s", digest, wantDigest)
	}

	lines := strings.Split(strings.TrimSuffix(spill.String(), "\n"), "\n")
	if len(lines) != len(plan.Dispatches) {
		t.Fatalf("spill holds %d lines, want %d", len(lines), len(plan.Dispatches))
	}
	for i, line := range lines {
		var ev DispatchEvent
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("spill line %d: %v", i, err)
		}
		if !reflect.DeepEqual(ev, plan.Dispatches[i]) {
			t.Fatalf("spill line %d = %+v, want %+v", i, ev, plan.Dispatches[i])
		}
	}
}

// TestStreamSnapshotResume pins deterministic resume: snapshot
// mid-stream, serialize the state through JSON (as a checkpoint file
// would), restore on a fresh scheduler, finish the stream — and land on
// the uninterrupted run's digest and spill, byte for byte.
func TestStreamSnapshotResume(t *testing.T) {
	arrivals, store, err := GenerateFleet(a100x(), FleetSpec{Workflows: 1500, TargetGPUs: 12, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := fleetScheduler(t, store, 12)

	// Uninterrupted reference run.
	var refSpill bytes.Buffer
	ref, err := s.NewStreamer(StreamConfig{RingCapacity: 32, Spill: &refSpill})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arrivals {
		if _, err := ref.Ingest(a); err != nil {
			t.Fatal(err)
		}
	}
	refDigest, err := ref.Finish()
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: snapshot at an uneven split.
	cut := len(arrivals)*2/3 + 1
	var spillA bytes.Buffer
	first, err := s.NewStreamer(StreamConfig{RingCapacity: 32, Spill: &spillA})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arrivals[:cut] {
		if _, err := first.Ingest(a); err != nil {
			t.Fatal(err)
		}
	}
	state, err := first.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(state)
	if err != nil {
		t.Fatal(err)
	}
	var restored StreamState
	if err := json.Unmarshal(blob, &restored); err != nil {
		t.Fatal(err)
	}

	s2 := fleetScheduler(t, store, 12)
	var spillB bytes.Buffer
	second, err := s2.RestoreStreamer(StreamConfig{RingCapacity: 32, Spill: &spillB}, &restored)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arrivals[cut:] {
		if _, err := second.Ingest(a); err != nil {
			t.Fatal(err)
		}
	}
	digest, err := second.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if digest != refDigest {
		t.Fatalf("resumed digest %s, want uninterrupted %s", digest, refDigest)
	}
	// The interrupted run's spill halves concatenate to the reference
	// spill: pre-snapshot evictions land in the first sink, everything
	// else (including the ring retained across the snapshot) in the
	// second.
	if got := spillA.String() + spillB.String(); got != refSpill.String() {
		t.Fatal("concatenated interrupted spill diverged from uninterrupted spill")
	}
	// The snapshot is a copy, not a handoff: the first streamer still
	// finishes on the reference digest.
	for _, a := range arrivals[cut:] {
		if _, err := first.Ingest(a); err != nil {
			t.Fatal(err)
		}
	}
	if d, err := first.Finish(); err != nil || d != refDigest {
		t.Fatalf("original streamer after snapshot: digest %s err %v, want %s", d, err, refDigest)
	}
}

// TestStreamRestoreValidation exercises the snapshot compatibility
// checks: fleet shape, snapshot format, ring capacity, and serial order
// all gate a restore.
func TestStreamRestoreValidation(t *testing.T) {
	arrivals, store, err := GenerateFleet(a100x(), FleetSpec{Workflows: 200, TargetGPUs: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	s := fleetScheduler(t, store, 4)
	st, err := s.NewStreamer(StreamConfig{RingCapacity: 16})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arrivals {
		if _, err := st.Ingest(a); err != nil {
			t.Fatal(err)
		}
	}
	state, err := st.SaveState()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		sched  *Scheduler
		cfg    StreamConfig
		mutate func(*StreamState)
		want   string
	}{
		{"gpu mismatch", fleetScheduler(t, store, 8), StreamConfig{RingCapacity: 16}, nil, "saved for 4 GPUs"},
		{"pre-change snapshot", fleetScheduler(t, store, 4), StreamConfig{RingCapacity: 16}, func(ss *StreamState) {
			// Re-encode in the older format: a "shards" count and per-shard
			// "shard_hists" list in place of the single "hists" section.
			blob, err := json.Marshal(ss)
			if err != nil {
				t.Fatal(err)
			}
			var doc map[string]json.RawMessage
			if err := json.Unmarshal(blob, &doc); err != nil {
				t.Fatal(err)
			}
			doc["shards"] = json.RawMessage("1")
			doc["shard_hists"] = json.RawMessage("[" + string(doc["hists"]) + "]")
			delete(doc, "hists")
			if blob, err = json.Marshal(doc); err != nil {
				t.Fatal(err)
			}
			*ss = StreamState{}
			if err := json.Unmarshal(blob, ss); err != nil {
				t.Fatal(err)
			}
		}, "histograms missing"},
		{"ring too small", fleetScheduler(t, store, 4), StreamConfig{RingCapacity: 2}, nil, "ring capacity"},
		{"resident gpu out of range", fleetScheduler(t, store, 4), StreamConfig{RingCapacity: 16}, func(ss *StreamState) {
			if len(ss.Resident) > 0 {
				ss.Resident[0].GPU = 99
			}
		}, "on GPU 99"},
		{"serials not increasing", fleetScheduler(t, store, 4), StreamConfig{RingCapacity: 16}, func(ss *StreamState) {
			if len(ss.Resident) > 1 {
				ss.Resident[1].Seq = ss.Resident[0].Seq
			}
		}, "strictly increasing"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			clone := *state
			clone.Resident = append([]residentSave(nil), state.Resident...)
			if c.mutate != nil {
				c.mutate(&clone)
			}
			_, err := c.sched.RestoreStreamer(c.cfg, &clone)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want containing %q", err, c.want)
			}
		})
	}
	if _, err := s.RestoreStreamer(StreamConfig{}, nil); err == nil {
		t.Fatal("nil state accepted")
	}
}

// TestStreamMisuse pins the ordering and lifecycle errors.
func TestStreamMisuse(t *testing.T) {
	store := suiteStore(t)
	s := fleetScheduler(t, store, 2)
	st, err := s.NewStreamer(StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Ingest(Arrival{At: at(10), Workflow: wfOne("a", "AthenaPK", "1x", 1)}); err != nil {
		t.Fatal(err)
	}
	// Equal timestamps are legal (tie-break is ingest order)...
	if _, err := st.Ingest(Arrival{At: at(10), Workflow: wfOne("b", "AthenaPK", "1x", 1)}); err != nil {
		t.Fatal(err)
	}
	// ...but going backwards is not.
	if _, err := st.Ingest(Arrival{At: at(9), Workflow: wfOne("c", "AthenaPK", "1x", 1)}); err == nil ||
		!strings.Contains(err.Error(), "out-of-order") {
		t.Fatalf("out-of-order ingest: err = %v", err)
	}
	if _, err := st.Finish(); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Ingest(Arrival{At: at(20), Workflow: wfOne("d", "AthenaPK", "1x", 1)}); err == nil {
		t.Fatal("ingest after Finish accepted")
	}
	if _, err := st.Finish(); err == nil {
		t.Fatal("double Finish accepted")
	}
	if _, err := st.SaveState(); err == nil {
		t.Fatal("SaveState after Finish accepted")
	}
	if _, err := s.NewStreamer(StreamConfig{RingCapacity: -1}); err == nil {
		t.Fatal("negative ring capacity accepted")
	}
}

// TestRefusedArrivalLeavesFleet is the regression test for a refusal
// draining the fleet: a load no GPU can ever take (1 TiB) used to wait
// through every predicted completion, retiring all residents, before
// admit reported it. It must now be refused with the four residents in
// place and no wait or retirement counted, and the next admittable
// arrival must dispatch exactly as in a replay that never saw the
// refused one.
func TestRefusedArrivalLeavesFleet(t *testing.T) {
	store := profile.NewStore()
	for _, p := range []*profile.TaskProfile{
		{Workload: "half", MaxMemMiB: 1024, AvgSMUtilPct: 40, AvgBWUtilPct: 10},
		{Workload: "huge", MaxMemMiB: 1 << 20, AvgSMUtilPct: 10, AvgBWUtilPct: 10},
	} {
		p.Size, p.Device, p.DurationS, p.SizeFactor = "1x", a100x().Name, 100, 1
		if err := store.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	s := fleetScheduler(t, store, 2)
	var fill []Arrival
	for i := 0; i < 4; i++ { // two per GPU: a third would push SM past 100%
		fill = append(fill, Arrival{At: at(0), Workflow: wfOne(fmt.Sprintf("fill-%d", i), "half", "1x", 1)})
	}
	next := Arrival{At: at(2), Workflow: wfOne("next", "half", "1x", 1)}

	run := func(refuse bool) (DispatchEvent, string) {
		st, err := s.NewStreamer(StreamConfig{})
		if err != nil {
			t.Fatal(err)
		}
		for _, a := range fill {
			if _, err := st.Ingest(a); err != nil {
				t.Fatal(err)
			}
		}
		if refuse {
			before := st.Stats()
			_, err := st.Ingest(Arrival{At: at(1), Workflow: wfOne("huge", "huge", "1x", 1)})
			if err == nil || !strings.Contains(err.Error(), "cannot be admitted") {
				t.Fatalf("1 TiB arrival: err = %v", err)
			}
			if n := st.d.pool.Total(); n != 4 {
				t.Fatalf("refusal left %d residents, want 4", n)
			}
			if got := st.Stats(); got.Waits != 0 || got != before {
				t.Fatalf("refusal changed the stats %+v -> %+v, want no waits or retirements", before, got)
			}
		}
		ev, err := st.Ingest(next)
		if err != nil {
			t.Fatal(err)
		}
		ev.RunningAlongside = append([]string(nil), ev.RunningAlongside...)
		digest, err := st.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return ev, digest
	}
	got, gotDigest := run(true)
	want, wantDigest := run(false)
	if !reflect.DeepEqual(got, want) || gotDigest != wantDigest {
		t.Fatalf("after a refusal: %+v digest %s, fresh replay %+v digest %s", got, gotDigest, want, wantDigest)
	}
	if want.WaitedS == 0 {
		t.Fatal("scenario too loose: the next arrival should wait for a completion")
	}
}

// TestStreamEmptyDigest pins the zero-event digest to the marshaled
// empty slice, matching a plan with no dispatches.
func TestStreamEmptyDigest(t *testing.T) {
	store := suiteStore(t)
	s := fleetScheduler(t, store, 1)
	st, err := s.NewStreamer(StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	digest, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	_, want := digestDispatches(t, []DispatchEvent{})
	if digest != want {
		t.Fatalf("empty digest %s, want %s", digest, want)
	}
}

// TestPlanOnlineZeroGPUs pins the degenerate fleet: NewScheduler
// rejects it, and a hand-built zero-GPU scheduler reports the first
// arrival unadmittable instead of panicking.
func TestPlanOnlineZeroGPUs(t *testing.T) {
	store := suiteStore(t)
	if _, err := NewScheduler(a100x(), 0, store, EnergyPolicy()); err == nil {
		t.Fatal("NewScheduler accepted zero GPUs")
	}
	s := &Scheduler{Device: a100x(), GPUs: 0, Profiles: store, Policy: EnergyPolicy()}
	_, err := s.PlanOnline([]Arrival{{At: at(0), Workflow: wfOne("w", "AthenaPK", "1x", 1)}})
	if err == nil || !strings.Contains(err.Error(), "cannot be admitted") {
		t.Fatalf("zero-GPU plan: err = %v", err)
	}
}

// TestPlanOnlineDuplicateArrivalTimes pins the tie-break for arrivals
// sharing a submission instant: submission order (the sort is stable,
// the dispatcher processes in order), so the dispatch log lists them in
// input order.
func TestPlanOnlineDuplicateArrivalTimes(t *testing.T) {
	store := suiteStore(t)
	var arrivals []Arrival
	for i := 0; i < 8; i++ {
		arrivals = append(arrivals, Arrival{
			At:       at(float64(i/4) * 100), // two quads share an instant
			Workflow: wfOne(fmt.Sprintf("dup-%d", i), "AthenaPK", "4x", 1),
		})
	}
	plan, err := fleetScheduler(t, store, 4).PlanOnline(arrivals)
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range plan.Dispatches {
		if want := fmt.Sprintf("dup-%d", i); d.Workflow != want {
			t.Fatalf("dispatch %d is %s, want %s (tie-break must be submission order)", i, d.Workflow, want)
		}
	}
}

// TestStreamProfileRecycling pins the bounded-slab property: a stream
// drawing from a fixed archetype set keeps the profile slab's live set
// at the cache size, not the arrival count, and multi-task (uncached)
// profiles recycle through Put.
func TestStreamProfileRecycling(t *testing.T) {
	store := suiteStore(t)
	s := fleetScheduler(t, store, 2)
	st, err := s.NewStreamer(StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	multi := workflow.Workflow{Name: "multi", Tasks: []workflow.Task{
		{Benchmark: "AthenaPK", Size: "1x", Iterations: 1},
		{Benchmark: "Kripke", Size: "1x", Iterations: 1},
	}}
	for i := 0; i < 200; i++ {
		a := Arrival{At: at(float64(i) * 50), Workflow: wfOne(fmt.Sprintf("s-%d", i), "AthenaPK", "1x", 1)}
		if i%3 == 0 {
			m := multi
			m.Name = fmt.Sprintf("multi-%d", i)
			a.Workflow = m
		}
		if _, err := st.Ingest(a); err != nil {
			t.Fatal(err)
		}
	}
	// Live profiles: the one cached single-task profile; every multi-task
	// profile went back through Put.
	if live := st.mem.profiles.Len(); live != 1 {
		t.Fatalf("profile slab live set = %d, want 1", live)
	}
}

// TestStreamBoundedMemory is the million-arrival soak: 1M arrivals over
// 1024 GPUs streamed with a spill sink, asserting the heap stays bounded
// (a materializing plan at this scale retains hundreds of MiB). Skipped
// under -short and under the race detector.
func TestStreamBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("million-arrival soak skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("race instrumentation invalidates the heap ceiling")
	}
	const (
		workflows = 1_000_000
		gpus      = 1024
		// heapCeiling is far above the streamer's true live set (a few
		// MiB) but far below what retaining 1M events would cost, so the
		// assertion catches any O(arrivals) retention without flaking on
		// GC timing.
		heapCeiling = 256 << 20
	)
	src, store, err := NewFleetSource(a100x(), FleetSpec{Workflows: workflows, TargetGPUs: gpus, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := fleetScheduler(t, store, gpus)
	var spilled countingWriter
	st, err := s.NewStreamer(StreamConfig{RingCapacity: 4096, Spill: &spilled})
	if err != nil {
		t.Fatal(err)
	}
	var ms runtime.MemStats
	var maxHeap uint64
	for n := 0; ; n++ {
		a, ok := src.Next()
		if !ok {
			break
		}
		if _, err := st.Ingest(a); err != nil {
			t.Fatal(err)
		}
		if n%100_000 == 0 {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > maxHeap {
				maxHeap = ms.HeapAlloc
			}
		}
	}
	digest, err := st.Finish()
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > maxHeap {
		maxHeap = ms.HeapAlloc
	}
	if st.Events() != workflows {
		t.Fatalf("dispatched %d of %d", st.Events(), workflows)
	}
	if digest == "" {
		t.Fatal("empty digest")
	}
	if spilled.lines != workflows {
		t.Fatalf("spilled %d lines, want %d", spilled.lines, workflows)
	}
	if maxHeap > heapCeiling {
		t.Fatalf("heap peaked at %d MiB, ceiling %d MiB: streaming retained per-arrival state",
			maxHeap>>20, heapCeiling>>20)
	}
	t.Logf("1M arrivals over %d GPUs: peak heap %d MiB, digest %s", gpus, maxHeap>>20, digest)
}

// countingWriter counts newline-terminated records without retaining
// them.
type countingWriter struct{ lines int64 }

func (w *countingWriter) Write(p []byte) (int, error) {
	for _, b := range p {
		if b == '\n' {
			w.lines++
		}
	}
	return len(p), nil
}

// TestPlanOnlineSteadyAllocs pins the full planning path's allocation
// budget per arrival: profile cache plus arena-backed outputs hold the
// whole decision-and-record pipeline to a small constant, two orders of
// magnitude under the pre-arena dispatcher (see BENCH_dispatcher.json).
func TestPlanOnlineSteadyAllocs(t *testing.T) {
	arrivals, store, err := GenerateFleet(a100x(), FleetSpec{Workflows: 4000, TargetGPUs: 16, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	s := fleetScheduler(t, store, 16)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := s.planOnline(arrivals); err != nil {
			t.Fatal(err)
		}
	})
	perArrival := allocs / float64(len(arrivals))
	// The remaining per-arrival cost is the sorted copy plus amortized
	// arena chunk refills — well under one heap object per arrival.
	if perArrival > 0.5 {
		t.Fatalf("planOnline allocates %.2f objects per arrival, want <= 0.5", perArrival)
	}
}
