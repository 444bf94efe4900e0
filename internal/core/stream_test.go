package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"slices"
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
// JSONL spill holds exactly the plan's events in order, each one
// written by the Ingest that framed it.
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
	st, err := s.NewStreamer(StreamConfig{Spill: &spill})
	if err != nil {
		t.Fatal(err)
	}
	for k, a := range arrivals {
		if _, err := st.Ingest(a); err != nil {
			t.Fatal(err)
		}
		if n := bytes.Count(spill.Bytes(), []byte{'\n'}); n != k+1 {
			t.Fatalf("after %d Ingests the spill holds %d lines", k+1, n)
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

// TestPlanNameChunks pins the plan's co-resident lists across name
// chunks: with more names than one chunk holds, every event's
// RunningAlongside equals a streamed replay's (cloned per event, since
// the streamer reuses its buffer), and every list is capped at its
// length, so a caller's append cannot overwrite the next event's list.
func TestPlanNameChunks(t *testing.T) {
	arrivals, store, err := GenerateFleet(a100x(), FleetSpec{Workflows: 3000, TargetGPUs: 8, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	s := fleetScheduler(t, store, 8)
	plan, err := s.PlanOnline(arrivals)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, d := range plan.Dispatches {
		if cap(d.RunningAlongside) != len(d.RunningAlongside) {
			t.Fatalf("event %d: RunningAlongside len %d cap %d, want cap == len",
				i, len(d.RunningAlongside), cap(d.RunningAlongside))
		}
		total += len(d.RunningAlongside)
	}
	if total <= nameChunk {
		t.Fatalf("plan holds %d co-resident names, want more than one %d-name chunk", total, nameChunk)
	}

	st, err := s.NewStreamer(StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	replay := make([][]string, len(arrivals))
	for i, a := range arrivals {
		ev, err := st.Ingest(a)
		if err != nil {
			t.Fatal(err)
		}
		replay[i] = slices.Clone(ev.RunningAlongside)
	}
	for i, d := range plan.Dispatches {
		if !slices.Equal(d.RunningAlongside, replay[i]) {
			t.Fatalf("event %d: plan lists %v, stream replay %v", i, d.RunningAlongside, replay[i])
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
	ref, err := s.NewStreamer(StreamConfig{Spill: &refSpill})
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
	first, err := s.NewStreamer(StreamConfig{Spill: &spillA})
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
	second, err := s2.RestoreStreamer(StreamConfig{Spill: &spillB}, &restored)
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
	// spill: events before the snapshot land in the first sink, the rest
	// in the second.
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

// TestStreamStateVisits pins the Visits counter's trip through a stream
// snapshot: it is saved and restored with the other stats, and a
// snapshot from before the counter existed restores it as 0. Visits
// count index nodes, so they exceed the GPUs confirmed with a probe.
func TestStreamStateVisits(t *testing.T) {
	arrivals, store, err := GenerateFleet(a100x(), FleetSpec{Workflows: 200, TargetGPUs: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := NewScheduler(a100x(), 4, store, ThroughputPolicy())
	if err != nil {
		t.Fatal(err)
	}
	st, err := sched.NewStreamer(StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arrivals[:100] {
		if _, err := st.Ingest(a); err != nil {
			t.Fatal(err)
		}
	}
	state, err := st.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	// 100 arrivals on four GPUs: the index examines 496 nodes and
	// confirms 105 GPUs (a serial walk visited 444 GPUs and probed 139).
	if want := (DispatchStats{Probes: 105, Visits: 496, Waits: 88, Completions: 92}); state.Stats != want {
		t.Fatalf("stats %+v, want %+v", state.Stats, want)
	}
	blob, err := json.Marshal(state)
	if err != nil {
		t.Fatal(err)
	}
	older := bytes.Replace(blob, []byte(fmt.Sprintf(`"Visits":%d,`, state.Stats.Visits)), nil, 1)
	if bytes.Equal(older, blob) {
		t.Fatal("snapshot JSON carries no Visits field to strip")
	}
	for _, c := range []struct {
		name string
		blob []byte
		want int64
	}{{"current", blob, state.Stats.Visits}, {"older", older, 0}} {
		var saved StreamState
		if err := json.Unmarshal(c.blob, &saved); err != nil {
			t.Fatal(err)
		}
		resumed, err := sched.RestoreStreamer(StreamConfig{}, &saved)
		if err != nil {
			t.Fatalf("%s snapshot: %v", c.name, err)
		}
		want := state.Stats
		want.Visits = c.want
		if got := resumed.Stats(); got != want {
			t.Fatalf("%s snapshot restored stats %+v, want %+v", c.name, got, want)
		}
	}
}

// TestStreamRestoreValidation exercises the snapshot compatibility
// checks: fleet shape, snapshot format, resident GPUs and serial order
// all gate a restore.
func TestStreamRestoreValidation(t *testing.T) {
	arrivals, store, err := GenerateFleet(a100x(), FleetSpec{Workflows: 200, TargetGPUs: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	s := fleetScheduler(t, store, 4)
	st, err := s.NewStreamer(StreamConfig{})
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
		mutate func(*StreamState)
		want   string
	}{
		{"gpu mismatch", fleetScheduler(t, store, 8), nil, "saved for 4 GPUs"},
		{"pre-change snapshot", fleetScheduler(t, store, 4), func(ss *StreamState) {
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
		{"resident gpu out of range", fleetScheduler(t, store, 4), func(ss *StreamState) {
			if len(ss.Resident) > 0 {
				ss.Resident[0].GPU = 99
			}
		}, "on GPU 99"},
		{"serials not increasing", fleetScheduler(t, store, 4), func(ss *StreamState) {
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
			_, err := c.sched.RestoreStreamer(StreamConfig{}, &clone)
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
}

// errSpillFull is the failure failingWriter injects.
var errSpillFull = errors.New("spill device full")

// failingWriter accepts writes until its k-th (1-based), which fails,
// as does every write after it.
type failingWriter struct{ k, writes int }

func (w *failingWriter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes >= w.k {
		return 0, errSpillFull
	}
	return len(p), nil
}

// TestStreamSpillErrorSticky pins the spill failure contract: the
// first failed spill write is returned by the Ingest whose own line it
// was, which still counts that event, and from then on Ingest,
// SaveState and Finish return the same error without dispatching,
// counting or spilling anything.
func TestStreamSpillErrorSticky(t *testing.T) {
	arrivals, store, err := GenerateFleet(a100x(), FleetSpec{Workflows: 64, TargetGPUs: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := fleetScheduler(t, store, 4)
	// Each Ingest spills its line with one write, so the 4th arrival's
	// write fails.
	w := &failingWriter{k: 4}
	st, err := s.NewStreamer(StreamConfig{Spill: w})
	if err != nil {
		t.Fatal(err)
	}
	failed := -1
	var first error
	for i, a := range arrivals {
		if _, err := st.Ingest(a); err != nil {
			failed, first = i, err
			break
		}
	}
	if failed != 3 || !errors.Is(first, errSpillFull) {
		t.Fatalf("arrival %d failed with %v, want arrival 3 with %v", failed, first, errSpillFull)
	}
	events, stats, writes := st.Events(), st.Stats(), w.writes
	if events != int64(failed+1) || writes != failed+1 {
		t.Fatalf("Events() = %d, %d writes after the failed spill, want %d each (the failing event counts)",
			events, writes, failed+1)
	}
	if _, err := st.Ingest(arrivals[failed+1]); err != first {
		t.Fatalf("next Ingest: err = %v, want the first spill error %v", err, first)
	}
	if _, err := st.SaveState(); err != first {
		t.Fatalf("SaveState: err = %v, want %v", err, first)
	}
	if _, err := st.Finish(); err != first {
		t.Fatalf("Finish: err = %v, want %v", err, first)
	}
	if st.Events() != events || st.Stats() != stats || w.writes != writes {
		t.Fatalf("after the spill error: events %d stats %+v writes %d, want %d %+v %d",
			st.Events(), st.Stats(), w.writes, events, stats, writes)
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
	s := fleetScheduler(t, halfHugeStore(t), 2)
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

// halfHugeStore holds two 100-s benchmarks: "half" (40% SM, 1 GiB),
// two of which fill a GPU's SM, and "huge" (1 TiB), which no GPU can
// ever take.
func halfHugeStore(t *testing.T) *profile.Store {
	t.Helper()
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
	return store
}

// TestCheckMatchesIngest pins Check to Ingest: for each way an arrival
// is refused, Check returns the error Ingest then returns, and neither
// call changes the saved state; an arrival Check passes is ingested.
func TestCheckMatchesIngest(t *testing.T) {
	s := fleetScheduler(t, halfHugeStore(t), 2)
	st, err := s.NewStreamer(StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Ingest(Arrival{At: at(5), Workflow: wfOne("first", "half", "1x", 1)}); err != nil {
		t.Fatal(err)
	}
	saved := func() string {
		t.Helper()
		state, err := st.SaveState()
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(state)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	same := func(name string, a Arrival, on *Streamer) {
		t.Helper()
		cerr := on.Check(a)
		_, ierr := on.Ingest(a)
		if cerr == nil || ierr == nil || cerr.Error() != ierr.Error() {
			t.Fatalf("%s: Check = %v, Ingest = %v", name, cerr, ierr)
		}
	}
	for _, c := range []struct {
		name string
		a    Arrival
	}{
		{"out of order", Arrival{At: at(1), Workflow: wfOne("early", "half", "1x", 1)}},
		{"bad shape", Arrival{At: at(6), Workflow: workflow.Workflow{Name: "empty"}}},
		{"unknown benchmark", Arrival{At: at(6), Workflow: wfOne("nope", "nope", "1x", 1)}},
		{"fits no empty GPU", Arrival{At: at(6), Workflow: wfOne("huge", "huge", "1x", 1)}},
	} {
		before := saved()
		same(c.name, c.a, st)
		if after := saved(); after != before {
			t.Fatalf("%s: refusal changed the saved state\n%s\nto\n%s", c.name, before, after)
		}
	}
	ok := Arrival{At: at(6), Workflow: wfOne("ok", "half", "1x", 1)}
	if err := st.Check(ok); err != nil {
		t.Fatalf("Check(ok) = %v", err)
	}
	if _, err := st.Ingest(ok); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Finish(); err != nil {
		t.Fatal(err)
	}
	same("after Finish", ok, st)

	zero := &Scheduler{Device: a100x(), GPUs: 0, Profiles: s.Profiles, Policy: EnergyPolicy()}
	empty, err := zero.NewStreamer(StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	same("zero GPUs", ok, empty)
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

// TestStreamProfileRecycling pins what the streamer retains of its
// profiles: a stream drawing from a fixed archetype set caches only the
// single-task profile, while multi-task (uncached) profiles are left to
// the GC once their event is framed.
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
	single := workflow.Task{Benchmark: "AthenaPK", Size: "1x", Iterations: 1}
	if len(st.builder.cache) != 1 || st.builder.cache[single] == nil {
		t.Fatalf("profile cache holds %d entries, want only the single-task %v", len(st.builder.cache), single)
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
	st, err := s.NewStreamer(StreamConfig{Spill: &spilled})
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
// budget per arrival: the profile cache and chunked name lists hold the
// whole decision-and-record pipeline to a small constant, two orders of
// magnitude under a per-event allocation (see BENCH_dispatcher.json).
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
	// name-chunk refills — well under one heap object per arrival.
	if perArrival > 0.5 {
		t.Fatalf("planOnline allocates %.2f objects per arrival, want <= 0.5", perArrival)
	}
}
