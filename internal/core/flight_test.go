package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"gpushare/internal/gpu"
	"gpushare/internal/obs"
	"gpushare/internal/profile"
)

// flightBytes marshals a hub's flight snapshot for byte-level diffs.
func flightBytes(t *testing.T, h *obs.Hub) []byte {
	t.Helper()
	data, err := json.Marshal(h.Dump().Flight)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestStreamFlightResume extends the snapshot/resume identity to the
// flight ring: a run interrupted mid-stream and resumed on a fresh
// process (fresh hub, state through JSON) finishes with the
// uninterrupted run's flight snapshot and digest, byte for byte.
func TestStreamFlightResume(t *testing.T) {
	arrivals, store, err := GenerateFleet(a100x(), FleetSpec{Workflows: 500, TargetGPUs: 8, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	prev := obs.Active()
	defer obs.SetActive(prev)

	// Uninterrupted reference run.
	refHub := obs.NewHub(nil)
	obs.SetActive(refHub)
	s := fleetScheduler(t, store, 8)
	ref, err := s.NewStreamer(StreamConfig{})
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
	refFlight := flightBytes(t, refHub)

	// Interrupted run: ingest a prefix, snapshot (carrying the flight
	// ring), resume under a fresh hub.
	cut := len(arrivals)/2 + 3
	hubA := obs.NewHub(nil)
	obs.SetActive(hubA)
	sA := fleetScheduler(t, store, 8)
	first, err := sA.NewStreamer(StreamConfig{})
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
	if state.Flight == nil || state.Flight.Total == 0 {
		t.Fatal("stream state did not capture the flight ring")
	}
	blob, err := json.Marshal(state)
	if err != nil {
		t.Fatal(err)
	}
	var restored StreamState
	if err := json.Unmarshal(blob, &restored); err != nil {
		t.Fatal(err)
	}

	hubB := obs.NewHub(nil)
	obs.SetActive(hubB)
	sB := fleetScheduler(t, store, 8)
	second, err := sB.RestoreStreamer(StreamConfig{}, &restored)
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
	if got := flightBytes(t, hubB); !bytes.Equal(got, refFlight) {
		t.Fatal("resumed flight snapshot diverged from uninterrupted run")
	}
}

// TestStreamFlightDisabled pins the nil-hub path: with telemetry off,
// streaming runs record nothing and stream states carry no flight
// section — and restoring a state that has one under disabled telemetry
// is silently fine.
func TestStreamFlightDisabled(t *testing.T) {
	arrivals, store, err := GenerateFleet(a100x(), FleetSpec{Workflows: 60, TargetGPUs: 4, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	prev := obs.SetActive(nil)
	defer obs.SetActive(prev)

	s := fleetScheduler(t, store, 4)
	st, err := s.NewStreamer(StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arrivals[:30] {
		if _, err := st.Ingest(a); err != nil {
			t.Fatal(err)
		}
	}
	state, err := st.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	if state.Flight != nil {
		t.Fatal("disabled-telemetry stream state carries a flight section")
	}

	// A state saved with telemetry enabled restores under a disabled hub.
	state.Flight = &obs.FlightSnapshot{Total: 3, Records: []obs.FlightRecord{{Seq: 0, Kind: obs.FlightArrival, GPU: -1}}}
	s2 := fleetScheduler(t, store, 4)
	resumed, err := s2.RestoreStreamer(StreamConfig{}, state)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range arrivals[30:] {
		if _, err := resumed.Ingest(a); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := resumed.Finish(); err != nil {
		t.Fatal(err)
	}
}

// waitStore profiles a "big" workload two of which exceed device memory
// and a "small" one that fits beside a big, for building fleets where
// an arrival waits a chosen number of times.
func waitStore(t *testing.T, device gpu.DeviceSpec) *profile.Store {
	t.Helper()
	store := profile.NewStore()
	for _, p := range []*profile.TaskProfile{
		{Workload: "big", Size: "1x", AvgSMUtilPct: 20, AvgBWUtilPct: 10,
			MaxMemMiB: device.MemoryMiB/2 + 1024, DurationS: 100, EnergyJ: 3000},
		{Workload: "small", Size: "1x", AvgSMUtilPct: 20, AvgBWUtilPct: 10,
			MaxMemMiB: 1024, DurationS: 10, EnergyJ: 3000},
	} {
		if err := store.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

// TestScanRecordsPerWait pins the trail's size per arrival: on a
// throughput-policy fleet (two clients per GPU) an arrival that waits k
// times writes exactly 2k+3 records — arrival, k+1 scans, k waits and
// the dispatch — however many GPUs each scan rules out. Every GPU holds a
// big resident (ending at 100s) beside a small one; waits-1 smalls end
// one millisecond apart before 100s, the rest after it. A
// late big arrival finds every GPU full, and each small retirement
// leaves a GPU it cannot join beside the remaining big, so it waits
// through those retirements and once more for the bigs to end.
func TestScanRecordsPerWait(t *testing.T) {
	const waits = 6
	device := a100x()
	store := waitStore(t, device)
	prev := obs.Active()
	defer obs.SetActive(prev)

	for _, gpus := range []int{2000, 200} {
		var arrivals []Arrival
		for i := 0; i < gpus; i++ {
			arrivals = append(arrivals, Arrival{At: at(0), Workflow: wfOne(fmt.Sprintf("big-%d", i), "big", "1x", 1)})
		}
		early := waits - 1 // smalls retiring before the bigs
		for i := 0; i < gpus; i++ {
			start := 90 + 0.001*float64(i-early+1)
			if i < early {
				start = 90 - 0.001*float64(early-i)
			}
			arrivals = append(arrivals, Arrival{At: at(start), Workflow: wfOne(fmt.Sprintf("small-%d", i), "small", "1x", 1)})
		}
		arrivals = append(arrivals, Arrival{At: at(95), Workflow: wfOne("late", "big", "1x", 1)})

		hub := obs.NewHub(nil)
		obs.SetActive(hub)
		s, err := NewScheduler(device, gpus, store, ThroughputPolicy())
		if err != nil {
			t.Fatal(err)
		}
		plan, err := s.PlanOnline(arrivals)
		if err != nil {
			t.Fatal(err)
		}
		last := plan.Dispatches[len(plan.Dispatches)-1]
		if last.Workflow != "late" || last.GPU != 0 || last.At != at(100) {
			t.Fatalf("%d GPUs: late arrival dispatched as %+v, want GPU 0 at 100s", gpus, last)
		}

		seq := int64(len(arrivals) - 1)
		counts := map[obs.FlightKind]int{}
		var n int
		for _, r := range hub.Flight.Snapshot().Records {
			if r.Seq != seq {
				continue
			}
			// The first scan finds the whole full fleet rejected at the
			// index root: one visit, every GPU at its client cap.
			if r.Kind == obs.FlightScan && counts[obs.FlightScan] == 0 &&
				(r.GPU != -1 || r.Clients != 1 || r.CapSkips != int32(gpus)) {
				t.Fatalf("%d GPUs: first scan = %+v, want 1 visit, %d client-cap rejections and no winner", gpus, r, gpus)
			}
			counts[r.Kind]++
			n++
		}
		if n != 2*waits+3 || counts[obs.FlightScan] != waits+1 || counts[obs.FlightWait] != waits ||
			counts[obs.FlightArrival] != 1 || counts[obs.FlightDispatch] != 1 {
			t.Fatalf("%d GPUs: late arrival wrote %d records %v, want %d (%d waits)", gpus, n, counts, 2*waits+3, waits)
		}
	}
}
