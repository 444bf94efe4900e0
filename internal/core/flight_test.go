package core

import (
	"bytes"
	"encoding/json"
	"testing"

	"gpushare/internal/obs"
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
	ref, err := s.NewStreamer(StreamConfig{RingCapacity: 32})
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
	first, err := sA.NewStreamer(StreamConfig{RingCapacity: 32})
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
	second, err := sB.RestoreStreamer(StreamConfig{RingCapacity: 32}, &restored)
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
	st, err := s.NewStreamer(StreamConfig{RingCapacity: 16})
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
	resumed, err := s2.RestoreStreamer(StreamConfig{RingCapacity: 16}, state)
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
