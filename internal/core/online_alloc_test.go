package core

import (
	"testing"

	"gpushare/internal/interference"
	"gpushare/internal/obs"
	"gpushare/internal/simtime"
)

// TestDispatcherAdmitAllocs pins the dispatcher wait loop — admit and
// retire — at zero allocations per arrival in steady state: the runtime
// half of their //repro:hotpath annotations. The stream saturates four
// GPUs so every arrival exercises retirement, index updates, retry
// scans and completion waits, not just the empty-fleet fast path.
func TestDispatcherAdmitAllocs(t *testing.T) {
	d := testDispatcher(4)
	load := interference.Load{SMPct: 30, BWPct: 20, MemMiB: 1024}
	hold := simtime.FromSeconds(100)
	now := simtime.Zero
	seq := int64(0)
	place := func() {
		at, g, ok := d.admit(load, now, seq)
		if !ok {
			t.Fatal("admit failed: load should always fit eventually")
		}
		d.place(g, load, "w", at.Add(hold), uint64(seq))
		seq++
		now = now.Add(simtime.FromSeconds(1))
	}
	for i := 0; i < 64; i++ { // warm freelist, heap and index
		place()
	}
	allocs := testing.AllocsPerRun(200, func() { place() })
	if allocs != 0 {
		t.Fatalf("admit+place allocated %.1f objects per arrival, want 0", allocs)
	}
	if d.stats.Waits == 0 || d.stats.Completions == 0 {
		t.Fatalf("pin never exercised the wait loop (waits=%d completions=%d)", d.stats.Waits, d.stats.Completions)
	}
}

// TestDispatcherAdmitAllocsFlightEnabled extends the pin to the
// telemetry-on path: with a live flight recorder (no spill writer) the
// wait loop still allocates nothing — every scan/wait record lands in
// the preallocated ring.
func TestDispatcherAdmitAllocsFlightEnabled(t *testing.T) {
	prev := obs.SetActive(obs.NewHub(nil))
	defer obs.SetActive(prev)

	d := testDispatcher(4)
	if d.fl == nil {
		t.Fatal("dispatcher did not capture the active flight recorder")
	}
	load := interference.Load{SMPct: 30, BWPct: 20, MemMiB: 1024}
	hold := simtime.FromSeconds(100)
	now := simtime.Zero
	seq := int64(0)
	place := func() {
		at, g, ok := d.admit(load, now, seq)
		if !ok {
			t.Fatal("admit failed: load should always fit eventually")
		}
		d.place(g, load, "w", at.Add(hold), uint64(seq))
		seq++
		now = now.Add(simtime.FromSeconds(1))
	}
	for i := 0; i < 64; i++ {
		place()
	}
	allocs := testing.AllocsPerRun(200, func() { place() })
	if allocs != 0 {
		t.Fatalf("admit+place with flight recording allocated %.1f objects per arrival, want 0", allocs)
	}
	if d.fl.Snapshot().Total == 0 {
		t.Fatal("pin never recorded a flight record")
	}
}
