package interference

import (
	"testing"

	"gpushare/internal/gpu"
)

func reasonDevice() gpu.DeviceSpec {
	return gpu.DeviceSpec{Name: "test", SMCount: 108, MemoryMiB: 40960}
}

func TestOutcomeReason(t *testing.T) {
	a := NewAggregate(reasonDevice())

	// Admitted probe: zero-value reason.
	r := a.Admit(Load{SMPct: 40, BWPct: 30, MemMiB: 1024}).Reason()
	if r.Rejected() || r != (Reason{}) {
		t.Fatalf("admitted probe reason = %+v", r)
	}
	if got := r.String(); got != "admit" {
		t.Fatalf("admit String = %q", got)
	}

	// Compute + bandwidth violation with exact integer scaling.
	a.Add(Load{SMPct: 80, BWPct: 90, MemMiB: 1024})
	r = a.Admit(Load{SMPct: 52.5, BWPct: 20.25, MemMiB: 1024}).Reason()
	if r.Rules != MaskCompute|MaskBandwidth {
		t.Fatalf("rules = %v", r.Rules)
	}
	if r.SMExcessMilli != 32500 || r.BWExcessMilli != 10250 {
		t.Fatalf("excess = sm %d bw %d, want 32500 / 10250", r.SMExcessMilli, r.BWExcessMilli)
	}
	if r.MemExcessMiB != 0 {
		t.Fatalf("mem excess = %d on a fitting footprint", r.MemExcessMiB)
	}

	// Capacity violation in MiB.
	r = a.Admit(Load{SMPct: 1, BWPct: 1, MemMiB: 40960}).Reason()
	if r.Rules != MaskCapacity {
		t.Fatalf("rules = %v", r.Rules)
	}
	if r.MemExcessMiB != 1024 {
		t.Fatalf("mem excess = %d, want 1024", r.MemExcessMiB)
	}
}

func TestRuleMaskString(t *testing.T) {
	cases := map[RuleMask]string{
		0:                          "ok",
		MaskCompute:                "compute",
		MaskBandwidth:              "bandwidth",
		MaskCapacity:               "capacity",
		MaskClientCap:              "client-cap",
		MaskCompute | MaskCapacity: "compute,capacity",
		MaskBandwidth | MaskCapacity | MaskClientCap: "bandwidth,capacity,client-cap",
	}
	for m, want := range cases {
		if got := m.String(); got != want {
			t.Errorf("RuleMask(%d).String() = %q, want %q", m, got, want)
		}
	}
}

func TestReasonString(t *testing.T) {
	r := Reason{Rules: MaskCompute | MaskCapacity, SMExcessMilli: 32500, MemExcessMiB: 512}
	want := "reject[compute,capacity] sm+32500m mem+512MiB"
	if got := r.String(); got != want {
		t.Fatalf("Reason.String() = %q, want %q", got, want)
	}
}

// TestOutcomeReasonAllocs is the runtime half of Reason's
// //repro:hotpath annotation: deriving a typed reason from a probe
// outcome allocates nothing, so the cluster planner can derive one for
// every rejected probe.
func TestOutcomeReasonAllocs(t *testing.T) {
	a := NewAggregate(reasonDevice())
	a.Add(Load{SMPct: 80, BWPct: 90, MemMiB: 1024})
	load := Load{SMPct: 52.5, BWPct: 20.25, MemMiB: 1 << 20}
	var sink Reason
	allocs := testing.AllocsPerRun(200, func() {
		sink = a.Admit(load).Reason()
	})
	if allocs != 0 {
		t.Fatalf("Outcome.Reason allocated %.1f objects, want 0", allocs)
	}
	if !sink.Rejected() {
		t.Fatal("pin never exercised a rejection")
	}
}

// TestAggregateDigestAllocs pins Digest allocation-free; the what-if
// provenance records call it twice per probe.
func TestAggregateDigestAllocs(t *testing.T) {
	a := NewAggregate(reasonDevice())
	for i := 0; i < 8; i++ {
		a.Add(Load{SMPct: float64(i), BWPct: float64(2 * i), MemMiB: int64(i) * 100})
	}
	var sink uint64
	allocs := testing.AllocsPerRun(200, func() { sink = a.Digest() })
	if allocs != 0 {
		t.Fatalf("Aggregate.Digest allocated %.1f objects, want 0", allocs)
	}
	_ = sink
}

// TestAggregateDigestTracksState pins the digest's provenance value: it
// is stable over save/probe/restore round trips and changes when the
// membership changes.
func TestAggregateDigestTracksState(t *testing.T) {
	a := NewAggregate(reasonDevice())
	a.Add(Load{SMPct: 30, BWPct: 20, MemMiB: 2048})
	a.Add(Load{SMPct: 40, BWPct: 10, MemMiB: 1024})
	before := a.Digest()

	var s Snapshot
	a.Save(&s)
	a.RemoveAt(0)
	if a.Digest() == before {
		t.Fatal("digest unchanged after membership change")
	}
	a.Restore(&s)
	if got := a.Digest(); got != before {
		t.Fatalf("digest after restore = %016x, want %016x", got, before)
	}
}
