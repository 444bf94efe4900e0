package interference

import (
	"testing"

	"gpushare/internal/gpu"
)

func reasonDevice() gpu.DeviceSpec {
	return gpu.DeviceSpec{Name: "test", SMCount: 108, MemoryMiB: 40960}
}

// TestOutcomeRules pins the mask Admit reports: the violated rules in
// canonical bit order, none for an admitted probe.
func TestOutcomeRules(t *testing.T) {
	a := NewAggregate(reasonDevice())
	if m := a.Admit(Load{SMPct: 40, BWPct: 30, MemMiB: 1024}); m != 0 {
		t.Fatalf("admitted probe rules = %v", m)
	}
	a.Add(Load{SMPct: 80, BWPct: 90, MemMiB: 1024})
	if m := a.Admit(Load{SMPct: 52.5, BWPct: 20.25, MemMiB: 1024}); m != MaskCompute|MaskBandwidth {
		t.Fatalf("rules = %v, want compute,bandwidth", m)
	}
	if m := a.Admit(Load{SMPct: 1, BWPct: 1, MemMiB: 40960}); m != MaskCapacity {
		t.Fatalf("rules = %v, want capacity", m)
	}
}

// TestRuleMaskInterferes pins the paper's binary prediction over a
// mask: any of the three rules counts, the dispatcher's client cap does
// not.
func TestRuleMaskInterferes(t *testing.T) {
	for m, want := range map[RuleMask]bool{
		0:                            false,
		MaskClientCap:                false,
		MaskCompute:                  true,
		MaskBandwidth:                true,
		MaskCapacity:                 true,
		MaskCapacity | MaskClientCap: true,
		MaskCompute | MaskBandwidth:  true,
	} {
		if got := m.Interferes(); got != want {
			t.Errorf("RuleMask(%v).Interferes() = %v, want %v", m, got, want)
		}
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
