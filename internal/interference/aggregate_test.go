package interference

import (
	"fmt"
	"math"
	"testing"

	"gpushare/internal/gpu"
	"gpushare/internal/profile"
)

func aggProfile(name string, sm, bw float64, mem int64) *profile.TaskProfile {
	return &profile.TaskProfile{Workload: name, Size: "s",
		AvgSMUtilPct: sm, AvgBWUtilPct: bw, MaxMemMiB: mem}
}

// sums is one group's combined sums with the floats as bits, so NaN
// sums (reachable under fuzzing) compare equal to themselves.
type sums struct {
	sm, bw uint64
	mem    int64
}

func sumBits(sm, bw float64, mem int64) sums {
	return sums{math.Float64bits(sm), math.Float64bits(bw), mem}
}

// predictSums is Predict's combined sums.
func predictSums(e Estimate) sums {
	return sumBits(e.CombinedSMUtilPct, e.CombinedBWUtilPct, e.CombinedMaxMemMiB)
}

// typesMask is Predict's violated-rule list as a mask.
func typesMask(e Estimate) RuleMask {
	var m RuleMask
	for _, t := range e.Types {
		switch t {
		case Compute:
			m |= MaskCompute
		case Bandwidth:
			m |= MaskBandwidth
		case Capacity:
			m |= MaskCapacity
		}
	}
	return m
}

// requireMatchesPredict checks the aggregate against Predict over the
// same member sequence: the running sums bit for bit, the device, and
// the group's own verdict (a zero-load probe) against Predict's types.
func requireMatchesPredict(t *testing.T, agg *Aggregate, want Estimate) {
	t.Helper()
	if got, w := sumBits(agg.Sums()), predictSums(want); got != w {
		t.Fatalf("sums diverged from Predict: got %+v want %+v", got, w)
	}
	if agg.DeviceMemMiB() != want.DeviceMemMiB {
		t.Fatalf("device mem diverged: got %d want %d", agg.DeviceMemMiB(), want.DeviceMemMiB)
	}
	if got := agg.Admit(Load{}); got != typesMask(want) {
		t.Fatalf("group verdict %v, Predict's types %v", got, want.Types)
	}
}

// TestAggregateMatchesPredict walks a member sequence through
// Add/RemoveAt and checks the aggregate's sums stay bit-identical to
// Predict over the surviving sequence, and its verdicts equal Predict's,
// at every step.
func TestAggregateMatchesPredict(t *testing.T) {
	device := gpu.MustLookup("A100X")
	members := []*profile.TaskProfile{
		aggProfile("a", 33.3, 21.7, 18000),
		aggProfile("b", 0.1, 0.2, 1),
		aggProfile("c", 66.6, 77.7, 60000),
		aggProfile("d", 12.5, 3.125, 4096),
		aggProfile("e", 99.999, 100.001, 81920),
	}

	agg := NewAggregate(device)
	var seq []*profile.TaskProfile
	for _, m := range members {
		// Probe before admitting: Admit must equal Predict over seq+m.
		want := Predict(device, append(append([]*profile.TaskProfile{}, seq...), m))
		if got := agg.Admit(ProfileLoad(m)); got != typesMask(want) {
			t.Fatalf("Admit(%s) = %v, Predict's types %v", m.Workload, got, want.Types)
		}
		if sumBits(agg.foldExcluding(ProfileLoad(m), nil)) != predictSums(want) {
			t.Fatalf("Admit(%s) sums diverged from Predict", m.Workload)
		}
		agg.Add(ProfileLoad(m))
		seq = append(seq, m)
		requireMatchesPredict(t, &agg, Predict(device, seq))
	}

	// Remove from the middle, front, and back; re-check after each.
	for _, i := range []int{2, 0, len(seq) - 1 - 2} {
		agg.RemoveAt(i)
		seq = append(seq[:i], seq[i+1:]...)
		requireMatchesPredict(t, &agg, Predict(device, seq))
	}
	if agg.Len() != len(seq) {
		t.Fatalf("Len=%d want %d", agg.Len(), len(seq))
	}

	agg.Reset()
	if agg.Len() != 0 {
		t.Fatalf("Len after Reset = %d", agg.Len())
	}
	requireMatchesPredict(t, &agg, Predict(device, nil))
}

// TestAggregateNilProfileLoad pins the nil-skip parity: Predict skips
// nil profiles, ProfileLoad maps nil to a zero load.
func TestAggregateNilProfileLoad(t *testing.T) {
	device := gpu.MustLookup("A100X")
	agg := NewAggregate(device)
	agg.Add(ProfileLoad(nil))
	agg.Add(ProfileLoad(aggProfile("a", 40, 50, 1000)))
	want := Predict(device, []*profile.TaskProfile{nil, aggProfile("a", 40, 50, 1000)})
	requireMatchesPredict(t, &agg, want)
}

// TestAggregateOutcomeRules checks each rule bit of Admit's verdict
// fires on exactly its threshold semantics (>, not >=).
func TestAggregateOutcomeRules(t *testing.T) {
	device := gpu.MustLookup("A100X")
	agg := NewAggregate(device)
	agg.Add(Load{SMPct: 100, BWPct: 100, MemMiB: device.MemoryMiB})
	for _, c := range []struct {
		cand Load
		want RuleMask
	}{
		{Load{}, 0}, // exactly at every limit
		{Load{SMPct: 0.0001}, MaskCompute},
		{Load{BWPct: 0.5}, MaskBandwidth},
		{Load{MemMiB: 1}, MaskCapacity},
	} {
		if m := agg.Admit(c.cand); m != c.want {
			t.Fatalf("Admit(%+v) = %v, want %v", c.cand, m, c.want)
		}
	}
}

// TestAggregateAdmitAllocs pins the zero-allocation admission probe —
// the property the fleet dispatcher's hot path depends on.
func TestAggregateAdmitAllocs(t *testing.T) {
	device := gpu.MustLookup("A100X")
	agg := NewAggregate(device)
	agg.Add(Load{SMPct: 30, BWPct: 20, MemMiB: 10000})
	agg.Add(Load{SMPct: 40, BWPct: 10, MemMiB: 20000})
	cand := Load{SMPct: 25, BWPct: 60, MemMiB: 30000}
	var sink RuleMask
	allocs := testing.AllocsPerRun(100, func() {
		sink = agg.Admit(cand)
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("Admit allocated %.1f objects per probe, want 0", allocs)
	}
}

// excludingProbe is one read-only what-if: its verdict and the sums
// it judged.
func excludingProbe(agg *Aggregate, cand Load, skip []bool) (RuleMask, sums) {
	return agg.AdmitExcluding(cand, skip), sumBits(agg.foldExcluding(cand, skip))
}

// removingProbe is the mutating reference: remove the skipped members
// high to low (the planner's historical order), probe, restore.
func removingProbe(agg *Aggregate, cand Load, skip []bool) (RuleMask, sums) {
	var snap Snapshot
	agg.Save(&snap)
	for i := min(len(skip), agg.Len()) - 1; i >= 0; i-- {
		if skip[i] {
			agg.RemoveAt(i)
		}
	}
	sm, bw, mem := agg.Sums()
	m, s := agg.Admit(cand), sumBits(sm+cand.SMPct, bw+cand.BWPct, mem+cand.MemMiB)
	agg.Restore(&snap)
	return m, s
}

// TestAggregateAdmitExcludingMatchesMutatingWhatIf pins the read-only
// what-if against the mutating sequence it replaces: for every skip
// mask, AdmitExcluding must return the verdict, and fold bit for bit
// the sums, of Save / RemoveAt(high→low) / Admit / Restore — and must
// leave the aggregate's digest untouched, which the mutating form only
// restores.
func TestAggregateAdmitExcludingMatchesMutatingWhatIf(t *testing.T) {
	device := gpu.MustLookup("A100X")
	agg := NewAggregate(device)
	members := []Load{
		{SMPct: 33.3, BWPct: 11.1, MemMiB: 20480},
		{SMPct: 0.1, BWPct: 66.6, MemMiB: 4096},
		{SMPct: 28.7, BWPct: 9.9, MemMiB: 30000},
		{SMPct: 12.5, BWPct: 3.125, MemMiB: 8192},
		{SMPct: 99.999, BWPct: 0.001, MemMiB: 1},
	}
	for _, l := range members {
		agg.Add(l)
	}
	cand := Load{SMPct: 30.0, BWPct: 10.0, MemMiB: 40960}

	check := func(name string, skip []bool) {
		t.Helper()
		before := agg.Digest()
		gotM, gotS := excludingProbe(&agg, cand, skip)
		if d := agg.Digest(); d != before {
			t.Fatalf("%s: AdmitExcluding mutated the aggregate: digest %016x -> %016x", name, before, d)
		}
		if wantM, wantS := removingProbe(&agg, cand, skip); gotM != wantM || gotS != wantS {
			t.Fatalf("%s: AdmitExcluding diverged from mutating what-if:\ngot  %v %+v\nwant %v %+v", name, gotM, gotS, wantM, wantS)
		}
	}
	for mask := 0; mask < 1<<len(members); mask++ {
		skip := make([]bool, len(members))
		for i := range skip {
			skip[i] = mask&(1<<i) != 0
		}
		check(fmt.Sprintf("mask %05b", mask), skip)
	}
	// nil skip is exactly Admit; a short mask keeps the unmasked tail.
	check("nil mask", nil)
	check("short mask", []bool{true})
}

// TestAggregateAdmitExcludingAllocs pins the read-only what-if at zero
// allocations — the cluster planner runs one per (GPU, preemptor) pair,
// concurrently across nodes.
func TestAggregateAdmitExcludingAllocs(t *testing.T) {
	device := gpu.MustLookup("A100X")
	agg := NewAggregate(device)
	for i := 0; i < 16; i++ {
		agg.Add(Load{SMPct: 7, BWPct: 5, MemMiB: 4096})
	}
	skip := make([]bool, 16)
	for i := 0; i < 16; i += 3 {
		skip[i] = true
	}
	cand := Load{SMPct: 25, BWPct: 60, MemMiB: 30000}
	var sink RuleMask
	allocs := testing.AllocsPerRun(100, func() {
		sink = agg.AdmitExcluding(cand, skip)
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("AdmitExcluding allocated %.1f objects per probe, want 0", allocs)
	}
}

// FuzzAdmitExcludingMatchesRemove drives random members and skip masks
// through both what-if forms and requires equal verdicts, bit-equal
// sums, and an unchanged digest on the read-only side.
func FuzzAdmitExcludingMatchesRemove(f *testing.F) {
	f.Add(50.0, 30.0, int64(20000), 60.0, 80.0, int64(30000), 10.0, 5.0, int64(100), uint8(3))
	f.Add(0.0, 0.0, int64(0), 0.0, 0.0, int64(0), 0.0, 0.0, int64(0), uint8(7))
	f.Add(-5.0, 200.0, int64(-100), math.MaxFloat64, 1e-300, int64(1<<40), 0.3, 0.7, int64(7), uint8(0))
	f.Fuzz(func(t *testing.T, sm1, bw1 float64, mem1 int64,
		sm2, bw2 float64, mem2 int64, sm3, bw3 float64, mem3 int64, mask uint8) {
		device := gpu.MustLookup("A100X")
		agg := NewAggregate(device)
		loads := []Load{
			{SMPct: sm1, BWPct: bw1, MemMiB: mem1},
			{SMPct: sm2, BWPct: bw2, MemMiB: mem2},
			{SMPct: sm3, BWPct: bw3, MemMiB: mem3},
		}
		for _, l := range loads {
			agg.Add(l)
		}
		skip := make([]bool, len(loads))
		for i := range skip {
			skip[i] = mask&(1<<i) != 0
		}
		cand := Load{SMPct: sm1 + sm3, BWPct: bw2, MemMiB: mem1}

		before := agg.Digest()
		gotM, gotS := excludingProbe(&agg, cand, skip)
		if d := agg.Digest(); d != before {
			t.Fatalf("AdmitExcluding mutated the aggregate: %016x -> %016x", before, d)
		}
		if wantM, wantS := removingProbe(&agg, cand, skip); gotM != wantM || gotS != wantS {
			t.Fatalf("read-only what-if diverged:\ngot  %v %+v\nwant %v %+v", gotM, gotS, wantM, wantS)
		}
	})
}

// TestAggregateMutateAllocs pins Add and RemoveAt at zero allocations
// once capacity is warm: the runtime half of their //repro:hotpath
// annotations (Add's amortized growth is excused by warmed capacity,
// which Reset retains).
func TestAggregateMutateAllocs(t *testing.T) {
	device := gpu.MustLookup("A100X")
	agg := NewAggregate(device)
	for i := 0; i < 32; i++ {
		agg.Add(Load{SMPct: 1, BWPct: 1, MemMiB: 16})
	}
	agg.Reset()
	for i := 0; i < 16; i++ {
		agg.Add(Load{SMPct: 1, BWPct: 1, MemMiB: 16})
	}
	allocs := testing.AllocsPerRun(200, func() {
		agg.Add(Load{SMPct: 2, BWPct: 3, MemMiB: 64})
		agg.RemoveAt(7)
	})
	if allocs != 0 {
		t.Fatalf("Add+RemoveAt allocated %.1f objects per cycle, want 0", allocs)
	}

	// Save/Restore with a warmed snapshot buffer is also allocation-free:
	// the cluster dispatcher runs one what-if per admission attempt.
	var snap Snapshot
	agg.Save(&snap)
	allocs = testing.AllocsPerRun(200, func() {
		agg.Save(&snap)
		agg.RemoveAt(3)
		agg.RemoveAt(0)
		agg.Restore(&snap)
	})
	if allocs != 0 {
		t.Fatalf("Save+Restore what-if allocated %.1f objects per cycle, want 0", allocs)
	}
}

// TestAggregateSnapshotRoundTrip pins the what-if contract: mutate after
// Save, Restore, and every sum and member must be bit-identical to the
// saved state — including the admission decision that follows.
func TestAggregateSnapshotRoundTrip(t *testing.T) {
	device := gpu.MustLookup("A100X")
	agg := NewAggregate(device)
	members := []Load{
		{SMPct: 33.3, BWPct: 11.1, MemMiB: 20480},
		{SMPct: 0.1, BWPct: 66.6, MemMiB: 4096},
		{SMPct: 28.7, BWPct: 9.9, MemMiB: 30000},
	}
	for _, l := range members {
		agg.Add(l)
	}
	probe := Load{SMPct: 30.0, BWPct: 10.0, MemMiB: 1024}
	before, beforeSums := agg.Admit(probe), sumBits(agg.Sums())

	var snap Snapshot
	agg.Save(&snap)
	agg.RemoveAt(1)
	agg.Add(Load{SMPct: 99, BWPct: 99, MemMiB: 1 << 40})
	agg.Restore(&snap)

	if agg.Len() != len(members) {
		t.Fatalf("restored member count = %d, want %d", agg.Len(), len(members))
	}
	for i, want := range members {
		if agg.At(i) != want {
			t.Fatalf("restored member %d = %+v, want %+v", i, agg.At(i), want)
		}
	}
	if after := agg.Admit(probe); after != before {
		t.Fatalf("admission verdict drifted across save/restore: before %v, after %v", before, after)
	}
	if after := sumBits(agg.Sums()); after != beforeSums {
		t.Fatalf("sums drifted across save/restore:\nbefore %+v\nafter  %+v", beforeSums, after)
	}
}

// FuzzAggregateMatchesPredict drives random member sequences (with a
// removal in the middle) through the aggregate and requires identical
// verdicts and bit-equal sums versus Predict over the same surviving
// sequence — the contract the golden dispatch logs rest on.
func FuzzAggregateMatchesPredict(f *testing.F) {
	f.Add(50.0, 30.0, int64(20000), 60.0, 80.0, int64(30000), 10.0, 5.0, int64(100), uint8(1))
	f.Add(0.0, 0.0, int64(0), 0.0, 0.0, int64(0), 0.0, 0.0, int64(0), uint8(0))
	f.Add(-5.0, 200.0, int64(-100), math.MaxFloat64, 1e-300, int64(1<<40), 0.3, 0.7, int64(7), uint8(2))
	f.Add(33.3, 66.6, int64(40960), 0.1, 0.2, int64(40961), 99.9, 0.05, int64(1), uint8(5))
	f.Fuzz(func(t *testing.T, sm1, bw1 float64, mem1 int64,
		sm2, bw2 float64, mem2 int64, sm3, bw3 float64, mem3 int64, drop uint8) {
		device := gpu.MustLookup("A100X")
		members := []*profile.TaskProfile{
			aggProfile("a", sm1, bw1, mem1),
			aggProfile("b", sm2, bw2, mem2),
			aggProfile("c", sm3, bw3, mem3),
		}

		agg := NewAggregate(device)
		for i, m := range members {
			want := Predict(device, members[:i+1])
			if got := agg.Admit(ProfileLoad(m)); got != typesMask(want) {
				t.Fatalf("step %d: Admit = %v, Predict's types %v", i, got, want.Types)
			}
			agg.Add(ProfileLoad(m))
			if got := sumBits(agg.Sums()); got != predictSums(want) {
				t.Fatalf("step %d: sums diverged from Predict:\ngot  %+v\nwant %+v", i, got, predictSums(want))
			}
		}

		// Remove one member and compare against Predict over the rest.
		i := int(drop) % len(members)
		agg.RemoveAt(i)
		rest := append(append([]*profile.TaskProfile{}, members[:i]...), members[i+1:]...)
		if got, want := sumBits(agg.Sums()), predictSums(Predict(device, rest)); got != want {
			t.Fatalf("after RemoveAt(%d): sums diverged from Predict:\ngot  %+v\nwant %+v", i, got, want)
		}
	})
}
