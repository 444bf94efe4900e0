package cluster

import (
	"encoding/json"
	"math"
	"os"
	"testing"

	"gpushare/internal/gpu"
	"gpushare/internal/profile"
	"gpushare/internal/simtime"
	"gpushare/internal/workflow"
)

// TestMain runs every test and fuzz target of the package with the
// shadow check on: each retry a held gang skips also runs its
// transaction, and the planner panics unless that transaction fails
// exactly as the held attempt did (shadowRetry).
func TestMain(m *testing.M) {
	shadowSkips = true
	os.Exit(m.Run())
}

// loadStore registers one single-task archetype per name with the given
// duration, SM utilization and memory (no bandwidth), so a scenario can
// spell out every resident's load.
func loadStore(t *testing.T, loads map[string][3]float64) *profile.Store {
	t.Helper()
	store := profile.NewStore()
	for name, l := range loads {
		if err := store.Add(&profile.TaskProfile{
			Workload: name, Size: "1x", Device: "NVIDIA A100X",
			DurationS: l[0], AvgSMUtilPct: l[1], MaxMemMiB: int64(l[2]),
			AvgPowerW: 100, EnergyJ: 100 * l[0], GPUIdlePct: 5,
			TheoreticalOccPct: 50, AchievedOccPct: 35, SizeFactor: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

// mpsNode is a one-GPU MPS node of the given device.
func mpsNode(name, device string) NodeSpec {
	return NodeSpec{Name: name, Device: gpu.MustLookup(device), GPUs: 1, Mode: ModeMPS}
}

// wantAdmittedAt fails unless every dispatch of gang happened at atS
// seconds and there are n of them.
func wantAdmittedAt(t *testing.T, out *Outcome, gang string, n int, atS float64) {
	t.Helper()
	var at []simtime.Time
	for _, d := range out.Dispatches {
		if d.Gang == gang {
			at = append(at, d.At)
		}
	}
	want := simtime.Zero.Add(simtime.FromSeconds(atS))
	if len(at) != n {
		t.Fatalf("gang %s dispatched %d times (%v), want %d", gang, len(at), at, n)
	}
	for _, a := range at {
		if a != want {
			t.Fatalf("gang %s dispatched at %v, want every member at %v", gang, at, want)
		}
	}
}

// TestHoldRetriesWhenTouchedGPUChanges pins rule (a): a change on a GPU
// the failed attempt touched reruns it, even where no member fits the
// changed GPU as it stands. Gang h's first member evicts gang v, which
// also leaves n1; the completion of r frees n1 only with v gone, so
// the rerun places h1 there, and h2 then fits on n2. Probing n1 as it
// stands (v still resident) admits no member.
func TestHoldRetriesWhenTouchedGPUChanges(t *testing.T) {
	store := loadStore(t, map[string][3]float64{
		"v0": {1000, 50, 1000}, "v1": {1000, 80, 1000},
		"p0": {1000, 45, 1000}, "r": {10, 10, 30000}, "s": {1000, 10, 30000},
		"h0": {100, 30, 55000}, "h1": {100, 30, 20000}, "h2": {100, 80, 45000},
	})
	spec := Spec{
		Nodes: []NodeSpec{
			mpsNode("n0", "A100X"),
			mpsNode("n1", "A100-SXM4-40GB"),
			mpsNode("n2", "A100X"),
		},
		Tenants:    []TenantSpec{{Name: "a"}, {Name: "b"}},
		Preemption: true,
	}
	subs := []Submission{
		sub(0, "a", 0, gang("v", wf("v0", "v0"), wf("v1", "v1"))),
		sub(0, "a", 2, workflow.Single(wf("p0", "p0"))),
		sub(0, "a", 2, workflow.Single(wf("r", "r"))),
		sub(0, "a", 2, workflow.Single(wf("s", "s"))),
		sub(1, "b", 1, gang("h", wf("h0", "h0"), wf("h1", "h1"), wf("h2", "h2"))),
	}
	out := runPlanner(t, spec, store, subs).out
	wantAdmittedAt(t, out, "h", 3, 10)
	if out.Stats.GangHolds == 0 {
		t.Fatal("gang h never held")
	}
}

// TestHoldRetriesWhenEarlierGPUAdmitsMember pins the prefix rule: a
// changed GPU left of an earlier member's winner reruns the attempt
// when it admits that member, even though it cannot take the member
// that failed. Here h0 moves from n1 to the freed n0, which leaves n1
// to h1; h1 never fits n0's 40 GB.
func TestHoldRetriesWhenEarlierGPUAdmitsMember(t *testing.T) {
	store := loadStore(t, map[string][3]float64{
		"a": {10, 80, 1000}, "h0": {100, 30, 1000}, "h1": {100, 75, 50000},
	})
	spec := Spec{
		Nodes:   []NodeSpec{mpsNode("n0", "A100-SXM4-40GB"), mpsNode("n1", "A100X")},
		Tenants: []TenantSpec{{Name: "a"}, {Name: "b"}},
	}
	subs := []Submission{
		sub(0, "a", 0, workflow.Single(wf("a", "a"))),
		sub(1, "b", 0, gang("h", wf("h0", "h0"), wf("h1", "h1"))),
	}
	out := runPlanner(t, spec, store, subs).out
	wantAdmittedAt(t, out, "h", 2, 10)
	if out.Stats.GangHolds == 0 {
		t.Fatal("gang h never held")
	}
}

// TestHoldRetriesWhenSiblingEndsVictimability pins the gang-completion
// stamp: when v1 completes, gang v stops being victimable, and that
// changes the what-if on n0/0, whose residents did not change, from no
// fit to fit. The stamp marks n0/0 changed, so the held h reruns and
// evicts l there.
//
// The flip needs a non-monotone fold: v0's NaN SM load makes the sum
// over p, v0 and h admit, while p and h alone do not. Profiles with
// NaN are rejected at the input boundary, so the test writes the load
// into the planned member directly; with finite non-negative loads a
// gang losing victimability can only turn a fit into a no-fit, and
// the stamp keeps the rule exact without relying on that.
func TestHoldRetriesWhenSiblingEndsVictimability(t *testing.T) {
	store := loadStore(t, map[string][3]float64{
		"p": {1000, 90, 30000}, "v0": {1000, 0, 1000}, "v1": {10, 5, 60000},
		"l": {1000, 5, 1000}, "q": {1000, 90, 1000}, "h": {100, 20, 1000},
	})
	spec := Spec{
		Nodes:      []NodeSpec{{Name: "n0", Device: a100x(), GPUs: 2, Mode: ModeMPS, ClientCap: 3}},
		Tenants:    []TenantSpec{{Name: "a"}, {Name: "b"}},
		Preemption: true,
	}
	subs := []Submission{
		sub(0, "a", 2, workflow.Single(wf("p", "p"))),
		sub(0, "a", 0, gang("v", wf("v0", "v0"), wf("v1", "v1"))),
		sub(0, "a", 0, workflow.Single(wf("l", "l"))),
		sub(0, "a", 2, workflow.Single(wf("q", "q"))),
		sub(1, "b", 1, workflow.Single(wf("h", "h"))),
	}
	p, err := NewPlanner(spec, store)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.newPlanner(subs)
	if err != nil {
		t.Fatal(err)
	}
	st.jobs[1].members[0].load.SMPct = math.NaN()
	st.run()
	out := st.out
	wantAdmittedAt(t, out, "h", 1, 10)
	if len(out.Evictions) != 1 || out.Evictions[0].Gang != "l" {
		t.Fatalf("evictions = %+v, want l alone", out.Evictions)
	}
	if out.Stats.GangHolds == 0 {
		t.Fatal("gang h never held")
	}
}

// TestShadowLeavesNoTrace plans the fleet golden stream with the shadow
// check off and on: the outcomes, work counters included, are
// identical, so the shadow's retries change nothing they could hide.
// The stream skips most of its retries.
func TestShadowLeavesNoTrace(t *testing.T) {
	subs, mk := goldenStream(t, 3000, 0.15, 51)
	plan := func(on bool) (*Outcome, []byte) {
		shadowSkips = on
		defer func() { shadowSkips = true }()
		out, err := mk(goldenSpec(FairShare, true)).Plan(subs)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		return out, data
	}
	off, offJSON := plan(false)
	on, onJSON := plan(true)
	if string(offJSON) != string(onJSON) || off.Stats != on.Stats {
		t.Fatalf("shadow check changed the plan: stats %+v without, %+v with", off.Stats, on.Stats)
	}
	if off.Stats.HoldSkips*2 < off.Stats.GangHolds {
		t.Fatalf("%d of %d holds skipped their retry, want most", off.Stats.HoldSkips, off.Stats.GangHolds)
	}
}
