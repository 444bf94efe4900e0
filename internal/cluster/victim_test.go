package cluster

import (
	"math"
	"testing"

	"gpushare/internal/obs"
	"gpushare/internal/simtime"
	"gpushare/internal/workflow"
)

// cappedNode is a one-node MPS cluster of gpus A100X GPUs that hold one
// resident each, with preemption on.
func cappedNode(gpus int) Spec {
	return Spec{
		Nodes:      []NodeSpec{{Name: "n0", Device: a100x(), GPUs: gpus, Mode: ModeMPS, ClientCap: 1}},
		Tenants:    []TenantSpec{{Name: "a"}, {Name: "b"}},
		Preemption: true,
	}
}

// commitByHand places each job's members first-fit and commits it, so
// a test can lay out residents without running the event loop.
func commitByHand(t *testing.T, st *planner, jobs ...*job) {
	t.Helper()
	for _, j := range jobs {
		for i := range j.members {
			g := st.findFit(j, &j.members[i], simtime.Zero)
			if g < 0 {
				t.Fatalf("setup job %s member %d did not fit", j.sub.Gang.Name, i)
			}
			st.placeMember(j, i, g, simtime.Zero)
		}
		st.commit(j, simtime.Zero)
	}
}

// checkKeys fails unless every GPU's victim key equals a fresh fold of
// its residents' priorities.
func checkKeys(t *testing.T, st *planner, when string) {
	t.Helper()
	for g := range st.gpus {
		want := math.MaxInt
		for _, r := range st.pool.Residents(g) {
			want = min(want, r.job.priority)
		}
		if got := st.pool.Key(g); got != want {
			t.Fatalf("%s: GPU %d key %d, its residents' lowest priority %d", when, g, got, want)
		}
	}
}

// TestVictimKeySkipsEqualPriority pins the skip's boundary: a GPU whose
// lowest resident priority equals the preemptor's holds no victim, so
// the eviction sweep runs no what-if there, and a what-if asked for it
// directly says false without a probe. The sweep's one what-if is on
// the GPU holding a lower priority.
func TestVictimKeySkipsEqualPriority(t *testing.T) {
	store := loadStore(t, map[string][3]float64{"x": {1000, 20, 1000}})
	p, err := NewPlanner(cappedNode(2), store)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.newPlanner([]Submission{
		sub(0, "a", 1, workflow.Single(wf("eq", "x"))),
		sub(0, "a", 0, workflow.Single(wf("low", "x"))),
		sub(0, "b", 1, workflow.Single(wf("pre", "x"))),
	})
	if err != nil {
		t.Fatal(err)
	}
	commitByHand(t, st, st.jobs[0], st.jobs[1])
	pre := st.jobs[2]
	m := &pre.members[0]
	probes := st.stats.Probes
	if g := st.findEvictionFit(pre, m, simtime.Zero); g != 1 {
		t.Fatalf("eviction sweep chose GPU %d, want 1 (the lower-priority resident)", g)
	}
	if st.stats.WhatIfs != 1 || st.stats.Probes != probes+1 {
		t.Fatalf("sweep ran %d what-ifs and %d probes, want 1 and 1: the equal-priority GPU is skipped",
			st.stats.WhatIfs, st.stats.Probes-probes)
	}
	probes = st.stats.Probes
	if st.canFitAfterEviction(0, pre, m) || st.stats.Probes != probes {
		t.Fatalf("what-if on the equal-priority GPU probed %d times, want no fit and no probe", st.stats.Probes-probes)
	}
}

// TestVictimKeyKeepsPartlyCompletedGang pins why the key folds every
// resident, not only victimable ones: v1's completion leaves v0 alone
// on GPU 0, which no gang may evict, but GPU 0's key still reads v0's
// priority. The preemptor's sweep runs its what-if there, which says
// fit=false, and skips GPU 1, whose resident outranks it; the
// preemptor waits for v0 to complete.
func TestVictimKeyKeepsPartlyCompletedGang(t *testing.T) {
	store := loadStore(t, map[string][3]float64{
		"v0": {1000, 20, 1000}, "v1": {10, 20, 1000}, "f": {1000, 20, 1000}, "h": {100, 20, 1000},
	})
	prev := obs.Active()
	defer obs.SetActive(prev)
	hub := obs.NewHub(nil)
	obs.SetActive(hub)
	st := runPlanner(t, cappedNode(2), store, []Submission{
		sub(0, "a", 0, gang("v", wf("v0", "v0"), wf("v1", "v1"))),
		sub(10, "a", 5, workflow.Single(wf("f", "f"))),
		sub(20, "b", 1, workflow.Single(wf("h", "h"))),
	})
	var whatIfs []obs.FlightRecord
	for _, r := range hub.Flight.Snapshot().Records {
		if r.Kind == obs.FlightWhatIf {
			whatIfs = append(whatIfs, r)
		}
	}
	if len(whatIfs) != 1 || whatIfs[0].Workflow != "h" || whatIfs[0].GPU != 0 || whatIfs[0].Detail != "fit=false" {
		t.Fatalf("what-ifs = %+v, want h's one on GPU 0 saying fit=false", whatIfs)
	}
	if st.stats.WhatIfs != 1 || len(st.out.Evictions) != 0 {
		t.Fatalf("%d what-ifs, evictions %+v: want 1 and none", st.stats.WhatIfs, st.out.Evictions)
	}
	wantAdmittedAt(t, st.out, "h", 1, 1000)
}

// TestVictimKeysAfterRollback pins the keys through a rolled-back
// eviction: h0 evicts v on GPU 0, h1 then finds no GPU (w outranks h),
// and the rollback puts v back. Every key must equal a fresh fold of
// its GPU's residents before the attempt and after it.
func TestVictimKeysAfterRollback(t *testing.T) {
	store := loadStore(t, map[string][3]float64{"x": {1000, 20, 1000}})
	p, err := NewPlanner(cappedNode(2), store)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.newPlanner([]Submission{
		sub(0, "a", 0, workflow.Single(wf("v", "x"))),
		sub(0, "a", 2, workflow.Single(wf("w", "x"))),
		sub(0, "b", 1, gang("h", wf("h0", "x"), wf("h1", "x"))),
	})
	if err != nil {
		t.Fatal(err)
	}
	commitByHand(t, st, st.jobs[0], st.jobs[1])
	checkKeys(t, st, "before the attempt")
	h := st.jobs[2]
	if st.tryPlaceGang(h, simtime.Zero) {
		t.Fatal("gang h placed, want its second member to find no GPU")
	}
	if !h.hold.valid || h.hold.failed != 1 || len(h.hold.placed) != 1 || !h.hold.placed[0].evicted {
		t.Fatalf("hold = %+v, want h1 failed after h0 placed by eviction", h.hold)
	}
	if st.pool.Len(0) != 1 || st.pool.Residents(0)[0].job != st.jobs[0] {
		t.Fatal("rollback did not put v back on GPU 0")
	}
	checkKeys(t, st, "after the rollback")
}
