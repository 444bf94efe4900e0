package cluster

import (
	"testing"

	"gpushare/internal/interference"
	"gpushare/internal/simtime"
	"gpushare/internal/workflow"
	"gpushare/internal/xrand"
)

// refProbe is the per-GPU, per-mode admission check the cluster ran
// before node modes became data: it reads the node's mode from its
// spec, resolves the MIG instance size and the MPS thread cap itself,
// and judges pool GPU g for member m.
func refProbe(st *planner, g int, m *member) interference.RuleMask {
	node := st.gpus[g].node
	if st.pool.Len(g) >= node.cap {
		return interference.MaskClientCap
	}
	switch node.spec.Mode {
	case ModeMIG:
		if m.load.MemMiB <= node.spec.Device.MemoryMiB/int64(node.cap) {
			return 0
		}
		return interference.MaskCapacity
	case ModeTimeSlice:
		return st.pool.AdmitExcluding(g, m.load, nil) & interference.MaskCapacity
	default: // ModeMPS
		l := m.load
		if c := node.spec.MPSActiveThreadPct; c > 0 && c < 100 && l.SMPct > c {
			l.SMPct = c
		}
		return st.pool.AdmitExcluding(g, l, nil)
	}
}

// refFit is the per-GPU walk findFit replaced: refProbe on every GPU,
// nodes in spec order, GPUs in index order.
func refFit(st *planner, m *member) int {
	for g := range st.gpus {
		if refProbe(st, g, m) == 0 {
			return g
		}
	}
	return -1
}

// TestFindFitMatchesSerialWalk fills MPS nodes (capped and uncapped),
// MIG nodes and time-slice nodes with random residents and checks, for
// random members, that findFit's per-node index queries name the GPU
// the serial per-mode walk names, and that on every GPU z directAdmits
// agrees with the walk's verdict and with findFit's own query narrowed
// to [z, z+1). The hold re-checks rest on that agreement (DESIGN.md
// §13, "Change-driven rounds").
func TestFindFitMatchesSerialWalk(t *testing.T) {
	store := testStore(t)
	device := a100x()
	spec := Spec{
		Nodes: []NodeSpec{
			{Name: "mig", Device: device, GPUs: 2, Mode: ModeMIG, MIGInstances: 3},
			{Name: "mps-capped", Device: device, GPUs: 3, Mode: ModeMPS, ClientCap: 4, MPSActiveThreadPct: 35},
			{Name: "ts", Device: device, GPUs: 2, Mode: ModeTimeSlice, TimeSliceCap: 3},
			{Name: "mps", Device: device, GPUs: 5, Mode: ModeMPS, ClientCap: 5},
		},
		Tenants: []TenantSpec{{Name: "a"}},
	}
	p, err := NewPlanner(spec, store)
	if err != nil {
		t.Fatal(err)
	}
	subs := []Submission{sub(0, "a", 0, workflow.Single(wf("w", "small")))}
	rng := xrand.New(11)
	load := func(smMax, bwMax float64, memMax int64) interference.Load {
		return interference.Load{
			SMPct:  rng.Float64() * smMax,
			BWPct:  rng.Float64() * bwMax,
			MemMiB: int64(rng.Intn(int(memMax) + 1)),
		}
	}
	wins := map[string]int{}
	misses := 0
	for state := 0; state < 200; state++ {
		st, err := p.newPlanner(subs)
		if err != nil {
			t.Fatal(err)
		}
		j := st.jobs[0]
		for g := range st.gpus {
			for k := rng.Intn(st.gpus[g].node.cap + 1); k > 0; k-- {
				r := st.acquireResident()
				r.job, r.gpu = j, g
				st.pool.Add(g, load(50, 50, device.MemoryMiB/4), r)
			}
		}
		for q := 0; q < 8; q++ {
			m := &j.members[0]
			m.load = load(100, 100, device.MemoryMiB)
			want := refFit(st, m)
			if got := st.findFit(j, m, simtime.Zero); got != want {
				t.Fatalf("state %d query %d: findFit(%+v) = %d, serial walk %d", state, q, m.load, got, want)
			}
			if want >= 0 {
				wins[st.gpus[want].node.spec.Name]++
			} else {
				misses++
			}
			for z := range st.gpus {
				node := st.gpus[z].node
				walk := refProbe(st, z, m) == 0
				g, _, _ := st.pool.FirstFit(z, z+1, node.load(m), node.cap, node.rules, nil)
				query := m.load.MemMiB <= node.memMiB && g == z
				if direct := st.directAdmits(j, z, 0); direct != walk || direct != query {
					t.Fatalf("state %d, %s GPU %d, member %+v: directAdmits %v, serial walk %v, narrowed query %v",
						state, node.spec.Name, z, m.load, direct, walk, query)
				}
			}
		}
	}
	if misses == 0 || len(wins) != len(spec.Nodes) {
		t.Fatalf("winners per node %v and %d misses: want every node to win and some queries to miss", wins, misses)
	}
}
