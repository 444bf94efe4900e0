package cluster

import (
	"math"
	"testing"

	"gpushare/internal/core"
)

// FuzzGangAdmission drives randomized multi-tenant streams through the
// planner and checks the structural invariants the unit tests pin on
// hand-built scenarios:
//
//   - conservation: every submission either completes or is failed
//   - all-or-nothing: a gang's dispatch count is members x placements
//     and its eviction count is members x preemptions — no partial
//     placement or partial eviction can satisfy both
//   - sane accounting: no negative or NaN waits/makespans
//   - drained: once the loop ends, the admission pool holds no resident
//
// The planner must also never panic or wedge, whatever the shape of the
// cluster or the stream.
func FuzzGangAdmission(f *testing.F) {
	f.Add(uint64(1), uint8(2), uint8(3), uint8(0), true, uint8(40))
	f.Add(uint64(7), uint8(1), uint8(4), uint8(1), false, uint8(25))
	f.Add(uint64(9), uint8(3), uint8(2), uint8(2), true, uint8(60))
	f.Fuzz(func(t *testing.T, seed uint64, gpus, gangSize, mode uint8, preempt bool, count uint8) {
		device := a100x()
		nGPUs := int(gpus)%4 + 1
		nJobs := int(count)%96 + 4
		spec := Spec{
			Tenants: []TenantSpec{
				{Name: "t0", Weight: 1},
				{Name: "t1", Weight: int(seed % 4)},
			},
			Queue:      Discipline(int(seed) % 2),
			Preemption: preempt,
		}
		switch mode % 3 {
		case 0:
			spec.Nodes = []NodeSpec{{Name: "mps", Device: device, GPUs: nGPUs, Mode: ModeMPS, ClientCap: 4}}
		case 1:
			spec.Nodes = []NodeSpec{{Name: "mig", Device: device, GPUs: nGPUs, Mode: ModeMIG, MIGInstances: 4}}
		default:
			spec.Nodes = []NodeSpec{
				{Name: "mps", Device: device, GPUs: nGPUs, Mode: ModeMPS, ClientCap: 3},
				{Name: "ts", Device: device, GPUs: 1, Mode: ModeTimeSlice, TimeSliceCap: 2},
			}
		}
		subs, store, err := GenerateStream(device, StreamSpec{
			Fleet:          core.FleetSpec{Workflows: nJobs, TargetGPUs: nGPUs, Seed: seed},
			Tenants:        []string{"t0", "t1"},
			PriorityLevels: int(seed%3) + 1,
			GangFraction:   float64(gangSize%4) * 0.15,
			GangSize:       int(gangSize)%5 + 2,
			Seed:           seed ^ 0x9e3779b97f4a7c15,
		})
		if err != nil {
			t.Fatal(err)
		}
		// Plan's own steps, so the drained planner stays inspectable.
		st := runPlanner(t, spec, store, subs)
		out := st.out
		if n := st.pool.Total(); n != 0 {
			t.Fatalf("admission pool holds %d residents after the plan drained", n)
		}

		members := map[string]int{}
		for i := range subs {
			members[subs[i].Gang.Name] = len(subs[i].Gang.Members)
		}
		dispatched := map[string]int{}
		instants := map[string]map[string]int{}
		for _, d := range out.Dispatches {
			dispatched[d.Gang]++
			if instants[d.Gang] == nil {
				instants[d.Gang] = map[string]int{}
			}
			instants[d.Gang][d.At.String()]++
		}
		evicted := map[string]int{}
		for _, e := range out.Evictions {
			evicted[e.Gang]++
		}

		if got, want := len(out.Jobs)+len(out.Failed), len(subs); got != want {
			t.Fatalf("conservation: jobs %d + failed %d != submissions %d",
				len(out.Jobs), len(out.Failed), want)
		}
		for _, j := range out.Jobs {
			m := members[j.Gang]
			if dispatched[j.Gang] != m*(j.Preemptions+1) {
				t.Fatalf("gang %s: %d dispatches, want %d x %d placements",
					j.Gang, dispatched[j.Gang], m, j.Preemptions+1)
			}
			if evicted[j.Gang] != m*j.Preemptions {
				t.Fatalf("gang %s: %d evictions, want %d x %d preemptions",
					j.Gang, evicted[j.Gang], m, j.Preemptions)
			}
			// Per placement instant, the whole gang moves together.
			for at, n := range instants[j.Gang] {
				if n%m != 0 {
					t.Fatalf("gang %s: %d members dispatched at %s, not a multiple of %d",
						j.Gang, n, at, m)
				}
			}
			if j.WaitedS < 0 || j.MakespanS < 0 ||
				math.IsNaN(j.WaitedS) || math.IsNaN(j.MakespanS) {
				t.Fatalf("gang %s: invalid accounting %+v", j.Gang, j)
			}
		}
		for _, fj := range out.Failed {
			if dispatched[fj.Gang] != evicted[fj.Gang] {
				t.Fatalf("failed gang %s: %d dispatches vs %d evictions — members left resident",
					fj.Gang, dispatched[fj.Gang], evicted[fj.Gang])
			}
		}
	})
}
