package cluster

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
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
	if st.pool.Len(g) >= node.MaxResidents {
		return interference.MaskClientCap
	}
	switch node.spec.Mode {
	case ModeMIG:
		if m.load.MemMiB <= node.spec.Device.MemoryMiB/int64(node.MaxResidents) {
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
// random members, that findFit's class queries name the GPU the serial
// per-mode walk names, and that on every GPU z directAdmits agrees with
// the walk's verdict. The hold re-checks rest on that agreement
// (DESIGN.md §13, "Change-driven rounds").
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
			for k := rng.Intn(st.gpus[g].node.MaxResidents + 1); k > 0; k-- {
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
				walk := refProbe(st, z, m) == 0
				if direct := st.directAdmits(j, z, 0); direct != walk {
					t.Fatalf("state %d, %s GPU %d, member %+v: directAdmits %v, serial walk %v",
						state, st.gpus[z].node.spec.Name, z, m.load, direct, walk)
				}
			}
		}
	}
	if misses == 0 || len(wins) != len(spec.Nodes) {
		t.Fatalf("winners per node %v and %d misses: want every node to win and some queries to miss", wins, misses)
	}
}

// refNodeFit is the per-node fit scan the class walk replaced: for each
// node in spec order, a first-fit over the node's GPU range that starts
// at the lowest index node covering the range, descends where the
// bound over every GPU under a node (whatever its class) passes the
// node's query, and confirms each leaf it reaches with Admit; a member
// larger than a MIG node's instance skips the node. It returns the
// winner and the GPUs it confirmed. The bounds are built afresh from
// the pool's residents, left folds in resident order as the aggregate
// keeps them.
func refNodeFit(st *planner, m *member) (winner int, probes int64) {
	type bound struct {
		sm, bw float64
		over   int64
		n      int
	}
	gpus := len(st.gpus)
	leaves := 1
	for leaves < gpus {
		leaves <<= 1
	}
	tree := make([]bound, 2*leaves)
	for i := range tree {
		tree[i] = bound{math.Inf(1), math.Inf(1), math.MaxInt64, math.MaxInt}
	}
	for g := range gpus {
		b := bound{over: -st.gpus[g].node.spec.Device.MemoryMiB, n: st.pool.Len(g)}
		for i := range b.n {
			l := st.pool.Load(g, i)
			b.sm, b.bw, b.over = b.sm+l.SMPct, b.bw+l.BWPct, b.over+l.MemMiB
		}
		tree[leaves+g] = b
	}
	for i := leaves - 1; i > 0; i-- {
		a, b := tree[2*i], tree[2*i+1]
		tree[i] = bound{min(a.sm, b.sm), min(a.bw, b.bw), min(a.over, b.over), min(a.n, b.n)}
	}
	first := 0
	for n := range st.nodes {
		node := &st.nodes[n]
		lo, hi := first, first+node.spec.GPUs
		first = hi
		if m.load.MemMiB > node.MemMiB {
			continue
		}
		l := node.Load(m.load)
		limSM, limBW, limOver := math.Inf(1), math.Inf(1), int64(math.MaxInt64)
		if node.Rules&interference.MaskCompute != 0 {
			limSM = 100
		}
		if node.Rules&interference.MaskBandwidth != 0 {
			limBW = 100
		}
		if node.Rules&interference.MaskCapacity != 0 {
			limOver = 0
		}
		h := bits.Len(uint((leaves + lo) ^ (leaves + hi - 1)))
		i, span := (leaves+lo)>>h, 1<<h
		for {
			if first := i*span - leaves; first+span > lo {
				if i >= leaves {
					if st.pool.Len(first) < node.MaxResidents {
						probes++
						if st.pool.AdmitExcluding(first, l, nil)&node.Rules == 0 {
							return first, probes
						}
					}
				} else if b := tree[i]; b.n < node.MaxResidents && !(b.sm+l.SMPct > limSM) &&
					!(b.bw+l.BWPct > limBW) && !(b.over+l.MemMiB > limOver) {
					i, span = 2*i, span>>1
					continue
				}
			}
			for i&1 == 1 {
				i, span = i>>1, span<<1
			}
			if i == 0 {
				break
			}
			i++
			if i*span-leaves >= hi {
				break
			}
		}
	}
	return -1, probes
}

// FuzzFindFit builds clusters of random shape, fills them with random
// residents, and checks findFit's one class walk against refNodeFit,
// the per-node loop it replaced, for random members: both name the same
// GPU, the walk probes no more GPUs than the loop, and exactly as many
// when every node is an aligned power-of-two block of at least two
// GPUs. Each node takes 2 bytes of shape: its GPU count (1 to 11, so
// nodes straddle index subtrees; 2, 4 or 8 in aligned clusters, whose
// nodes are laid out largest first) and its mode with its caps: MPS
// uncapped or under an active-thread cap, MIG with 1 to 7 instances, or
// time-slicing. Nodes that resolve alike share a GPU class.
func FuzzFindFit(f *testing.F) {
	f.Add(uint64(1), []byte{2, 0, 1, 1, 1, 2, 1, 3})
	f.Add(uint64(2), []byte{8, 0, 4, 2, 4, 3, 2, 1})
	f.Add(uint64(3), []byte{3, 5, 5, 9, 7, 0x32, 11, 4, 1, 0x40})
	f.Add(uint64(4), []byte{1, 0, 1, 0, 1, 1, 1, 0, 6, 0x17})
	f.Fuzz(func(t *testing.T, seed uint64, shape []byte) {
		device := a100x()
		aligned := seed&1 == 1
		spec := Spec{Tenants: []TenantSpec{{Name: "a"}}}
		for k := 0; k+1 < len(shape) && len(spec.Nodes) < 8; k += 2 {
			size, mode := int(shape[k])%11+1, shape[k+1]
			if aligned {
				size = 2 << (shape[k] % 3)
			}
			ns := NodeSpec{Name: fmt.Sprintf("n%d", len(spec.Nodes)), Device: device, GPUs: size}
			switch mode % 4 {
			case 0:
				ns.Mode, ns.ClientCap = ModeMPS, int(mode>>2)%6+1
			case 1:
				ns.Mode, ns.ClientCap, ns.MPSActiveThreadPct = ModeMPS, int(mode>>2)%6+1, float64(20+int(mode>>4)%8*10)
			case 2:
				ns.Mode, ns.MIGInstances = ModeMIG, int(mode>>2)%7+1
			default:
				ns.Mode, ns.TimeSliceCap = ModeTimeSlice, int(mode>>2)%4+1
			}
			spec.Nodes = append(spec.Nodes, ns)
		}
		if len(spec.Nodes) == 0 {
			return
		}
		if aligned {
			slices.SortStableFunc(spec.Nodes, func(a, b NodeSpec) int { return b.GPUs - a.GPUs })
		}
		p, err := NewPlanner(spec, testStore(t))
		if err != nil {
			t.Fatal(err)
		}
		st, err := p.newPlanner([]Submission{sub(0, "a", 0, workflow.Single(wf("w", "small")))})
		if err != nil {
			t.Fatal(err)
		}
		j, m := st.jobs[0], &st.jobs[0].members[0]
		rng := xrand.New(seed)
		load := func(sm, bw float64, mem int64) interference.Load {
			l := interference.Load{SMPct: rng.Float64() * sm, BWPct: rng.Float64() * bw, MemMiB: int64(rng.Intn(int(mem) + 1))}
			if rng.Intn(40) == 0 {
				l.SMPct = math.NaN()
			}
			return l
		}
		for g := range st.gpus {
			for k := rng.Intn(st.gpus[g].node.MaxResidents + 1); k > 0; k-- {
				r := st.acquireResident()
				r.job, r.gpu = j, g
				st.pool.Add(g, load(60, 60, device.MemoryMiB/4), r)
			}
		}
		var nodes []string
		for _, n := range st.nodes {
			nodes = append(nodes, fmt.Sprintf("%d GPUs %v cap %d smCap %g memMiB %d", n.spec.GPUs, n.spec.Mode, n.MaxResidents, n.SMCap, n.MemMiB))
		}
		for q := 0; q < 8; q++ {
			m.load = load(100, 100, device.MemoryMiB)
			want, wantProbes := refNodeFit(st, m)
			before := st.stats.Probes
			got := st.findFit(j, m, simtime.Zero)
			probes := st.stats.Probes - before
			if got != want {
				t.Fatalf("nodes %q, member %+v: findFit = %d, per-node loop %d", nodes, m.load, got, want)
			}
			if probes > wantProbes || aligned && probes != wantProbes {
				t.Fatalf("nodes %q (aligned %v), member %+v: findFit probed %d GPUs, per-node loop %d", nodes, aligned, m.load, probes, wantProbes)
			}
		}
	})
}

// TestManyClassesPlan pins planning for a spec whose nodes all resolve
// differently: 300 MPS nodes of 1 to 3 GPUs, each under its own
// active-thread cap, make 300 GPU classes. The plan succeeds, and
// findFit names the GPU refNodeFit names, with no more probes.
func TestManyClassesPlan(t *testing.T) {
	device := a100x()
	spec := Spec{Tenants: []TenantSpec{{Name: "a"}}}
	for i := range 300 {
		spec.Nodes = append(spec.Nodes, NodeSpec{
			Name: fmt.Sprintf("n%d", i), Device: device, GPUs: i%3 + 1,
			Mode: ModeMPS, ClientCap: 4, MPSActiveThreadPct: 10 + float64(i)/4,
		})
	}
	p, err := NewPlanner(spec, testStore(t))
	if err != nil {
		t.Fatal(err)
	}
	subs := []Submission{sub(0, "a", 0, workflow.Single(wf("w", "small")))}
	if _, err := p.Plan(subs); err != nil {
		t.Fatalf("plan over 300 node classes: %v", err)
	}
	st, err := p.newPlanner(subs)
	if err != nil {
		t.Fatal(err)
	}
	j, m := st.jobs[0], &st.jobs[0].members[0]
	rng := xrand.New(5)
	for g := range st.gpus {
		for k := rng.Intn(4); k > 0; k-- {
			r := st.acquireResident()
			r.job, r.gpu = j, g
			st.pool.Add(g, interference.Load{SMPct: rng.Float64() * 50, BWPct: rng.Float64() * 50, MemMiB: 1024}, r)
		}
	}
	for q := 0; q < 16; q++ {
		m.load = interference.Load{SMPct: rng.Float64() * 100, BWPct: rng.Float64() * 100, MemMiB: 2048}
		want, wantProbes := refNodeFit(st, m)
		before := st.stats.Probes
		if got := st.findFit(j, m, simtime.Zero); got != want || st.stats.Probes-before > wantProbes {
			t.Fatalf("member %+v: findFit = %d with %d probes, per-node loop %d with %d", m.load, got, st.stats.Probes-before, want, wantProbes)
		}
	}
}
