package admission

import (
	"math"
	"math/bits"
	"reflect"
	"slices"
	"testing"

	"gpushare/internal/gpu"
	"gpushare/internal/interference"
	"gpushare/internal/obs"
	"gpushare/internal/simtime"
)

// TestPoolAllocs pins the pool's mutations, probes, first-fit queries
// and completion timeline at zero allocations once its lists, snapshot,
// index, heap and payload freelist have grown: the runtime half of their
// //repro:hotpath annotations.
func TestPoolAllocs(t *testing.T) {
	var p Pool[res]
	all := interference.MaskCompute | interference.MaskBandwidth | interference.MaskCapacity
	p.AddGPUs(gpu.MustLookup("A100X"), 1, Class{MaxResidents: 8, Rules: all, SMCap: math.Inf(1), MemMiB: math.MaxInt64})
	p.AddGPUs(gpu.MustLookup("A100X"), 1, Class{MaxResidents: 8, Rules: all, SMCap: 50, MemMiB: 8192})
	p.KeyBy(fuzzKey)
	l := interference.Load{SMPct: 7, BWPct: 5, MemMiB: 4096}
	// GPU 0 is full at its cap, and big is over GPU 1's memory bound.
	big := interference.Load{SMPct: 7, BWPct: 5, MemMiB: 10000}
	for i := 0; i < 8; i++ {
		p.Add(0, l, res(i))
	}
	var snap Snapshot[res]
	var tally obs.ScanTally
	skip := []bool{true, false, true}
	cycle := func() {
		p.Save(0, &snap)
		p.Add(0, l, 99)
		p.RemoveAt(0, 2)
		_ = p.AdmitExcluding(0, l, nil).Interferes()
		_ = p.AdmitExcluding(0, l, skip).Interferes()
		_, _, _ = p.FirstFit(l, nil)
		_, _, _ = p.FirstFit(big, &tally)
		_ = p.NextChanged(p.Clock()-1, 0)
		_ = p.NextBelow(2, 1)
		p.Touch(1)
		p.Restore(0, &snap)
		p.Add(1, l, 100)
		p.Cancel(p.Schedule(1, 5, 100))
		p.Schedule(1, 5, 100)
		_, _, _ = p.Retire(5)
	}
	cycle() // the first FirstFit and NextChanged build their indexes
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("pool save/add/remove/probe/first-fit/next-changed/next-below/restore/schedule/cancel/retire allocated %.1f objects per cycle, want 0", allocs)
	}
}

// TestFirstFitOnlyPoolBuildsNoSummaries pins what core's pool pays for
// the summaries it never queries: a pool that only mutates and runs
// FirstFit allocates neither the changed-GPU index nor the victim key.
func TestFirstFitOnlyPoolBuildsNoSummaries(t *testing.T) {
	var p Pool[res]
	all := interference.MaskCompute | interference.MaskBandwidth | interference.MaskCapacity
	class := Class{MaxResidents: 4, Rules: all, SMCap: math.Inf(1), MemMiB: math.MaxInt64}
	p.AddGPUs(gpu.MustLookup("A100X"), 5, class)
	l := interference.Load{SMPct: 7, BWPct: 5, MemMiB: 4096}
	var snap Snapshot[res]
	for i := 0; i < 20; i++ {
		g := i % 5
		p.Save(g, &snap)
		p.Add(g, l, res(i))
		_, _, _ = p.FirstFit(l, nil)
		p.Touch(g)
		if i%3 == 0 {
			p.Restore(g, &snap)
		}
	}
	p.AddGPUs(gpu.MustLookup("A100X"), 2, class)
	_, _, _ = p.FirstFit(l, nil)
	if p.ents == nil || p.gens != nil || p.keys != nil {
		t.Fatalf("first-fit-only pool: index built %v, changed-GPU index %v, keys %v, want the index alone", p.ents != nil, p.gens, p.keys)
	}
}

// TestFirstFitWalksClasses pins the one walk on hand-built pools: over
// one class it starts at the root and descends to the first admitting
// GPU; a subtree is stepped over only when every class's bound fails
// there; a class the load is over the memory bound of rejects without a
// probe; a GPU reached because another class passed its parent, while
// its own class fails there, rejects without a probe too; and a class's
// SM cap clamps the load it judges.
func TestFirstFitWalksClasses(t *testing.T) {
	device := gpu.MustLookup("A100X")
	heavy := interference.Load{SMPct: 90, BWPct: 10, MemMiB: 1024}
	l := interference.Load{SMPct: 20, BWPct: 10, MemMiB: 1024}
	all := interference.MaskCompute | interference.MaskBandwidth | interference.MaskCapacity
	fits := Class{MaxResidents: 4, Rules: all, SMCap: math.Inf(1), MemMiB: 40000}
	small := Class{MaxResidents: 4, Rules: all, SMCap: math.Inf(1), MemMiB: 512}
	capped := Class{MaxResidents: 4, Rules: all, SMCap: 50, MemMiB: 40000}

	var wide Pool[res]
	wide.AddGPUs(device, 512, fits)
	for g := 0; g < 8; g++ {
		wide.Add(g, heavy, res(g))
	}
	// Two-class pools: GPUs 0 and 1 are heavy, GPU 2 has a small memory
	// bound, GPU 3 is idle; then a heavy GPU beside an idle GPU of
	// another class; then two GPUs at 45% SM, the second capped.
	var mixed Pool[res]
	mixed.AddGPUs(device, 2, fits)
	mixed.AddGPUs(device, 1, small)
	mixed.AddGPUs(device, 1, fits)
	mixed.Add(0, heavy, 0)
	mixed.Add(1, heavy, 1)
	var pair Pool[res]
	pair.AddGPUs(device, 1, fits)
	pair.AddGPUs(device, 1, capped)
	pair.Add(0, heavy, 0)
	var half Pool[res]
	half.AddGPUs(device, 1, fits)
	half.AddGPUs(device, 1, capped)
	half.Add(0, interference.Load{SMPct: 45, BWPct: 10, MemMiB: 1024}, 0)
	half.Add(1, interference.Load{SMPct: 45, BWPct: 10, MemMiB: 1024}, 1)

	for _, c := range []struct {
		name                         string
		p                            *Pool[res]
		l                            interference.Load
		want, wantVisits, wantProbes int
		wantRejected                 int32
	}{
		// The root and six left children down to the 8-GPU subtree the
		// heavy GPUs fill, which is stepped over, then its right sibling
		// and three nodes down to GPU 8, the one probe.
		{"one class", &wide, l, 8, 11, 1, 8},
		// Root, [0,2) stepped over, [2,4), GPU 2 over its memory bound,
		// GPU 3 admits.
		{"memory bound", &mixed, l, 3, 5, 1, 3},
		{"no class admits", &mixed, interference.Load{SMPct: 20, BWPct: 10, MemMiB: 50000}, -1, 1, 0, 4},
		// Root passes for GPU 1's class; GPU 0's class fails at the
		// root, its parent, so only GPU 1 is probed.
		{"parent fails its class", &pair, l, 1, 3, 1, 1},
		// 45 + 90 breaks GPU 0's compute rule; GPU 1 judges 45 + 50.
		{"SM cap", &half, heavy, 1, 3, 1, 1},
	} {
		var tally obs.ScanTally
		g, visits, probes := c.p.FirstFit(c.l, &tally)
		if g != c.want || visits != c.wantVisits || probes != c.wantProbes || tally.Rejected() != c.wantRejected {
			t.Errorf("%s: FirstFit = GPU %d, %d visits, %d probes, %d rejected; want %d, %d, %d, %d",
				c.name, g, visits, probes, tally.Rejected(), c.want, c.wantVisits, c.wantProbes, c.wantRejected)
		}
		if rec := tally.Summary(0, 0, int32(g)); int(rec.Clients) != visits {
			t.Errorf("%s: tally holds %d visits, want %d", c.name, rec.Clients, visits)
		}
	}
	if got := len(pair.classes); got != 2 {
		t.Errorf("pool of two classes added one GPU each holds %d classes", got)
	}
	if got := len(mixed.classes); got != 2 {
		t.Errorf("pool adding one class twice holds %d classes, want 2", got)
	}
}

// TestNextQueries pins both summary queries on a hand-built pool,
// GPUs without residents and a start past the last GPU included.
func TestNextQueries(t *testing.T) {
	var p Pool[res]
	p.AddGPUs(gpu.MustLookup("A100X"), 6, Class{})
	p.KeyBy(func(r res) int { return int(r) })
	l := interference.Load{SMPct: 1}
	c := p.Clock()
	p.Add(1, l, 5)
	p.Add(1, l, 3)
	p.Add(4, l, 3)
	p.Add(5, l, 9)
	for _, q := range []struct{ k, from, want int }{
		{4, 0, 1}, {4, 2, 4}, {4, 5, -1}, {3, 0, -1}, {10, 5, 5}, {10, 6, -1}, {math.MaxInt, 0, 1},
	} {
		if got := p.NextBelow(q.k, q.from); got != q.want {
			t.Errorf("NextBelow(%d, %d) = %d, want %d", q.k, q.from, got, q.want)
		}
	}
	if p.Key(0) != math.MaxInt || p.Key(1) != 3 {
		t.Errorf("keys %d %d, want MaxInt for an empty GPU and 3", p.Key(0), p.Key(1))
	}
	for _, q := range []struct {
		c          uint64
		from, want int
	}{
		{c, 0, 1}, {c, 2, 4}, {c + 2, 0, 4}, {p.Clock(), 0, -1}, {c, 6, -1},
	} {
		if got := p.NextChanged(q.c, q.from); got != q.want {
			t.Errorf("NextChanged(%d, %d) = %d, want %d", q.c, q.from, got, q.want)
		}
	}
}

// TestPoolGenerations pins the change clock: new GPUs start at
// generation 0, every mutation and Touch stamps only its GPU with a
// fresh clock value, Save is not a mutation, and Restore puts back the
// generation Save saw without advancing the clock.
func TestPoolGenerations(t *testing.T) {
	var p Pool[res]
	p.AddGPUs(gpu.MustLookup("A100X"), 3, Class{})
	p.AddGPUs(gpu.MustLookup("A100X"), 1, Class{})
	if p.GPUs() != 4 {
		t.Fatalf("pool holds %d GPUs, want 4", p.GPUs())
	}
	for g := 0; g < p.GPUs(); g++ {
		if p.Gen(g) != 0 || p.Clock() != 0 {
			t.Fatalf("new GPU %d: generation %d, clock %d, want 0 and 0", g, p.Gen(g), p.Clock())
		}
	}
	c := p.Clock()
	p.Add(1, interference.Load{SMPct: 10}, 1)
	if p.Gen(1) <= c || p.Gen(0) > c || p.Gen(2) > c {
		t.Fatalf("Add(1) stamped gens %d %d %d against clock %d", p.Gen(0), p.Gen(1), p.Gen(2), c)
	}
	var snap Snapshot[res]
	c = p.Clock()
	saved := p.Gen(1)
	p.Save(1, &snap)
	if p.Clock() != c {
		t.Fatal("Save advanced the clock")
	}
	p.RemoveAt(1, 0)
	p.Add(1, interference.Load{SMPct: 20}, 2)
	p.Restore(1, &snap)
	if p.Gen(1) != saved || p.Clock() != c+2 {
		t.Fatalf("RemoveAt+Add+Restore: gen %d clock %d, want the saved gen %d and clock %d", p.Gen(1), p.Clock(), saved, c+2)
	}
	if p.Total() != 1 || !reflect.DeepEqual(p.Residents(1), []res{1}) {
		t.Fatalf("restore left total %d residents %v, want 1 [1]", p.Total(), p.Residents(1))
	}
	c = p.Clock()
	digest := p.Digest(2)
	p.Touch(2)
	if p.Gen(2) != c+1 || p.Clock() != c+1 || p.Gen(1) != saved || p.Digest(2) != digest || p.Len(2) != 0 {
		t.Fatalf("Touch(2): gens %d %d clock %d, want GPU 2 alone stamped %d and unchanged", p.Gen(1), p.Gen(2), p.Clock(), c+1)
	}
}

// TestRestoreOutrunsInsideClock pins Restore's caveat: a Clock read
// between Save and Restore is later than the generation Restore puts
// back, so Gen no longer shows that the GPU differs from what that
// reader saw. Callers read Clock only with no GPU saved (the cluster
// planner's holds read it after the rollback).
func TestRestoreOutrunsInsideClock(t *testing.T) {
	var p Pool[res]
	p.AddGPUs(gpu.MustLookup("A100X"), 1, Class{})
	p.Add(0, interference.Load{SMPct: 10}, 1)
	var snap Snapshot[res]
	p.Save(0, &snap)
	p.Add(0, interference.Load{SMPct: 20}, 2)
	inside := p.Clock()
	p.Restore(0, &snap)
	if p.Len(0) == 2 {
		t.Fatal("Restore kept the resident added after Save")
	}
	if p.Gen(0) > inside {
		t.Fatalf("Restore stamped gen %d above the inside clock %d; update the caveat on Restore and holdState.clock", p.Gen(0), inside)
	}
	after := p.Clock()
	p.Add(0, interference.Load{SMPct: 30}, 3)
	if p.Gen(0) <= after {
		t.Fatalf("a change after the rollback has gen %d, not above the clock %d read after it", p.Gen(0), after)
	}
}

// res is the tests' resident: its own serial.
type res int

func (r res) Serial() uint64 { return uint64(r) }

// modelResident is the reference model's view of one resident.
type modelResident struct {
	load interference.Load
	id   int
}

// fuzzPct maps a byte to a utilization, special values included: the
// index must neither prune a GPU whose sum is NaN nor disagree with
// Admit when a load or a sum is infinite. Only a query draws -Inf
// (signed): a fold holding both infinities makes a NaN whose bits
// depend on the order the compiler gives an addition's operands, so
// the digest checks could not compare two folds of it.
func fuzzPct(b byte, scale float64, signed bool) float64 {
	switch b % 16 {
	case 0:
		return math.NaN()
	case 1:
		return math.Inf(1)
	case 2:
		if signed {
			return math.Inf(-1)
		}
	case 3:
		return 0
	case 4:
		return 100
	}
	return float64(b) * scale
}

// fuzzLoad draws a load from arg. Memory stays in the domain the
// dispatchers admit: from zero up to the device's capacity.
func fuzzLoad(arg byte, device gpu.DeviceSpec, signed bool) interference.Load {
	return interference.Load{
		SMPct:  fuzzPct(arg, 0.7, signed),
		BWPct:  fuzzPct(arg/16+arg*7, 1.3, signed),
		MemMiB: int64(arg) * device.MemoryMiB / 255,
	}
}

// fuzzKey is the fuzzed pools' victim key: a pure function of the
// resident that repeats, so GPUs share key values.
func fuzzKey(r res) int { return int(r) * 7 % 5 }

// FuzzPool drives random Add/RemoveAt/Save/Restore/AddGPUs/Touch and
// Schedule/Cancel/Retire sequences against a slice-of-structs model. A
// completion is scheduled for a resident without one; removing a
// resident, by RemoveAt or by a Restore that drops it, cancels its
// completion first, as the cluster's evictions do; Retire returns the
// model's earliest due completion, ties in schedule order, or nothing.
// After every step the pending completions map one to one onto the
// residents the model gave one (checkTimeline), and each
// GPU's residents and loads match the model, its digest equals a fresh
// Add fold of the model's loads (which pins the aggregate's member count
// too), the pool-wide count is the sum of the per-GPU counts, the
// mutated or touched GPU — and only it — gets a fresh generation, and a
// Restore gives back the exact digest, count and generation its Save
// saw without advancing the clock. FirstFit, over GPUs of up to four
// random classes (client caps, rule masks, SM caps and memory bounds)
// and for random loads (NaN and infinite SM and bandwidth demands
// included), names the GPU a serial judgement of every GPU under its
// class names, and its tally covers exactly the GPUs left of that GPU,
// once each; NextChanged and NextBelow, from random GPUs against random
// clock readings and keys, name the GPU a serial scan names; and the
// indexes' layout, bounds and links hold (checkIndex).
func FuzzPool(f *testing.F) {
	f.Add(uint8(2), uint32(0), []byte{0, 1, 10, 0, 0, 20, 2, 0, 0, 1, 0, 0, 3, 0, 0})
	f.Add(uint8(3), uint32(0x24), []byte{0, 2, 255, 0, 2, 7, 0, 1, 3, 2, 2, 0, 1, 2, 1, 3, 2, 0, 1, 0, 0})
	f.Add(uint8(6), uint32(0xe4e4), []byte{0, 0, 16, 0, 3, 17, 0, 5, 200, 4, 0, 0, 0, 6, 33, 1, 3, 0, 0, 2, 130, 3, 0, 0, 0, 4, 90})
	// Colliding ends on one GPU, a cancel, a retire before the earliest
	// end, retires at the collision, a removal of a scheduled resident.
	f.Add(uint8(2), uint32(0), []byte{0, 0, 10, 0, 0, 20, 0, 0, 30, 0, 1, 40, 6, 0, 3, 6, 0, 3, 6, 0, 11, 6, 1, 3, 7, 0, 1, 8, 0, 2, 8, 0, 3, 8, 0, 3, 2, 1, 0, 1, 1, 0, 3, 1, 0, 8, 0, 9})
	// Two classes interleaved over unaligned runs, new GPUs of class 3.
	f.Add(uint8(9), uint32(0x5a69), []byte{0, 0, 200, 0, 1, 7, 0, 3, 90, 0, 4, 255, 4, 0, 3, 0, 9, 40, 5, 2, 0, 0, 6, 128})
	f.Fuzz(func(t *testing.T, gpus uint8, classes uint32, ops []byte) {
		device := gpu.MustLookup("A100X")
		n := int(gpus)%11 + 1
		var p Pool[res]
		// The key is set before or after the first GPUs, so both of
		// AddGPUs's paths run. GPU g's class is one of four drawn from
		// gpus, picked by bits 2g and 2g+1 of classes.
		if gpus&1 == 0 {
			p.KeyBy(fuzzKey)
		}
		for g := 0; g < n; g++ {
			p.AddGPUs(device, 1, fuzzClass(byte(classes>>(2*g)&3), gpus))
		}
		if gpus&1 == 1 {
			p.KeyBy(fuzzKey)
		}
		model := make([][]modelResident, n)
		snaps := make([]Snapshot[res], n)
		saved := make([][]modelResident, n)
		savedDigest := make([]uint64, n)
		savedGen := make([]uint64, n)
		hasSave := make([]bool, n)
		nextID := 0
		var pending []pendingCompletion
		// cancel drops resident id's pending completion, if it has one.
		cancel := func(id int) {
			for i, c := range pending {
				if c.id == id {
					p.Cancel(c.ev)
					pending = slices.Delete(pending, i, i+1)
					return
				}
			}
		}

		for k := 0; k+2 < len(ops); k += 3 {
			op, g, arg := ops[k]%9, int(ops[k+1])%n, ops[k+2]
			clock := p.Clock()
			gens := make([]uint64, n)
			for i := range gens {
				gens[i] = p.Gen(i)
			}
			mutated := true
			switch op {
			case 0:
				l := fuzzLoad(arg, device, false)
				p.Add(g, l, res(nextID))
				model[g] = append(model[g], modelResident{load: l, id: nextID})
				nextID++
			case 1:
				if len(model[g]) == 0 {
					continue
				}
				i := int(arg) % len(model[g])
				cancel(model[g][i].id)
				p.RemoveAt(g, i)
				model[g] = append(model[g][:i:i], model[g][i+1:]...)
			case 2:
				p.Save(g, &snaps[g])
				saved[g] = append([]modelResident(nil), model[g]...)
				savedDigest[g] = p.Digest(g)
				savedGen[g] = p.Gen(g)
				hasSave[g] = true
				mutated = false
			case 3:
				if !hasSave[g] {
					continue
				}
				for _, m := range model[g] {
					if !slices.ContainsFunc(saved[g], func(s modelResident) bool { return s.id == m.id }) {
						cancel(m.id)
					}
				}
				p.Restore(g, &snaps[g])
				model[g] = append([]modelResident(nil), saved[g]...)
				if got := p.Digest(g); got != savedDigest[g] {
					t.Fatalf("restore of GPU %d: digest %016x, want the saved %016x", g, got, savedDigest[g])
				}
				if p.Gen(g) != savedGen[g] {
					t.Fatalf("restore of GPU %d: generation %d, want the saved %d", g, p.Gen(g), savedGen[g])
				}
				gens[g] = savedGen[g]
				mutated = false
			case 4:
				if n >= 24 {
					continue
				}
				p.AddGPUs(device, 1, fuzzClass(arg&3, gpus))
				n++
				model = append(model, nil)
				snaps = append(snaps, Snapshot[res]{})
				saved = append(saved, nil)
				savedDigest = append(savedDigest, 0)
				savedGen = append(savedGen, 0)
				hasSave = append(hasSave, false)
				gens = append(gens, 0)
				g, mutated = n-1, false
			case 5:
				p.Touch(g)
			case 6:
				var free []int
				for _, m := range model[g] {
					if !slices.ContainsFunc(pending, func(c pendingCompletion) bool { return c.id == m.id }) {
						free = append(free, m.id)
					}
				}
				if len(free) == 0 {
					continue
				}
				id, end := free[int(arg)%len(free)], simtime.Time(arg%8)
				pending = append(pending, pendingCompletion{ev: p.Schedule(g, end, uint64(id)), g: g, id: id, end: end})
				mutated = false
			case 7:
				if len(pending) == 0 {
					continue
				}
				cancel(pending[int(arg)%len(pending)].id)
				mutated = false
			case 8:
				now := simtime.Time(arg % 10)
				due := -1
				for i, c := range pending {
					if c.end <= now && (due < 0 || c.end < pending[due].end) {
						due = i
					}
				}
				rg, r, ok := p.Retire(now)
				if due < 0 {
					if ok {
						t.Fatalf("Retire(%d) removed resident %d from GPU %d, model has none due", now, r, rg)
					}
					mutated = false
					break
				}
				c := pending[due]
				if !ok || rg != c.g || int(r) != c.id {
					t.Fatalf("Retire(%d) = GPU %d resident %d ok %v, model's earliest due is %d on GPU %d", now, rg, r, ok, c.id, c.g)
				}
				pending = slices.Delete(pending, due, due+1)
				i := slices.IndexFunc(model[c.g], func(m modelResident) bool { return m.id == c.id })
				model[c.g] = append(model[c.g][:i:i], model[c.g][i+1:]...)
				g = c.g
			}

			if mutated {
				if p.Clock() <= clock || p.Gen(g) != p.Clock() {
					t.Fatalf("op %d on GPU %d: gen %d clock %d (was %d), want a fresh stamp", op, g, p.Gen(g), p.Clock(), clock)
				}
			} else if p.Clock() != clock {
				t.Fatalf("op %d advanced the clock from %d to %d", op, clock, p.Clock())
			}
			total := 0
			for i := 0; i < n; i++ {
				if i != g || !mutated {
					if p.Gen(i) != gens[i] {
						t.Fatalf("op %d on GPU %d moved GPU %d's generation %d -> %d", op, g, i, gens[i], p.Gen(i))
					}
				}
				checkGPU(t, &p, i, model[i], device)
				total += p.Len(i)
			}
			if p.Total() != total {
				t.Fatalf("pool count %d, per-GPU counts sum to %d", p.Total(), total)
			}
			for q := byte(0); q < 4; q++ {
				checkFirstFit(t, &p, fuzzLoad(arg+q*41, device, true))
				from := int(arg+q*71) % (n + 1)
				checkNextChanged(t, &p, uint64(arg+q*13)%(p.Clock()+2), from)
				checkNextBelow(t, &p, int(arg>>1+q*3)%7-1, from)
			}
			checkIndex(t, &p)
			checkTimeline(t, &p, pending)
		}
	})
}

// fuzzClass draws class k of the four a fuzzed pool's seed picks: a
// client cap from 0 to 5, a rule mask, an SM cap (none, 0, 25 or NaN,
// which clamps nothing) and a memory bound (none, or a quarter or half
// of an A100X).
func fuzzClass(k, seed byte) Class {
	a := k*53 + seed
	return Class{
		MaxResidents: int(a) % 6,
		Rules:        interference.RuleMask(a>>2) & 7,
		SMCap:        []float64{math.Inf(1), 0, 25, math.NaN()}[a>>5&3],
		MemMiB:       []int64{math.MaxInt64, 20480, 40960, math.MaxInt64}[a>>3&3],
	}
}

// verdict is the rules GPU g breaks for load l under its class, as a
// serial scan judges it: capacity for a load over the memory bound,
// else the client cap and Admit's rules within the class's, for the
// load under the SM cap.
func verdict(p *Pool[res], l interference.Load, g int) interference.RuleMask {
	c := p.classes[p.classAt(g)]
	if l.MemMiB > c.MemMiB {
		return interference.MaskCapacity
	}
	if l.SMPct > c.SMCap {
		l.SMPct = c.SMCap
	}
	rej := p.AdmitExcluding(g, l, nil) & c.Rules
	if p.Len(g) >= c.MaxResidents {
		rej |= interference.MaskClientCap
	}
	return rej
}

// checkFirstFit compares FirstFit(l) against a serial judgement of
// every GPU under its class, with and without a tally. The tally's
// visits are the query's, it covers each GPU left of the winner once,
// and it counts no rule more often than those GPUs break it.
func checkFirstFit(t *testing.T, p *Pool[res], l interference.Load) {
	t.Helper()
	want, broken := -1, [4]int64{}
	for g := 0; g < p.GPUs(); g++ {
		rej := verdict(p, l, g)
		if rej == 0 {
			want = g
			break
		}
		for i := range broken {
			broken[i] += int64(rej >> i & 1)
		}
	}
	g, visits, probes := p.FirstFit(l, nil)
	if g != want {
		t.Fatalf("FirstFit(%+v) over classes %+v = %d, serial first-fit %d", l, p.classes, g, want)
	}
	if probes > visits {
		t.Fatalf("FirstFit probed %d GPUs in %d visits", probes, visits)
	}
	var tally obs.ScanTally
	if g2, v2, p2 := p.FirstFit(l, &tally); g2 != g || v2 != visits || p2 != probes {
		t.Fatalf("tallied FirstFit = %d %d %d, untallied %d %d %d", g2, v2, p2, g, visits, probes)
	}
	rec := tally.Summary(0, 0, int32(g))
	if rec.Clients != int32(visits) {
		t.Fatalf("tally visits %d, query visits %d", rec.Clients, visits)
	}
	covered := int32(g)
	if g < 0 {
		covered = int32(p.GPUs())
	}
	if tally.Rejected() != covered {
		t.Fatalf("tally covers %d GPUs, %d lie left of winner %d", tally.Rejected(), covered, g)
	}
	counts := []int64{rec.SMExcessMilli, rec.BWExcessMilli, rec.MemExcessMiB, int64(rec.CapSkips)}
	var sum int64
	for i, c := range counts {
		if (c > 0) != (rec.Rules&(1<<i) != 0) {
			t.Fatalf("tally rules %04b disagree with counts %v", rec.Rules, counts)
		}
		if c > broken[i] {
			t.Fatalf("tally counts %v, but the GPUs left of winner %d break the rules %v times", counts, g, broken)
		}
		sum += c
	}
	if sum < int64(covered) {
		t.Fatalf("tally counts %v for the %d GPUs left of winner %d", counts, covered, g)
	}
}

// checkNextChanged compares NextChanged(c, from) with a serial scan of
// the generations.
func checkNextChanged(t *testing.T, p *Pool[res], c uint64, from int) {
	t.Helper()
	want := -1
	for g := from; g < p.GPUs(); g++ {
		if p.Gen(g) > c {
			want = g
			break
		}
	}
	if got := p.NextChanged(c, from); got != want {
		t.Fatalf("NextChanged(%d, %d) = %d, serial scan %d", c, from, got, want)
	}
}

// checkNextBelow compares NextBelow(k, from) with a serial scan of the
// residents' keys.
func checkNextBelow(t *testing.T, p *Pool[res], k, from int) {
	t.Helper()
	want := -1
	for g := from; g < p.GPUs() && want < 0; g++ {
		for _, r := range p.Residents(g) {
			if fuzzKey(r) < k {
				want = g
				break
			}
		}
	}
	if got := p.NextBelow(k, from); got != want {
		t.Fatalf("NextBelow(%d, %d) = %d, serial scan %d", k, from, got, want)
	}
}

// checkIndex checks the first-fit index's layout and bounds: each
// node lists exactly the classes of its GPUs, in the order they first
// appear; each entry's bound is the minimum of its class's bounds in the
// node's children, bit for bit, so a NaN minimum must be NaN, and its
// GPU count their sum; and each entry links to its class's entry in the
// parent and in the sibling (0 for none); a one-class pool's plain tree
// holds at each node the minimum of its children. It then checks each
// node of the changed-GPU index against the maximum of its children's
// generations, and each victim key, a GPU's against a fresh fold of its
// residents and a node's against the minimum of its children.
func checkIndex(t *testing.T, p *Pool[res]) {
	t.Helper()
	// entryOf returns node i's entry of class c, or 0.
	entryOf := func(i, c int) int32 {
		for e := p.off[i+1]; e < p.off[i]; e++ {
			if int(p.info[e].class) == c {
				return e
			}
		}
		return 0
	}
	child := func(i, c int) (fitNode, int32) {
		if i >= p.leaves {
			return p.leafBound(i-p.leaves, c), p.isClass(i-p.leaves, c)
		}
		if p.info == nil {
			return p.ents[i], 0
		}
		e := entryOf(i, c)
		return p.ents[e], p.info[e].n
	}
	sameMin := func(got, a, b fitNode) bool {
		return math.Float64bits(got.sm) == math.Float64bits(min(a.sm, b.sm)) &&
			math.Float64bits(got.bw) == math.Float64bits(min(a.bw, b.bw)) &&
			got.over == min(a.over, b.over) && got.n == min(a.n, b.n)
	}
	if p.ents != nil && (p.info == nil) != (len(p.classes) == 1) {
		t.Fatalf("pool of %d classes built entry info %v", len(p.classes), p.info != nil)
	}
	for i := 1; i < p.leaves && p.ents != nil && p.info == nil; i++ {
		a, _ := child(2*i, 0)
		b, _ := child(2*i+1, 0)
		if !sameMin(p.ents[i], a, b) {
			t.Fatalf("one-class index node %d = %+v, children %+v and %+v", i, p.ents[i], a, b)
		}
	}
	for i := 1; i < p.leaves && p.info != nil; i++ {
		span := p.leaves >> (bits.Len(uint(i)) - 1)
		var want []int32
		for g := i*span - p.leaves; g < min((i+1)*span-p.leaves, p.GPUs()); g++ {
			if c := p.classAt(g); !slices.Contains(want, c) {
				want = append(want, c)
			}
		}
		var got []int32
		for e := p.off[i+1]; e < p.off[i]; e++ {
			got = append(got, p.info[e].class)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("index node %d lists classes %v, its GPUs' classes in order are %v", i, got, want)
		}
		for e := p.off[i+1]; e < p.off[i]; e++ {
			c := int(p.info[e].class)
			a, na := child(2*i, c)
			b, nb := child(2*i+1, c)
			got, n := p.ents[e], p.info[e].n
			if !sameMin(got, a, b) || n != na+nb {
				t.Fatalf("index node %d class %d = %+v over %d GPUs, children %+v and %+v over %d and %d", i, c, got, n, a, b, na, nb)
			}
			var up, sib int32
			if i > 1 {
				up, sib = entryOf(i>>1, c), entryOf(i^1, c)
			}
			if p.info[e].up != up || p.info[e].sib != sib {
				t.Fatalf("index node %d class %d links up %d sibling %d, want %d and %d", i, c, p.info[e].up, p.info[e].sib, up, sib)
			}
		}
	}
	if p.gens == nil && p.keys == nil {
		return
	}
	for i := 1; i < len(p.gens); i++ {
		if got, want := p.gens[i], max(p.genOf(2*i), p.genOf(2*i+1)); got != want {
			t.Fatalf("changed-GPU node %d = %d, children's maximum %d", i, got, want)
		}
	}
	keys := p.keys
	if len(keys) != 2*p.leaves {
		t.Fatalf("%d keys over %d leaves", len(keys), p.leaves)
	}
	for g := 0; g < p.leaves; g++ {
		want := math.MaxInt
		if g < p.GPUs() {
			for _, r := range p.Residents(g) {
				want = min(want, fuzzKey(r))
			}
		}
		if keys[p.leaves+g] != want {
			t.Fatalf("GPU %d key %d, fresh fold of its residents %d", g, keys[p.leaves+g], want)
		}
	}
	for i := 1; i < p.leaves; i++ {
		if keys[i] != min(keys[2*i], keys[2*i+1]) {
			t.Fatalf("key node %d = %d, children %d and %d", i, keys[i], keys[2*i], keys[2*i+1])
		}
	}
}

// sameLoad compares loads bit for bit: a NaN load equals itself.
func sameLoad(a, b interference.Load) bool {
	return math.Float64bits(a.SMPct) == math.Float64bits(b.SMPct) &&
		math.Float64bits(a.BWPct) == math.Float64bits(b.BWPct) && a.MemMiB == b.MemMiB
}

// checkGPU compares pool GPU g against its model.
func checkGPU(t *testing.T, p *Pool[res], g int, model []modelResident, device gpu.DeviceSpec) {
	t.Helper()
	if p.Len(g) != len(model) || len(p.Residents(g)) != len(model) {
		t.Fatalf("GPU %d holds %d residents, model %d", g, p.Len(g), len(model))
	}
	fresh := interference.NewAggregate(device)
	for i, m := range model {
		if p.Residents(g)[i] != res(m.id) || !sameLoad(p.Load(g, i), m.load) {
			t.Fatalf("GPU %d resident %d = %d %+v, model %d %+v", g, i, p.Residents(g)[i], p.Load(g, i), m.id, m.load)
		}
		fresh.Add(m.load)
	}
	if p.Digest(g) != fresh.Digest() {
		t.Fatalf("GPU %d digest %016x, fresh fold of the model %016x", g, p.Digest(g), fresh.Digest())
	}
}
