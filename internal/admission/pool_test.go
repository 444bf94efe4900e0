package admission

import (
	"math"
	"reflect"
	"testing"

	"gpushare/internal/gpu"
	"gpushare/internal/interference"
	"gpushare/internal/obs"
)

// TestPoolAllocs pins the pool's mutations, probes and first-fit
// queries at zero allocations once its lists, snapshot and index have
// grown: the runtime half of their //repro:hotpath annotations.
func TestPoolAllocs(t *testing.T) {
	var p Pool[int]
	p.AddGPUs(gpu.MustLookup("A100X"), 2)
	l := interference.Load{SMPct: 7, BWPct: 5, MemMiB: 4096}
	for i := 0; i < 8; i++ {
		p.Add(0, l, i)
	}
	var snap Snapshot[int]
	var tally obs.ScanTally
	skip := []bool{true, false, true}
	all := interference.MaskCompute | interference.MaskBandwidth | interference.MaskCapacity
	cycle := func() {
		p.Save(0, &snap)
		p.Add(0, l, 99)
		p.RemoveAt(0, 2)
		_ = p.Admit(0, l).Interferes()
		_ = p.AdmitExcluding(0, l, skip).Interferes()
		_, _, _ = p.FirstFit(l, 9, all, nil)
		_, _, _ = p.FirstFit(l, 8, all, &tally)
		p.Touch(1)
		p.Restore(0, &snap)
	}
	cycle() // the first FirstFit builds the index
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("pool save/add/remove/probe/first-fit/restore allocated %.1f objects per cycle, want 0", allocs)
	}
}

// TestPoolGenerations pins the change clock: new GPUs start at
// generation 0, every mutation and Touch stamps only its GPU with a
// fresh clock value, Save is not a mutation, and Restore puts back the
// generation Save saw without advancing the clock.
func TestPoolGenerations(t *testing.T) {
	var p Pool[string]
	p.AddGPUs(gpu.MustLookup("A100X"), 3)
	p.AddGPUs(gpu.MustLookup("A100X"), 1)
	if p.GPUs() != 4 {
		t.Fatalf("pool holds %d GPUs, want 4", p.GPUs())
	}
	for g := 0; g < p.GPUs(); g++ {
		if p.Gen(g) != 0 || p.Clock() != 0 {
			t.Fatalf("new GPU %d: generation %d, clock %d, want 0 and 0", g, p.Gen(g), p.Clock())
		}
	}
	c := p.Clock()
	p.Add(1, interference.Load{SMPct: 10}, "a")
	if p.Gen(1) <= c || p.Gen(0) > c || p.Gen(2) > c {
		t.Fatalf("Add(1) stamped gens %d %d %d against clock %d", p.Gen(0), p.Gen(1), p.Gen(2), c)
	}
	var snap Snapshot[string]
	c = p.Clock()
	saved := p.Gen(1)
	p.Save(1, &snap)
	if p.Clock() != c {
		t.Fatal("Save advanced the clock")
	}
	p.RemoveAt(1, 0)
	p.Add(1, interference.Load{SMPct: 20}, "b")
	p.Restore(1, &snap)
	if p.Gen(1) != saved || p.Clock() != c+2 {
		t.Fatalf("RemoveAt+Add+Restore: gen %d clock %d, want the saved gen %d and clock %d", p.Gen(1), p.Clock(), saved, c+2)
	}
	if p.Total() != 1 || !reflect.DeepEqual(p.Residents(1), []string{"a"}) {
		t.Fatalf("restore left total %d residents %v, want 1 [a]", p.Total(), p.Residents(1))
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
	var p Pool[string]
	p.AddGPUs(gpu.MustLookup("A100X"), 1)
	p.Add(0, interference.Load{SMPct: 10}, "a")
	var snap Snapshot[string]
	p.Save(0, &snap)
	p.Add(0, interference.Load{SMPct: 20}, "b")
	inside := p.Clock()
	p.Restore(0, &snap)
	if p.Len(0) == 2 {
		t.Fatal("Restore kept the resident added after Save")
	}
	if p.Gen(0) > inside {
		t.Fatalf("Restore stamped gen %d above the inside clock %d; update the caveat on Restore and holdState.clock", p.Gen(0), inside)
	}
	after := p.Clock()
	p.Add(0, interference.Load{SMPct: 30}, "c")
	if p.Gen(0) <= after {
		t.Fatalf("a change after the rollback has gen %d, not above the clock %d read after it", p.Gen(0), after)
	}
}

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

// FuzzPool drives random Add/RemoveAt/Save/Restore/AddGPUs/Touch
// sequences against a slice-of-structs model. After every step each
// GPU's residents and loads match the model, its digest equals a fresh
// Add fold of the model's loads (which pins the aggregate's member count
// too), the pool-wide count is the sum of the per-GPU counts, the
// mutated or touched GPU — and only it — gets a fresh generation, and a
// Restore gives back the exact digest, count and generation its Save
// saw without advancing the clock. FirstFit, under
// varied client caps and rule masks, names the GPU a serial probe of
// every GPU names, and every index node is the minimum of its
// children.
func FuzzPool(f *testing.F) {
	f.Add(uint8(2), []byte{0, 1, 10, 0, 0, 20, 2, 0, 0, 1, 0, 0, 3, 0, 0})
	f.Add(uint8(3), []byte{0, 2, 255, 0, 2, 7, 0, 1, 3, 2, 2, 0, 1, 2, 1, 3, 2, 0, 1, 0, 0})
	f.Add(uint8(6), []byte{0, 0, 16, 0, 3, 17, 0, 5, 200, 4, 0, 0, 0, 6, 33, 1, 3, 0, 0, 2, 130, 3, 0, 0, 0, 4, 90})
	f.Fuzz(func(t *testing.T, gpus uint8, ops []byte) {
		device := gpu.MustLookup("A100X")
		n := int(gpus)%11 + 1
		var p Pool[int]
		p.AddGPUs(device, n)
		model := make([][]modelResident, n)
		snaps := make([]Snapshot[int], n)
		saved := make([][]modelResident, n)
		savedDigest := make([]uint64, n)
		savedGen := make([]uint64, n)
		hasSave := make([]bool, n)
		nextID := 0

		for k := 0; k+2 < len(ops); k += 3 {
			op, g, arg := ops[k]%6, int(ops[k+1])%n, ops[k+2]
			clock := p.Clock()
			gens := make([]uint64, n)
			for i := range gens {
				gens[i] = p.Gen(i)
			}
			mutated := true
			switch op {
			case 0:
				l := fuzzLoad(arg, device, false)
				p.Add(g, l, nextID)
				model[g] = append(model[g], modelResident{load: l, id: nextID})
				nextID++
			case 1:
				if len(model[g]) == 0 {
					continue
				}
				i := int(arg) % len(model[g])
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
				p.AddGPUs(device, 1)
				n++
				model = append(model, nil)
				snaps = append(snaps, Snapshot[int]{})
				saved = append(saved, nil)
				savedDigest = append(savedDigest, 0)
				savedGen = append(savedGen, 0)
				hasSave = append(hasSave, false)
				gens = append(gens, 0)
				g, mutated = n-1, false
			case 5:
				p.Touch(g)
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
				checkFirstFit(t, &p, fuzzLoad(arg+q*37, device, true), int(arg+q)%6, interference.RuleMask(arg>>2+q)&7)
			}
			checkIndex(t, &p)
		}
	})
}

// refFirstFit is the serial first-fit FirstFit must reproduce: probe
// every GPU in index order.
func refFirstFit(p *Pool[int], l interference.Load, maxResidents int, rules interference.RuleMask) int {
	for g := 0; g < p.GPUs(); g++ {
		if p.Len(g) < maxResidents && p.Admit(g, l).Rules()&rules == 0 {
			return g
		}
	}
	return -1
}

// checkFirstFit compares one query against the serial reference, with
// and without a tally. The tally's visits are the query's, and its
// rejections cover exactly the GPUs left of the winner: at least as
// many as the busiest rule counted, at most the sum over rules.
func checkFirstFit(t *testing.T, p *Pool[int], l interference.Load, maxResidents int, rules interference.RuleMask) {
	t.Helper()
	want := refFirstFit(p, l, maxResidents, rules)
	g, visits, probes := p.FirstFit(l, maxResidents, rules, nil)
	if g != want {
		t.Fatalf("FirstFit(%+v, cap %d, rules %v) = %d, serial first-fit %d", l, maxResidents, rules, g, want)
	}
	if probes > visits {
		t.Fatalf("FirstFit probed %d GPUs in %d visits", probes, visits)
	}
	var tally obs.ScanTally
	if g2, v2, p2 := p.FirstFit(l, maxResidents, rules, &tally); g2 != g || v2 != visits || p2 != probes {
		t.Fatalf("tallied FirstFit = %d %d %d, untallied %d %d %d", g2, v2, p2, g, visits, probes)
	}
	rec := tally.Summary(0, 0, int32(g))
	if rec.Clients != int32(visits) {
		t.Fatalf("tally visits %d, query visits %d", rec.Clients, visits)
	}
	covered := int64(g)
	if g < 0 {
		covered = int64(p.GPUs())
	}
	counts := []int64{rec.SMExcessMilli, rec.BWExcessMilli, rec.MemExcessMiB, int64(rec.CapSkips)}
	var most, sum int64
	for i, c := range counts {
		if (c > 0) != (rec.Rules&(1<<i) != 0) {
			t.Fatalf("tally rules %04b disagree with counts %v", rec.Rules, counts)
		}
		most, sum = max(most, c), sum+c
	}
	if most > covered || sum < covered {
		t.Fatalf("tally counts %v for %d GPUs left of winner %d", counts, covered, g)
	}
}

// checkIndex checks every built index node against the minimum of its
// children, bit for bit, so a NaN minimum must be NaN.
func checkIndex(t *testing.T, p *Pool[int]) {
	t.Helper()
	for i := 1; i < len(p.tree); i++ {
		a, b := p.bound(2*i), p.bound(2*i+1)
		got := p.tree[i]
		if math.Float64bits(got.sm) != math.Float64bits(min(a.sm, b.sm)) ||
			math.Float64bits(got.bw) != math.Float64bits(min(a.bw, b.bw)) ||
			got.over != min(a.over, b.over) || got.n != min(a.n, b.n) {
			t.Fatalf("index node %d = %+v, children %+v and %+v", i, got, a, b)
		}
	}
}

// sameLoad compares loads bit for bit: a NaN load equals itself.
func sameLoad(a, b interference.Load) bool {
	return math.Float64bits(a.SMPct) == math.Float64bits(b.SMPct) &&
		math.Float64bits(a.BWPct) == math.Float64bits(b.BWPct) && a.MemMiB == b.MemMiB
}

// checkGPU compares pool GPU g against its model.
func checkGPU(t *testing.T, p *Pool[int], g int, model []modelResident, device gpu.DeviceSpec) {
	t.Helper()
	if p.Len(g) != len(model) || len(p.Residents(g)) != len(model) {
		t.Fatalf("GPU %d holds %d residents, model %d", g, p.Len(g), len(model))
	}
	fresh := interference.NewAggregate(device)
	for i, m := range model {
		if p.Residents(g)[i] != m.id || !sameLoad(p.Load(g, i), m.load) {
			t.Fatalf("GPU %d resident %d = %d %+v, model %d %+v", g, i, p.Residents(g)[i], p.Load(g, i), m.id, m.load)
		}
		fresh.Add(m.load)
	}
	if p.Digest(g) != fresh.Digest() {
		t.Fatalf("GPU %d digest %016x, fresh fold of the model %016x", g, p.Digest(g), fresh.Digest())
	}
}
