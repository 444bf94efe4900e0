package admission

import (
	"reflect"
	"testing"

	"gpushare/internal/gpu"
	"gpushare/internal/interference"
)

// TestPoolAllocs pins the pool's mutations and probes at zero
// allocations once its lists and snapshot have grown: the runtime half
// of their //repro:hotpath annotations.
func TestPoolAllocs(t *testing.T) {
	var p Pool[int]
	p.AddGPUs(gpu.MustLookup("A100X"), 2)
	l := interference.Load{SMPct: 7, BWPct: 5, MemMiB: 4096}
	for i := 0; i < 8; i++ {
		p.Add(0, l, i)
	}
	var snap Snapshot[int]
	skip := []bool{true, false, true}
	cycle := func() {
		p.Save(0, &snap)
		p.Add(0, l, 99)
		p.RemoveAt(0, 2)
		_ = p.Admit(0, l).Interferes()
		_ = p.AdmitExcluding(0, l, skip).Interferes()
		p.Restore(0, &snap)
	}
	cycle()
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("pool save/add/remove/probe/restore allocated %.1f objects per cycle, want 0", allocs)
	}
}

// TestPoolGenerations pins the change clock: new GPUs start at
// generation 0, every mutation stamps only its GPU with a fresh clock
// value, and Save is not a mutation.
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
	p.Save(1, &snap)
	if p.Clock() != c {
		t.Fatal("Save advanced the clock")
	}
	p.RemoveAt(1, 0)
	p.Restore(1, &snap)
	if p.Gen(1) != p.Clock() || p.Clock() != c+2 {
		t.Fatalf("RemoveAt+Restore: gen %d clock %d, want both %d", p.Gen(1), p.Clock(), c+2)
	}
	if p.Total() != 1 || !reflect.DeepEqual(p.Residents(1), []string{"a"}) {
		t.Fatalf("restore left total %d residents %v, want 1 [a]", p.Total(), p.Residents(1))
	}
}

// modelResident is the reference model's view of one resident.
type modelResident struct {
	load interference.Load
	id   int
}

// FuzzPool drives random Add/RemoveAt/Save/Restore sequences against a
// slice-of-structs model. After every step each GPU's residents and
// loads match the model, its digest equals a fresh Add fold of the
// model's loads (which pins the aggregate's member count too), the
// pool-wide count is the sum of the per-GPU counts, the mutated GPU —
// and only it — gets a fresh generation, and a Restore gives back the
// exact digest and count its Save saw.
func FuzzPool(f *testing.F) {
	f.Add(uint8(2), []byte{0, 1, 10, 0, 0, 20, 2, 0, 0, 1, 0, 0, 3, 0, 0})
	f.Add(uint8(3), []byte{0, 2, 255, 0, 2, 7, 0, 1, 3, 2, 2, 0, 1, 2, 1, 3, 2, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, gpus uint8, ops []byte) {
		device := gpu.MustLookup("A100X")
		n := int(gpus)%4 + 1
		var p Pool[int]
		p.AddGPUs(device, n)
		model := make([][]modelResident, n)
		snaps := make([]Snapshot[int], n)
		saved := make([][]modelResident, n)
		savedDigest := make([]uint64, n)
		hasSave := make([]bool, n)
		nextID := 0

		for k := 0; k+2 < len(ops); k += 3 {
			op, g, arg := ops[k]%4, int(ops[k+1])%n, ops[k+2]
			clock := p.Clock()
			gens := make([]uint64, n)
			for i := range gens {
				gens[i] = p.Gen(i)
			}
			mutated := true
			switch op {
			case 0:
				l := interference.Load{
					SMPct:  float64(arg) * 0.7,
					BWPct:  float64(arg%17) * 1.3,
					MemMiB: int64(arg) * 311,
				}
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
			}

			if mutated {
				if p.Clock() <= clock || p.Gen(g) != p.Clock() {
					t.Fatalf("op %d on GPU %d: gen %d clock %d (was %d), want a fresh stamp", op, g, p.Gen(g), p.Clock(), clock)
				}
			} else if p.Clock() != clock {
				t.Fatalf("Save advanced the clock from %d to %d", clock, p.Clock())
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
		}
	})
}

// checkGPU compares pool GPU g against its model.
func checkGPU(t *testing.T, p *Pool[int], g int, model []modelResident, device gpu.DeviceSpec) {
	t.Helper()
	if p.Len(g) != len(model) || len(p.Residents(g)) != len(model) {
		t.Fatalf("GPU %d holds %d residents, model %d", g, p.Len(g), len(model))
	}
	fresh := interference.NewAggregate(device)
	for i, m := range model {
		if p.Residents(g)[i] != m.id || p.Load(g, i) != m.load {
			t.Fatalf("GPU %d resident %d = %d %+v, model %d %+v", g, i, p.Residents(g)[i], p.Load(g, i), m.id, m.load)
		}
		fresh.Add(m.load)
	}
	if p.Digest(g) != fresh.Digest() {
		t.Fatalf("GPU %d digest %016x, fresh fold of the model %016x", g, p.Digest(g), fresh.Digest())
	}
}
