package arena

import (
	"testing"
)

func TestRingBasics(t *testing.T) {
	r := NewRing[int](3)
	if r.Cap() != 3 || len(r.Snapshot(nil)) != 0 {
		t.Fatalf("fresh ring cap %d holds %v", r.Cap(), r.Snapshot(nil))
	}
	for i := 1; i <= 3; i++ {
		if _, ev := r.Push(i); ev {
			t.Fatalf("push %d evicted before full", i)
		}
	}
	old, ev := r.Push(4)
	if !ev || old != 1 {
		t.Fatalf("push 4: evicted=%v old=%d, want true 1", ev, old)
	}
	old, ev = r.Push(5)
	if !ev || old != 2 {
		t.Fatalf("push 5: evicted=%v old=%d, want true 2", ev, old)
	}
	want := []int{3, 4, 5}
	for i, w := range want {
		if got := r.At(i); got != w {
			t.Fatalf("At(%d) = %d, want %d", i, got, w)
		}
	}
	snap := r.Snapshot(nil)
	if len(snap) != 3 || snap[0] != 3 || snap[2] != 5 {
		t.Fatalf("Snapshot = %v", snap)
	}
	r.Reset()
	if snap := r.Snapshot(nil); len(snap) != 0 {
		t.Fatalf("Snapshot after Reset = %v", snap)
	}
}

func TestRingPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("NewRing(0)", func() { NewRing[int](0) })
	r := NewRing[int](2)
	r.Push(1)
	mustPanic("At(1) past the buffered element", func() { r.At(1) })
	mustPanic("At(-1)", func() { r.At(-1) })
}

// TestRingPushAllocs is the runtime half of Push's //repro:hotpath
// annotation.
func TestRingPushAllocs(t *testing.T) {
	r := NewRing[[2]int64](64)
	var sink [2]int64
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 200; i++ {
			if old, ev := r.Push([2]int64{int64(i), 0}); ev {
				sink = old
			}
		}
	})
	_ = sink
	if allocs != 0 {
		t.Fatalf("Push allocated %.1f objects per cycle, want 0", allocs)
	}
}

// FuzzRing drives a Ring against a plain-slice reference model: any
// push sequence must evict exactly the elements a bounded FIFO would,
// in the same order, and the retained window must always equal the
// reference tail.
func FuzzRing(f *testing.F) {
	f.Add(uint8(4), []byte{1, 2, 3, 4, 5, 6})
	f.Add(uint8(1), []byte{9, 9, 9})
	f.Add(uint8(7), []byte{})
	f.Fuzz(func(t *testing.T, capacity uint8, data []byte) {
		capN := int(capacity%16) + 1
		r := NewRing[byte](capN)
		var model []byte
		var spilled, modelSpilled []byte
		for _, b := range data {
			if old, ev := r.Push(b); ev {
				spilled = append(spilled, old)
			}
			model = append(model, b)
			if len(model) > capN {
				modelSpilled = append(modelSpilled, model[0])
				model = model[1:]
			}
			if n := len(r.Snapshot(nil)); n != len(model) {
				t.Fatalf("ring holds %d, model %d", n, len(model))
			}
		}
		if string(spilled) != string(modelSpilled) {
			t.Fatalf("spill order diverged: ring %v model %v", spilled, modelSpilled)
		}
		for i := range model {
			if r.At(i) != model[i] {
				t.Fatalf("At(%d) = %d, model %d", i, r.At(i), model[i])
			}
		}
	})
}
