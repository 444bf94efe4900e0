package cluster

import (
	"slices"
	"testing"

	"gpushare/internal/xrand"
)

// TestJobQueueMatchesSlice runs random PushBack, PushFront and PopFront
// sequences against a plain-slice model, from empty queues (front
// growth at head 0) through long runs of back pushes behind popped
// heads (back compaction), checking Len, Front and every popped job.
func TestJobQueueMatchesSlice(t *testing.T) {
	jobs := make([]job, 64)
	var grewFront, compacted bool
	for seed := uint64(1); seed <= 200; seed++ {
		rng := xrand.New(seed)
		var q jobQueue
		var model []*job
		for op := 0; op < 400; op++ {
			switch r := rng.Intn(10); {
			case r < 4:
				j := &jobs[rng.Intn(len(jobs))]
				c, h := cap(q.buf), q.head
				q.PushBack(j)
				model = append(model, j)
				if h > 0 && q.head == 0 && cap(q.buf) == c {
					compacted = true
				}
			case r < 6:
				j := &jobs[rng.Intn(len(jobs))]
				if q.head == 0 {
					grewFront = true
				}
				q.PushFront(j)
				model = slices.Insert(model, 0, j)
			default:
				if len(model) == 0 {
					continue
				}
				if got := q.PopFront(); got != model[0] {
					t.Fatalf("seed %d op %d: PopFront = job %p, want %p", seed, op, got, model[0])
				}
				model = model[1:]
			}
			if q.Len() != len(model) {
				t.Fatalf("seed %d op %d: Len = %d, want %d", seed, op, q.Len(), len(model))
			}
			if len(model) > 0 && q.Front() != model[0] {
				t.Fatalf("seed %d op %d: Front differs from the model", seed, op)
			}
			if !slices.Equal(q.buf[q.head:], model) {
				t.Fatalf("seed %d op %d: queue %v, want %v", seed, op, q.buf[q.head:], model)
			}
			for _, j := range q.buf[:q.head] {
				if j != nil {
					t.Fatalf("seed %d op %d: a dead slot still holds a job", seed, op)
				}
			}
		}
	}
	if !grewFront || !compacted {
		t.Fatalf("sequences never grew the front (%v) or compacted the back (%v)", grewFront, compacted)
	}
}

// TestJobQueueRequeueInPlace pins the held-head cycle: a pop followed
// by a push to the front reuses the slot the pop left, and a steady
// stream of back pushes behind popped heads compacts instead of
// growing, so neither allocates once warm.
func TestJobQueueRequeueInPlace(t *testing.T) {
	var q jobQueue
	jobs := make([]job, 8)
	for i := range jobs {
		q.PushBack(&jobs[i])
	}
	held := func() {
		j := q.PopFront()
		q.PushFront(j)
	}
	if allocs := testing.AllocsPerRun(100, held); allocs != 0 {
		t.Fatalf("held requeue allocates %v per cycle, want 0", allocs)
	}
	stream := func() { q.PushBack(q.PopFront()) }
	stream()
	c := cap(q.buf)
	if allocs := testing.AllocsPerRun(1000, stream); allocs != 0 || cap(q.buf) != c {
		t.Fatalf("pop and push back allocates %v per cycle (capacity %d, was %d), want 0", allocs, cap(q.buf), c)
	}
}
