package admission

import (
	"slices"
	"testing"

	"gpushare/internal/eventq"
	"gpushare/internal/gpu"
	"gpushare/internal/interference"
	"gpushare/internal/simtime"
)

// TestRetireIdentityWithCollidingEnds is the regression test for the
// same-instant retire ambiguity: several residents on one GPU share a
// finish instant, and each completion must remove exactly the resident
// it was scheduled for, not the first list entry that ends by then. A
// cancelled completion retires nothing, an instant before the earliest
// end finds nothing due, and the colliding completions retire in
// schedule order. The survivors and the re-folded aggregate identify
// the removals.
func TestRetireIdentityWithCollidingEnds(t *testing.T) {
	device := gpu.MustLookup("A100X")
	var p Pool[res]
	p.AddGPUs(device, 1, Class{})
	collide := simtime.Time(10)
	// The survivors sit between colliding residents, so a first-match
	// scan and identity-based removal disagree on which entries remain.
	loads := []interference.Load{
		{SMPct: 10, BWPct: 1, MemMiB: 100},
		{SMPct: 20, BWPct: 2, MemMiB: 200},
		{SMPct: 30, BWPct: 3, MemMiB: 300},
		{SMPct: 40, BWPct: 4, MemMiB: 400},
		{SMPct: 50, BWPct: 5, MemMiB: 500},
	}
	ends := []simtime.Time{collide, 50, collide, collide, collide}
	// Serials run against list order, so a serial is no list index.
	evs := make([]*eventq.Event, len(loads))
	for i, l := range loads {
		serial := res(len(loads) - i)
		p.Add(0, l, serial)
		evs[i] = p.Schedule(0, ends[i], uint64(serial))
	}
	// Resident 3 is evicted: its completion is cancelled and the caller
	// removes it.
	p.Cancel(evs[3])
	p.RemoveAt(0, 3)

	if g, r, ok := p.Retire(collide - 1); ok {
		t.Fatalf("Retire before the earliest end removed resident %d from GPU %d", r, g)
	}
	if next, ok := p.NextCompletion(); !ok || next != collide {
		t.Fatalf("next completion %d %v, want %d", next, ok, collide)
	}
	var retired []res
	for {
		g, r, ok := p.Retire(collide)
		if !ok {
			break
		}
		if g != 0 {
			t.Fatalf("retired resident %d from GPU %d, want GPU 0", r, g)
		}
		retired = append(retired, r)
	}
	if want := []res{5, 3, 1}; !slices.Equal(retired, want) {
		t.Fatalf("retired %v at the colliding instant, want %v in schedule order", retired, want)
	}
	if got := p.Residents(0); !slices.Equal(got, []res{4}) {
		t.Fatalf("survivors %v, want [4]", got)
	}
	want := interference.NewAggregate(device)
	want.Add(loads[1])
	if p.Len(0) != 1 || p.Load(0, 0) != want.At(0) || p.Digest(0) != want.Digest() {
		t.Fatalf("aggregate after retirement holds %d members, digest %016x, want the survivor's fold %016x",
			p.Len(0), p.Digest(0), want.Digest())
	}
	if next, ok := p.NextCompletion(); !ok || next != 50 {
		t.Fatalf("next completion %d %v, want the survivor's 50", next, ok)
	}
	// An instant already passed still finds nothing due.
	if _, _, ok := p.Retire(collide); ok {
		t.Fatal("a second Retire at the retired instant removed a resident")
	}
}

// TestRetireMissingResidentPanics pins Retire's contract: a resident
// removed without cancelling its completion is a caller's bug, and the
// completion panics instead of retiring nothing.
func TestRetireMissingResidentPanics(t *testing.T) {
	var p Pool[res]
	p.AddGPUs(gpu.MustLookup("A100X"), 1, Class{})
	p.Add(0, interference.Load{SMPct: 1}, 7)
	p.Schedule(0, 3, 7)
	p.RemoveAt(0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Retire of a removed resident did not panic")
		}
	}()
	p.Retire(3)
}

// pendingCompletion is the fuzz model's view of one scheduled
// completion, in schedule order.
type pendingCompletion struct {
	ev  *eventq.Event
	g   int
	id  int
	end simtime.Time
}

// checkTimeline checks that the pool's pending completions map one to
// one onto the residents the model says have one: the timeline holds
// exactly the model's events, each names its GPU and serial, that
// resident sits on that GPU once, no two name the same resident, and
// NextCompletion is the earliest of their ends.
func checkTimeline(t *testing.T, p *Pool[res], pending []pendingCompletion) {
	t.Helper()
	if p.timeline.Len() != len(pending) {
		t.Fatalf("timeline holds %d completions, model %d", p.timeline.Len(), len(pending))
	}
	seen := make(map[int]bool, len(pending))
	next, ok := p.NextCompletion()
	if ok != (len(pending) > 0) {
		t.Fatalf("NextCompletion reports pending %v, model holds %d completions", ok, len(pending))
	}
	for _, c := range pending {
		if c.end < next {
			t.Fatalf("NextCompletion %d, model's completion of resident %d ends at %d", next, c.id, c.end)
		}
		k, ok := c.ev.Data.(*completion)
		if !ok || c.ev.Cancelled() || c.ev.At != c.end || k.g != c.g || k.serial != uint64(c.id) {
			t.Fatalf("completion of resident %d on GPU %d at %d: event %+v", c.id, c.g, c.end, c.ev)
		}
		if seen[c.id] {
			t.Fatalf("two completions name resident %d", c.id)
		}
		seen[c.id] = true
		n := 0
		for _, r := range p.Residents(c.g) {
			if r.Serial() == uint64(c.id) {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("completion of resident %d finds %d of it on GPU %d", c.id, n, c.g)
		}
	}
	if ok && !slices.ContainsFunc(pending, func(c pendingCompletion) bool { return c.end == next }) {
		t.Fatalf("NextCompletion %d matches no pending completion", next)
	}
}
