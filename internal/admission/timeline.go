package admission

import (
	"gpushare/internal/eventq"
	"gpushare/internal/simtime"
)

// Resident is what a pool holds: Serial names it among its GPU's
// residents, so a completion retires the resident it was scheduled for
// even when several on one GPU end at the same instant.
type Resident interface{ Serial() uint64 }

// completion is a completion event's pooled payload: the GPU and the
// serial of the resident it retires.
type completion struct {
	g      int
	serial uint64
}

// Schedule books the completion at end of the resident with the given
// serial on GPU g and returns its event, for Cancel. Completions due at
// one instant retire in the order they were scheduled.
//
//repro:hotpath pinned by TestPoolAllocs
func (p *Pool[R]) Schedule(g int, end simtime.Time, serial uint64) *eventq.Event {
	if len(p.free) == 0 {
		//repro:allow:hotpathalloc payload-pool refill: cold path, amortized away once retirements recycle payloads
		p.free = append(p.free, new(completion))
	}
	c := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	*c = completion{g: g, serial: serial}
	return p.timeline.Schedule(end, 0, c)
}

// Cancel drops a pending completion and leaves its resident in place,
// for the caller to remove (a cluster eviction does).
//
//repro:hotpath pinned by TestPoolAllocs
func (p *Pool[R]) Cancel(ev *eventq.Event) {
	//repro:allow:hotpathalloc freelist growth is amortized; capacity is retained for the pool's lifetime
	p.free = append(p.free, ev.Data.(*completion))
	p.timeline.Cancel(ev)
}

// NextCompletion returns the earliest pending completion's instant.
func (p *Pool[R]) NextCompletion() (simtime.Time, bool) { return p.timeline.PeekTime() }

// Retire pops the earliest completion due at or before now, removes its
// resident from GPU g and returns both, or ok false when none is due. It
// panics if the resident left its GPU without a Cancel.
//
//repro:hotpath pinned by TestPoolAllocs
func (p *Pool[R]) Retire(now simtime.Time) (g int, r R, ok bool) {
	if at, pending := p.timeline.PeekTime(); !pending || at > now {
		return -1, r, false
	}
	ev, _ := p.timeline.Pop()
	c := ev.Data.(*completion)
	p.timeline.Free(ev)
	//repro:allow:hotpathalloc freelist growth is amortized; capacity is retained for the pool's lifetime
	p.free = append(p.free, c) // c is read below, before any Schedule reuses it
	for i, x := range p.gpus[c.g].res {
		//repro:allow:hotpathalloc both dispatchers' Serial is a field read; TestPoolAllocs and their allocation pins hold Retire at zero
		if x.Serial() == c.serial {
			p.RemoveAt(c.g, i)
			return c.g, x, true
		}
	}
	panic("admission: completed resident missing from its GPU")
}
