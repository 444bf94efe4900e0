// Package admission keeps the per-GPU admission state both dispatchers
// share: each GPU's interference aggregate, its residents in the
// aggregate's fold order, and a change generation that one changed(g)
// path stamps on every mutation. Policy — mode rules, client caps,
// completion heaps, flight records, transaction journals — stays with
// the caller (DESIGN.md "Admission pool").
package admission

import (
	"gpushare/internal/gpu"
	"gpushare/internal/interference"
)

// Pool is a fleet of GPUs' admission state with residents of type R.
// The zero value holds no GPUs; AddGPUs grows it.
type Pool[R any] struct {
	gpus  []slot[R]
	clock uint64 // last generation handed out
	total int    // residents across every GPU
}

// slot is one GPU: the fields a first-fit probe reads sit together.
type slot[R any] struct {
	agg interference.Aggregate
	res []R
	gen uint64
}

// Snapshot is one GPU's saved aggregate and residents. The zero value
// is ready; Save reuses its capacity.
type Snapshot[R any] struct {
	agg interference.Snapshot
	res []R
}

// AddGPUs appends n empty GPUs of the given device, at generation 0.
func (p *Pool[R]) AddGPUs(device gpu.DeviceSpec, n int) {
	first := len(p.gpus)
	p.gpus = append(p.gpus, make([]slot[R], n)...)
	for g := first; g < len(p.gpus); g++ {
		p.gpus[g].agg = interference.NewAggregate(device)
	}
}

// changed is the single hook every mutation runs: it advances the
// pool's clock and stamps GPU g with it.
func (p *Pool[R]) changed(g int) {
	p.clock++
	p.gpus[g].gen = p.clock
}

// Add places resident r with load l on GPU g, extending its fold.
//
//repro:hotpath pinned by TestPoolAllocs
func (p *Pool[R]) Add(g int, l interference.Load, r R) {
	s := &p.gpus[g]
	s.agg.Add(l)
	//repro:allow:hotpathalloc resident-list growth is amortized; capacity is retained
	s.res = append(s.res, r)
	p.total++
	p.changed(g)
}

// RemoveAt deletes resident i of GPU g, keeping the survivors' order;
// the aggregate re-folds them, so the sums stay bit-identical to a
// fresh fold.
//
//repro:hotpath pinned by TestPoolAllocs
func (p *Pool[R]) RemoveAt(g, i int) {
	s := &p.gpus[g]
	s.agg.RemoveAt(i)
	copy(s.res[i:], s.res[i+1:])
	s.res = s.res[:len(s.res)-1]
	p.total--
	p.changed(g)
}

// Save copies GPU g's state into snap. It changes nothing.
//
//repro:hotpath pinned by TestPoolAllocs
func (p *Pool[R]) Save(g int, snap *Snapshot[R]) {
	s := &p.gpus[g]
	s.agg.Save(&snap.agg)
	//repro:allow:hotpathalloc snapshot growth is amortized; a retained snapshot saves allocation-free
	snap.res = append(snap.res[:0], s.res...)
}

// Restore puts GPU g back to snap. The sums are copied, not re-folded,
// so a rolled-back attempt is bit-identical to the state Save saw.
//
//repro:hotpath pinned by TestPoolAllocs
func (p *Pool[R]) Restore(g int, snap *Snapshot[R]) {
	s := &p.gpus[g]
	p.total += len(snap.res) - len(s.res)
	s.agg.Restore(&snap.agg)
	//repro:allow:hotpathalloc resident-list growth is amortized; restoring into a sized list is allocation-free
	s.res = append(s.res[:0], snap.res...)
	p.changed(g)
}

// GPUs returns the GPU count.
func (p *Pool[R]) GPUs() int { return len(p.gpus) }

// Len returns GPU g's resident count.
func (p *Pool[R]) Len(g int) int { return len(p.gpus[g].res) }

// Residents returns GPU g's residents in fold order. The slice is the
// pool's own: read it, and change it only through the pool.
func (p *Pool[R]) Residents(g int) []R { return p.gpus[g].res }

// Load returns resident i's load on GPU g.
func (p *Pool[R]) Load(g, i int) interference.Load { return p.gpus[g].agg.At(i) }

// Admit probes GPU g's residents plus l in O(1).
func (p *Pool[R]) Admit(g int, l interference.Load) interference.Outcome {
	return p.gpus[g].agg.Admit(l)
}

// AdmitExcluding probes GPU g with the residents skip marks left out,
// without changing anything.
func (p *Pool[R]) AdmitExcluding(g int, l interference.Load, skip []bool) interference.Outcome {
	return p.gpus[g].agg.AdmitExcluding(l, skip)
}

// Digest fingerprints GPU g's aggregate.
func (p *Pool[R]) Digest(g int) uint64 { return p.gpus[g].agg.Digest() }

// Gen returns the clock value of GPU g's last change.
func (p *Pool[R]) Gen(g int) uint64 { return p.gpus[g].gen }

// Clock returns the pool's latest generation: GPU g changed after a
// reading c exactly when Gen(g) > c.
func (p *Pool[R]) Clock() uint64 { return p.clock }

// Total returns the resident count over every GPU.
func (p *Pool[R]) Total() int { return p.total }
