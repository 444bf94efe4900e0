// Package admission keeps the per-GPU admission state both dispatchers
// share: each GPU's interference aggregate, its residents in the
// aggregate's fold order, and a change generation that one changed(g)
// path stamps on every mutation. FirstFit answers a first-fit query
// from an index over those GPUs; Gen and Clock let a caller tell which
// GPUs changed since it last looked (the cluster planner's held gangs
// do). Policy — which rules apply, client caps, completion heaps,
// flight records, transaction journals — stays with the caller
// (DESIGN.md "Admission pool", "First-fit index", "Change-driven
// rounds").
package admission

import (
	"math"

	"gpushare/internal/gpu"
	"gpushare/internal/interference"
	"gpushare/internal/obs"
)

// Pool is a fleet of GPUs' admission state with residents of type R.
// The zero value holds no GPUs; AddGPUs grows it.
type Pool[R any] struct {
	gpus  []slot[R]
	clock uint64 // last generation handed out
	total int    // residents across every GPU

	// tree is the first-fit index, nil until the first FirstFit: a
	// complete binary tree over leaves GPUs rounded up to a power of
	// two, root at 1, node i's children at 2i and 2i+1. It stores the
	// internal nodes only; leaf leaves+g is GPU g's own slot.
	tree   []fitNode
	leaves int
}

// fitNode bounds a subtree of GPUs: the minimum over them of each
// quantity a rule adds the candidate's load to. A float minimum is one
// GPU's exact sum, or NaN when any of them is NaN (the builtin min
// propagates it).
type fitNode struct {
	sm, bw float64
	over   int64 // memory sum minus device memory
	n      int32 // resident count
}

// noGPU is the bound of a leaf past the last GPU: the identity of min
// in every field, so a node bounds its real GPUs alone.
var noGPU = fitNode{sm: math.Inf(1), bw: math.Inf(1), over: math.MaxInt64, n: math.MaxInt32}

// slot is one GPU: the fields a first-fit probe reads sit together.
type slot[R any] struct {
	agg interference.Aggregate
	res []R
	gen uint64
}

// Snapshot is one GPU's saved aggregate, residents and generation. The
// zero value is ready; Save reuses its capacity.
type Snapshot[R any] struct {
	agg interference.Snapshot
	res []R
	gen uint64
}

// AddGPUs appends n empty GPUs of the given device, at generation 0.
// The next FirstFit rebuilds the index over the grown pool.
func (p *Pool[R]) AddGPUs(device gpu.DeviceSpec, n int) {
	first := len(p.gpus)
	p.gpus = append(p.gpus, make([]slot[R], n)...)
	for g := first; g < len(p.gpus); g++ {
		p.gpus[g].agg = interference.NewAggregate(device)
	}
	p.tree = nil
}

// changed is the single hook every mutation runs: it advances the
// pool's clock, stamps GPU g with it, and refreshes g's path in the
// index.
//
//repro:hotpath pinned by TestPoolAllocs
func (p *Pool[R]) changed(g int) {
	p.clock++
	p.gpus[g].gen = p.clock
	p.refresh(g)
}

// refresh recomputes GPU g's path in the index once a query has built
// it (O(log GPUs)).
//
//repro:hotpath pinned by TestPoolAllocs
func (p *Pool[R]) refresh(g int) {
	if p.tree != nil {
		for i := (p.leaves + g) >> 1; i > 0; i >>= 1 {
			p.pull(i)
		}
	}
}

// bound returns node i's bound: a tree node's, or for a leaf its GPU's
// own sums read from the slot.
//
//repro:hotpath pinned by TestPoolAllocs
func (p *Pool[R]) bound(i int) fitNode {
	if i < p.leaves {
		return p.tree[i]
	}
	g := i - p.leaves
	if g >= len(p.gpus) {
		return noGPU
	}
	s := &p.gpus[g]
	sm, bw, mem := s.agg.Sums()
	return fitNode{sm: sm, bw: bw, over: mem - s.agg.DeviceMemMiB(), n: int32(len(s.res))}
}

// pull recomputes internal node i from its children.
//
//repro:hotpath pinned by TestPoolAllocs
func (p *Pool[R]) pull(i int) {
	a, b := p.bound(2*i), p.bound(2*i+1)
	p.tree[i] = fitNode{sm: min(a.sm, b.sm), bw: min(a.bw, b.bw), over: min(a.over, b.over), n: min(a.n, b.n)}
}

// build sizes the index for the pool's GPUs and fills it bottom up.
func (p *Pool[R]) build() {
	p.leaves = 1
	for p.leaves < len(p.gpus) {
		p.leaves <<= 1
	}
	//repro:allow:hotpathalloc the index is built once, on the pool's first query
	p.tree = make([]fitNode, p.leaves)
	for i := p.leaves - 1; i > 0; i-- {
		p.pull(i)
	}
}

// FirstFit returns the lowest-index GPU that holds fewer than
// maxResidents residents and where Admit(l) breaks none of the rules
// in rules (compute, bandwidth, capacity), or -1: the answer of
// probing every GPU in index order. It descends the index to the
// leftmost subtree whose bound passes the client cap and every rule in
// rules, and confirms each leaf it reaches with Admit.
//
// A bound is exact: its float fields are single GPUs' sums, so bound +
// l is the addition Admit does for that GPU, and IEEE rounding is
// monotone, so a bound that breaks a rule proves every GPU under it
// breaks it. A NaN sum propagates into its ancestors' bounds, whose
// comparisons then fail, so a NaN GPU is never pruned; it is reached
// and judged by Admit. The memory bound is exact integer arithmetic
// while sums stay far from the int64 limits, which holds when every
// load is at most a device's memory (DESIGN.md §11, "First-fit index").
//
// visits counts the nodes examined, leaves included; probes the leaves
// confirmed with Admit. A non-nil tally also receives the visits and,
// per rule, the GPUs each rejection covered: a pruned subtree's GPUs,
// or one rejected leaf. The index is built on the first call.
//
//repro:hotpath pinned by TestPoolAllocs
func (p *Pool[R]) FirstFit(l interference.Load, maxResidents int, rules interference.RuleMask, tally *obs.ScanTally) (g, visits, probes int) {
	n := len(p.gpus)
	if n == 0 {
		return -1, 0, 0
	}
	if p.tree == nil {
		p.build()
	}
	// A rule outside rules gets a limit no sum can exceed.
	limSM, limBW, limOver := math.Inf(1), math.Inf(1), int64(math.MaxInt64)
	if rules&interference.MaskCompute != 0 {
		limSM = 100
	}
	if rules&interference.MaskBandwidth != 0 {
		limBW = 100
	}
	if rules&interference.MaskCapacity != 0 {
		limOver = 0
	}
	g = -1
	// Node i covers GPUs [i*span-leaves, +span).
	i, span := 1, p.leaves
	for {
		visits++
		var rej interference.RuleMask
		if i >= p.leaves {
			s := &p.gpus[i-p.leaves]
			if len(s.res) >= maxResidents {
				rej = interference.MaskClientCap
			} else {
				probes++
				out := s.agg.Admit(l)
				if rej = out.Rules() & rules; rej == 0 {
					g = i - p.leaves
					break
				}
			}
		} else {
			nd := &p.tree[i]
			if int(nd.n) >= maxResidents {
				rej |= interference.MaskClientCap
			}
			if nd.sm+l.SMPct > limSM {
				rej |= interference.MaskCompute
			}
			if nd.bw+l.BWPct > limBW {
				rej |= interference.MaskBandwidth
			}
			if nd.over+l.MemMiB > limOver {
				rej |= interference.MaskCapacity
			}
			if rej == 0 {
				i, span = 2*i, span>>1
				continue
			}
		}
		if tally != nil {
			lo := i*span - p.leaves
			tally.RejectRange(uint8(rej), int32(min(lo+span, n)-lo))
		}
		// Move to the next subtree to the right: climb while i is a
		// right child, then step to the sibling.
		for i&1 == 1 {
			i, span = i>>1, span<<1
		}
		if i == 0 {
			break
		}
		i++
		if i*span-p.leaves >= n {
			break
		}
	}
	if tally != nil {
		tally.Visit(int32(visits))
	}
	return g, visits, probes
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

// Save copies GPU g's state, generation included, into snap. It
// changes nothing.
//
//repro:hotpath pinned by TestPoolAllocs
func (p *Pool[R]) Save(g int, snap *Snapshot[R]) {
	s := &p.gpus[g]
	s.agg.Save(&snap.agg)
	//repro:allow:hotpathalloc snapshot growth is amortized; a retained snapshot saves allocation-free
	snap.res = append(snap.res[:0], s.res...)
	snap.gen = s.gen
}

// Restore puts GPU g back to snap. The sums are copied, not re-folded,
// so a rolled-back attempt is bit-identical to the state Save saw, and
// g gets back the generation Save saw too: the clock does not advance,
// and a reader comparing Gen with an earlier Clock sees no change. That
// is exact for an undo nobody observed in between, such as a rolled-back
// transaction; a reader that took Clock while g was changed must not
// rely on Gen(g) after the Restore.
//
//repro:hotpath pinned by TestPoolAllocs
func (p *Pool[R]) Restore(g int, snap *Snapshot[R]) {
	s := &p.gpus[g]
	p.total += len(snap.res) - len(s.res)
	s.agg.Restore(&snap.agg)
	//repro:allow:hotpathalloc resident-list growth is amortized; restoring into a sized list is allocation-free
	s.res = append(s.res[:0], snap.res...)
	s.gen = snap.gen
	p.refresh(g)
}

// Touch stamps GPU g with a fresh generation without changing its
// state, for a caller whose admission verdicts on g also read state the
// pool does not hold (the cluster planner's victim rule reads a gang's
// members on other GPUs).
//
//repro:hotpath pinned by TestPoolAllocs
func (p *Pool[R]) Touch(g int) { p.changed(g) }

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

// Gen returns the clock value of GPU g's last change (Add, RemoveAt or
// Touch), or the generation Restore put back.
func (p *Pool[R]) Gen(g int) uint64 { return p.gpus[g].gen }

// Clock returns the pool's latest generation: after a reading c, GPU g
// differs from its state at c only if Gen(g) > c (Restore's caveat
// aside), and every later change stamps a value above c.
func (p *Pool[R]) Clock() uint64 { return p.clock }

// Total returns the resident count over every GPU.
func (p *Pool[R]) Total() int { return p.total }
