// Package admission keeps the per-GPU admission state both dispatchers
// share: each GPU's interference aggregate, its residents in the
// aggregate's fold order, a change generation that one changed(g) path
// stamps on every mutation, and the residents' completion timeline.
// FirstFit answers a first-fit query over a range of those GPUs from an
// index; Gen and Clock let a caller tell which GPUs changed since it
// last looked (the cluster planner's held gangs do). Two more summaries
// ride on the index's layout for a pool that asks for them: NextChanged
// walks only the GPUs changed since a clock reading, and NextBelow only
// the GPUs holding a resident whose key (KeyBy) is below a bound, which
// is how the cluster finds the GPUs a preemptor has victims on. Policy —
// which rules apply, client caps, flight records, transaction journals
// — stays with the caller (DESIGN.md "Admission pool", "First-fit
// index", "Change-driven rounds").
package admission

import (
	"math"
	"math/bits"

	"gpushare/internal/eventq"
	"gpushare/internal/gpu"
	"gpushare/internal/interference"
	"gpushare/internal/obs"
)

// Pool is a fleet of GPUs' admission state with residents of type R.
// The zero value holds no GPUs; AddGPUs grows it. A pool builds only
// the summaries its queries read: the first-fit index on the first
// FirstFit, the changed-GPU index on the first NextChanged, and the
// victim key when KeyBy asks for it. A pool that only runs FirstFit
// pays a nil check per mutation for each of the other two.
type Pool[R Resident] struct {
	gpus     []slot[R]
	clock    uint64        // last generation handed out
	total    int           // residents across every GPU
	timeline eventq.Queue  // pending completions by (end, schedule order)
	free     []*completion // recycled completion payloads

	// tree is the first-fit index, nil until the first FirstFit: a
	// complete binary tree over leaves GPUs rounded up to a power of
	// two, root at 1, node i's children at 2i and 2i+1. It stores the
	// internal nodes only; leaf leaves+g is GPU g's own slot.
	tree   []fitNode
	leaves int

	// The per-node extrema NextChanged and NextBelow descend, on the
	// same layout. gens[i] is the maximum generation under internal
	// node i, nil until the first NextChanged; a leaf reads its slot's
	// gen. key is KeyBy's function, nil until it is called, and keys[i]
	// the minimum key under node i, leaves included: leaf leaves+g is
	// the minimum of key over GPU g's residents, MaxInt for a GPU
	// without any. keys is nil while key is.
	gens []uint64
	key  func(R) int
	keys []int
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
	p.tree, p.gens = nil, nil
	if p.key != nil {
		p.buildKeys()
	}
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

// refresh recomputes GPU g's path in each index a query has built
// (O(log GPUs)), and g's key from its residents. The two summaries stop
// where a node comes out unchanged: its ancestors depend on nothing
// else that moved.
//
//repro:hotpath pinned by TestPoolAllocs
func (p *Pool[R]) refresh(g int) {
	if p.tree != nil {
		for i := (p.leaves + g) >> 1; i > 0; i >>= 1 {
			p.pull(i)
		}
	}
	if p.keys != nil {
		i := p.leaves + g
		p.keys[i] = p.foldKey(g)
		for i >>= 1; i > 0; i >>= 1 {
			k := min(p.keys[2*i], p.keys[2*i+1])
			if k == p.keys[i] {
				break
			}
			p.keys[i] = k
		}
	}
	if p.gens != nil {
		for i := (p.leaves + g) >> 1; i > 0; i >>= 1 {
			c := max(p.genOf(2*i), p.genOf(2*i+1))
			if c == p.gens[i] {
				break
			}
			p.gens[i] = c
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

// size sets leaves to the GPU count rounded up to a power of two: the
// layout every index array shares. AddGPUs drops or rebuilds every
// array, so the ones that exist always agree on it.
func (p *Pool[R]) size() {
	p.leaves = 1
	for p.leaves < len(p.gpus) {
		p.leaves <<= 1
	}
}

// build sizes the index for the pool's GPUs and fills it bottom up.
func (p *Pool[R]) build() {
	p.size()
	//repro:allow:hotpathalloc the index is built once, on the pool's first query
	p.tree = make([]fitNode, p.leaves)
	for i := p.leaves - 1; i > 0; i-- {
		p.pull(i)
	}
}

// FirstFit returns the lowest-index GPU in [lo, hi), where 0 <= lo and
// hi <= GPUs(), that holds fewer than maxResidents residents and where
// Admit(l) breaks none of the rules in rules (compute, bandwidth,
// capacity), or -1: the answer of probing every GPU of the range in
// index order. It starts at the lowest index node covering the range,
// found in O(1), descends to the leftmost subtree meeting the range
// whose bound passes the client cap and every rule in rules, and
// confirms each leaf it reaches with Admit; a subtree wholly left of lo
// is stepped over unexamined. A range of one aligned subtree starts at
// that subtree, so a query [0, GPUs()) starts at the root.
//
// A bound is exact: its float fields are single GPUs' sums, so bound +
// l is the addition Admit does for that GPU, and IEEE rounding is
// monotone, so a bound that breaks a rule proves every GPU under it
// breaks it, those in the range included: a subtree reaching past the
// range bounds a superset, whose minimum is no greater than the
// range's. The walk starting below the root loses no pruning either:
// an ancestor of the covering node bounds a superset of it, so where
// the ancestor would prune, the covering node prunes too. A NaN sum
// propagates into its ancestors' bounds, whose comparisons then fail,
// so a NaN GPU is never pruned; it is reached and judged by Admit. The
// memory bound is exact integer arithmetic while sums stay far from the
// int64 limits, which holds when every load is at most a device's
// memory (DESIGN.md §11, "First-fit index").
//
// visits counts the nodes examined, leaves included; probes the leaves
// confirmed with Admit. A non-nil tally also receives the visits and,
// per rule, the range's GPUs each rejection covered: those under a
// pruned subtree, or one rejected leaf. The index is built on the
// first call.
//
//repro:hotpath pinned by TestPoolAllocs
func (p *Pool[R]) FirstFit(lo, hi int, l interference.Load, maxResidents int, rules interference.RuleMask, tally *obs.ScanTally) (g, visits, probes int) {
	if lo >= hi {
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
	// Node i covers GPUs [first, first+span), first = i*span-leaves. The
	// walk starts at the lowest node covering [lo, hi): the leaves of lo
	// and hi-1 share their ancestors above the highest bit where their
	// indices differ. Stepping right out of that node passes hi, which
	// ends the walk.
	h := bits.Len(uint((p.leaves + lo) ^ (p.leaves + hi - 1)))
	i, span := (p.leaves+lo)>>h, 1<<h
	for {
		if first := i*span - p.leaves; first+span > lo {
			visits++
			var rej interference.RuleMask
			if i >= p.leaves {
				s := &p.gpus[first]
				if len(s.res) >= maxResidents {
					rej = interference.MaskClientCap
				} else {
					probes++
					if rej = s.agg.Admit(l) & rules; rej == 0 {
						g = first
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
				tally.RejectRange(uint8(rej), int32(min(first+span, hi)-max(first, lo)))
			}
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
		if i*span-p.leaves >= hi {
			break
		}
	}
	if tally != nil {
		tally.Visit(int32(visits))
	}
	return g, visits, probes
}

// genOf returns the maximum generation under node i: a tree node's,
// a GPU's own, or 0 for a leaf past the last GPU, which no reading of
// the clock is below.
//
//repro:hotpath pinned by TestPoolAllocs
func (p *Pool[R]) genOf(i int) uint64 {
	if i < p.leaves {
		return p.gens[i]
	}
	if g := i - p.leaves; g < len(p.gpus) {
		return p.gpus[g].gen
	}
	return 0
}

// foldKey is the minimum key over GPU g's residents, MaxInt for none.
//
//repro:hotpath pinned by TestPoolAllocs
func (p *Pool[R]) foldKey(g int) int {
	k := math.MaxInt
	for _, r := range p.gpus[g].res {
		//repro:allow:hotpathalloc the key reads its resident; TestPoolAllocs and the cluster's TestClusterAdmitAllocs pin the keys in use at zero allocations
		k = min(k, p.key(r))
	}
	return k
}

// KeyBy makes the pool keep, per GPU, the minimum of key over its
// residents, and per index node the minimum over its GPUs, for Key and
// NextBelow. key must be a pure function of the resident: the pool
// folds it again whenever the GPU changes (Add, RemoveAt, Touch,
// Restore), and at no other time, so a key that read state outside the
// resident could go stale. Call it once, at setup.
func (p *Pool[R]) KeyBy(key func(R) int) {
	p.key = key
	p.buildKeys()
}

// buildKeys sizes the key array for the pool's GPUs and fills it
// bottom up.
func (p *Pool[R]) buildKeys() {
	p.size()
	p.keys = make([]int, 2*p.leaves)
	for g := range p.keys[p.leaves:] {
		k := math.MaxInt
		if g < len(p.gpus) {
			k = p.foldKey(g)
		}
		p.keys[p.leaves+g] = k
	}
	for i := p.leaves - 1; i > 0; i-- {
		p.keys[i] = min(p.keys[2*i], p.keys[2*i+1])
	}
}

// Key returns the minimum key over GPU g's residents (MaxInt for none).
// The pool must have a key (KeyBy).
func (p *Pool[R]) Key(g int) int { return p.keys[p.leaves+g] }

// NextBelow returns the first GPU at or after from whose key is below
// k, or -1: the GPUs holding a resident keyed below k, in index order.
// Each call costs O(log GPUs) in the distance it skips. The pool must
// have a key (KeyBy).
//
//repro:hotpath pinned by TestPoolAllocs
func (p *Pool[R]) NextBelow(k, from int) int {
	if from >= len(p.gpus) {
		return -1
	}
	keys := p.keys
	i := p.leaves + from
	if keys[i] < k {
		return from
	}
	for {
		// Climb while i is a right child, then step to the sibling.
		for i&1 == 1 {
			i >>= 1
		}
		if i == 0 {
			return -1
		}
		i++
		if keys[i] < k {
			for i < p.leaves {
				if i *= 2; keys[i] >= k {
					i++
				}
			}
			return i - p.leaves
		}
	}
}

// NextChanged returns the first GPU at or after from with Gen > c, or
// -1: the GPUs changed since a Clock reading c, in index order, at
// O(log GPUs) per call. Restore's caveat holds: read c only while no
// GPU is saved. The changed-GPU index is built on the first call.
//
//repro:hotpath pinned by TestPoolAllocs
func (p *Pool[R]) NextChanged(c uint64, from int) int {
	if from >= len(p.gpus) {
		return -1
	}
	if p.gens == nil {
		p.buildGens()
	}
	if p.gpus[from].gen > c {
		return from
	}
	i := p.leaves + from
	for {
		for i&1 == 1 {
			i >>= 1
		}
		if i == 0 {
			return -1
		}
		i++
		if p.genOf(i) > c {
			for i < p.leaves {
				if i *= 2; p.genOf(i) <= c {
					i++
				}
			}
			return i - p.leaves
		}
	}
}

// buildGens sizes the changed-GPU index for the pool's GPUs and fills
// it bottom up.
func (p *Pool[R]) buildGens() {
	p.size()
	//repro:allow:hotpathalloc the changed-GPU index is built once, on the pool's first query
	p.gens = make([]uint64, p.leaves)
	for i := p.leaves - 1; i > 0; i-- {
		p.gens[i] = max(p.genOf(2*i), p.genOf(2*i+1))
	}
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

// AdmitExcluding returns the rules GPU g breaks with the residents skip
// marks left out and l added, without changing anything.
func (p *Pool[R]) AdmitExcluding(g int, l interference.Load, skip []bool) interference.RuleMask {
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
