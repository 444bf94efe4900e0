// Package admission keeps the per-GPU admission state both dispatchers
// share: each GPU's interference aggregate, its residents in the
// aggregate's fold order, a change generation that one changed(g) path
// stamps on every mutation, and the residents' completion timeline.
// Each GPU belongs to a Class, the rules and caps by which it judges a
// candidate; FirstFit finds the first GPU in the pool that admits a
// load under its own class, from an index, in one walk; Gen and Clock
// let a caller tell which GPUs changed since it last looked (the
// cluster planner's held gangs do). Two more summaries
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
	"slices"

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
	classes  []Class       // the GPUs' distinct classes
	classOf  []int32       // each GPU's index in classes; nil while there is one
	clock    uint64        // last generation handed out
	total    int           // residents across every GPU
	timeline eventq.Queue  // pending completions by (end, schedule order)
	free     []*completion // recycled completion payloads

	// The first-fit index, nil until the first FirstFit: a complete
	// binary tree over leaves GPUs rounded up to a power of two, root at
	// 1, node i's children at 2i and 2i+1. Each internal node holds one
	// entry per class with a GPU under it, and no other: ents[e] bounds
	// the class's GPUs under the node and info[e] names the class, counts
	// those GPUs and links the entry to its neighbours. Node i's entries
	// are ents[off[i+1]:off[i]], laid out from the last node up to the
	// root, in the order their classes first appear among the node's
	// GPUs, so a node over two GPUs of two classes lists the left GPU's
	// first. ents[0] is noGPU and info[0] no class: the entry a link
	// names when there is none. A pool of one class keeps node i's one
	// entry at ents[i] instead, noGPU where the node holds no GPU, with
	// no info or off: the layout and the arithmetic of a plain tree. A
	// leaf leaves+g is GPU g's own slot. fit is the current FirstFit
	// call, with each class's limits.
	ents   []fitNode
	info   []entry
	off    []int32
	fit    fitQuery
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

// fitNode bounds one class's GPUs under an index node: the minimum over
// them of each quantity a rule adds the candidate's load to. A float
// minimum is one GPU's exact sum, or NaN when any of them is NaN (the
// builtin min propagates it). Four fields keep it in registers: the
// compiler decomposes a struct of at most four fields, and copies a
// larger one through memory on every pass of the walk and the refresh.
type fitNode struct {
	sm, bw float64
	over   int64 // memory sum minus device memory
	n      int32 // resident count
}

// noGPU is the bound of a class with no GPU under a node: the identity
// of min in every field, so a node bounds its real GPUs alone. No query
// passes it: its resident count is at every client cap (limit.set).
var noGPU = fitNode{sm: math.Inf(1), bw: math.Inf(1), over: math.MaxInt64, n: math.MaxInt32}

// minBound is the bound over the GPUs of a and of b.
//
//repro:hotpath pinned by TestPoolAllocs
func minBound(a, b fitNode) fitNode {
	return fitNode{sm: min(a.sm, b.sm), bw: min(a.bw, b.bw), over: min(a.over, b.over), n: min(a.n, b.n)}
}

// entry is one class's place in an index node: the class, its GPUs
// under the node, and the entry of the same class in the parent node
// (up, 0 at the root) and in the sibling node (sib, 0 when the sibling
// holds no GPU of the class). A refresh climbs up, taking each parent's
// bound as the minimum of an entry's and its sibling's.
type entry struct {
	class, n int32
	up, sib  int32
}

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

// Class is how a GPU judges a candidate load l: it admits l when it
// holds fewer than MaxResidents residents, l needs at most MemMiB of
// memory, and Admit adds l, its SM demand capped at SMCap, without
// breaking any of Rules. SMCap is +Inf and MemMiB MaxInt64 for a GPU
// without such a limit. A candidate over MemMiB breaks MaskCapacity
// whatever the GPU holds (a memory partition smaller than it).
type Class struct {
	MaxResidents int
	Rules        interference.RuleMask
	SMCap        float64
	MemMiB       int64
}

// Load returns l as class c admits and places it: SM demand above SMCap
// is clamped to it, which bounds the pressure one client can exert.
func (c *Class) Load(l interference.Load) interference.Load {
	if l.SMPct > c.SMCap {
		l.SMPct = c.SMCap
	}
	return l
}

// AddGPUs appends n empty GPUs of the given device and class, at
// generation 0. GPUs added with equal classes share one; the index
// costs memory in the classes each index node's GPUs span, not in the
// class count. The next FirstFit rebuilds the index over the grown pool.
func (p *Pool[R]) AddGPUs(device gpu.DeviceSpec, n int, class Class) {
	c := slices.Index(p.classes, class)
	if c < 0 {
		c = len(p.classes)
		p.classes = append(p.classes, class)
	}
	first := len(p.gpus)
	p.gpus = append(p.gpus, make([]slot[R], n)...)
	for g := first; g < len(p.gpus); g++ {
		p.gpus[g].agg = interference.NewAggregate(device)
	}
	if c > 0 && p.classOf == nil {
		p.classOf = make([]int32, first, first+n) // every earlier GPU is of class 0
	}
	if p.classOf != nil {
		for range n {
			p.classOf = append(p.classOf, int32(c))
		}
	}
	p.ents, p.gens = nil, nil
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
	if p.ents != nil {
		p.refreshFit(g)
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

// refreshFit recomputes the bound of g's class on g's path: the entry
// at the leaf level from the two GPUs' slots, then each entry up from
// the one below and its sibling. No other class's bound depends on g,
// and no node's classes or GPU counts change.
//
//repro:hotpath pinned by TestPoolAllocs
func (p *Pool[R]) refreshFit(g int) {
	i := (p.leaves + g) >> 1
	if i == 0 {
		return // one GPU: the root is its leaf
	}
	if p.info == nil { // one class
		p.ents[i] = minBound(p.leafBound(2*i-p.leaves, 0), p.leafBound(2*i+1-p.leaves, 0))
		for i >>= 1; i > 0; i >>= 1 {
			p.ents[i] = minBound(p.ents[2*i], p.ents[2*i+1])
		}
		return
	}
	e := p.leafEntry(i, g)
	c := int(p.classAt(g))
	p.ents[e] = minBound(p.leafBound(2*i-p.leaves, c), p.leafBound(2*i+1-p.leaves, c))
	for {
		in := p.info[e]
		if in.up == 0 {
			return
		}
		p.ents[in.up] = minBound(p.ents[e], p.ents[in.sib])
		e = in.up
	}
}

// leafEntry returns the entry of GPU g's class in i, g's parent: the
// second of two entries for a right GPU of the other class, else the
// first.
//
//repro:hotpath pinned by TestPoolAllocs
func (p *Pool[R]) leafEntry(i, g int) int32 {
	e := p.off[i+1]
	if p.off[i]-e == 2 {
		e += int32(g & 1)
	}
	return e
}

// classAt returns GPU g's index in classes.
//
//repro:hotpath pinned by TestPoolAllocs
func (p *Pool[R]) classAt(g int) int32 {
	if p.classOf == nil {
		return 0
	}
	return p.classOf[g]
}

// isClass is 1 when GPU g exists and is of class c, else 0.
func (p *Pool[R]) isClass(g, c int) int32 {
	if g < len(p.gpus) && int(p.classAt(g)) == c {
		return 1
	}
	return 0
}

// leafBound returns GPU g's own sums as class c's bound, or noGPU when
// g is past the last GPU or of another class.
//
//repro:hotpath pinned by TestPoolAllocs
func (p *Pool[R]) leafBound(g, c int) fitNode {
	if g >= len(p.gpus) || int(p.classAt(g)) != c {
		return noGPU
	}
	s := &p.gpus[g]
	sm, bw, mem := s.agg.Sums()
	return fitNode{sm: sm, bw: bw, over: mem - s.agg.DeviceMemMiB(), n: int32(len(s.res))}
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

// build sizes the index for the pool's GPUs and fills it bottom up, in
// one pass over the nodes: a node at the leaf level lists its GPUs'
// classes, and a node above lists its left child's entries and then
// the right child's classes the left lacks, taking the minimum and the
// sum where both children hold the class. The entries number at most
// the GPUs plus, per level, the class changes between neighbouring
// GPUs. A pool of one class gets the plain tree instead.
func (p *Pool[R]) build() {
	p.size()
	leaves, k := p.leaves, len(p.classes)
	//repro:allow:hotpathalloc the limits are sized once, with the index
	p.fit.lims = make([]limit, k)
	p.fit.classes = p.classes
	if k == 1 {
		p.info, p.off = nil, nil
		//repro:allow:hotpathalloc the index is built once, on the pool's first query
		p.ents = make([]fitNode, leaves)
		for i := leaves - 1; i > 0; i-- {
			if l := 2*i - leaves; l >= 0 {
				p.ents[i] = minBound(p.leafBound(l, 0), p.leafBound(l+1, 0))
			} else {
				p.ents[i] = minBound(p.ents[2*i], p.ents[2*i+1])
			}
		}
		return
	}
	//repro:allow:hotpathalloc the index is built once, on the pool's first query
	p.off = make([]int32, leaves+1)
	//repro:allow:hotpathalloc the index is built once, on the pool's first query
	p.ents = append(make([]fitNode, 0, leaves), noGPU)
	//repro:allow:hotpathalloc the index is built once, on the pool's first query
	p.info = make([]entry, 1, leaves)
	// stamp[c] is the last node that listed class c, and at[c] and
	// from[c] its entry there and the child entry that created it.
	//repro:allow:hotpathalloc build scratch, once per index
	scratch := make([]int32, 3*k)
	stamp, at, from := scratch[:k], scratch[k:2*k], scratch[2*k:]
	p.off[leaves] = 1
	for i := leaves - 1; i > 0; i-- {
		if l := 2*i - leaves; l >= 0 {
			for g := l; g < min(l+2, len(p.gpus)); g++ {
				c := p.classOf[g]
				if stamp[c] != int32(i) {
					stamp[c] = int32(i)
					//repro:allow:hotpathalloc the index is built once, on the pool's first query
					p.ents = append(p.ents, minBound(p.leafBound(l, int(c)), p.leafBound(l+1, int(c))))
					//repro:allow:hotpathalloc the index is built once, on the pool's first query
					p.info = append(p.info, entry{class: c, n: p.isClass(l, int(c)) + p.isClass(l+1, int(c))})
				}
			}
		} else {
			for child := 2 * i; child <= 2*i+1; child++ {
				for e := p.off[child+1]; e < p.off[child]; e++ {
					c := p.info[e].class
					if stamp[c] != int32(i) {
						stamp[c], at[c], from[c] = int32(i), int32(len(p.ents)), e
						//repro:allow:hotpathalloc the index is built once, on the pool's first query
						p.ents = append(p.ents, p.ents[e])
						//repro:allow:hotpathalloc the index is built once, on the pool's first query
						p.info = append(p.info, entry{class: c, n: p.info[e].n})
					} else {
						up, left := at[c], from[c]
						p.ents[up] = minBound(p.ents[up], p.ents[e])
						p.info[up].n += p.info[e].n
						p.info[left].sib, p.info[e].sib = e, left
					}
					p.info[e].up = at[c]
				}
			}
		}
		p.off[i] = int32(len(p.ents))
	}
}

// limit is a class's judgement of one load as the walk compares bounds
// against it. A bound is judged against fixed limits, 100 for the SM
// and bandwidth sums and 0 for the memory excess, with a rule outside
// the class's rules turned off in the load it adds instead: -Inf for a
// float sum (bound - Inf is -Inf, or NaN for a +Inf bound, and neither
// exceeds 100) and -2^62 for the memory excess, which keeps every sum
// far from 0 and from the int64 limits. The client cap is at most MaxInt32, the resident count
// noGPU holds, so that bound never passes; a class the load is over
// MemMiB for is off, with cap 0, which no count is below. The leaf
// keeps the class's load and rules for Admit. call is the FirstFit call
// the limits were set for.
type limit struct {
	sm, bw     float64 // the SM and bandwidth loads a bound adds
	mem        int64   // the memory load a bound's excess adds
	cap        int
	l          interference.Load
	rules, off interference.RuleMask
	call       uint64
}

// fitQuery is a FirstFit call: its load, its number, and the pool's
// classes and their limits for it.
type fitQuery struct {
	l       interference.Load
	call    uint64
	classes []Class
	lims    []limit
}

// lim returns class c's limits for the call, setting them on the call's
// first use of c: a walk that meets few of many classes sets few.
//
//repro:hotpath pinned by TestPoolAllocs
func (q *fitQuery) lim(c int32) *limit {
	if q.lims[c].call != q.call {
		q.set(c)
	}
	return &q.lims[c]
}

// set derives class c's limits for the call's load.
//
//repro:hotpath pinned by TestPoolAllocs
func (q *fitQuery) set(c int32) {
	lim, cl, l := &q.lims[c], &q.classes[c], q.l
	lim.call, lim.off, lim.cap = q.call, 0, min(cl.MaxResidents, math.MaxInt32)
	if l.MemMiB > cl.MemMiB {
		lim.off, lim.cap = interference.MaskCapacity, 0
	}
	lim.l, lim.rules = cl.Load(l), cl.Rules
	lim.sm, lim.bw, lim.mem = math.Inf(-1), math.Inf(-1), -1<<62
	if cl.Rules&interference.MaskCompute != 0 {
		lim.sm = lim.l.SMPct
	}
	if cl.Rules&interference.MaskBandwidth != 0 {
		lim.bw = lim.l.BWPct
	}
	if cl.Rules&interference.MaskCapacity != 0 {
		lim.mem = lim.l.MemMiB
	}
}

// passes reports whether bound nd could hold a GPU that admits under
// lim: it is under the client cap and adding the load breaks no limit.
// A NaN sum fails no comparison, so it passes.
//
//repro:hotpath pinned by TestPoolAllocs
func (lim *limit) passes(nd *fitNode) bool {
	return int(nd.n) < lim.cap && !(nd.sm+lim.sm > 100) && !(nd.bw+lim.bw > 100) && !(nd.over+lim.mem > 0)
}

// reject returns the rules bound nd breaks under lim, nonzero exactly
// when passes is false: MaskCapacity for an off class, else the client
// cap and each rule whose limit the bound exceeds.
//
//repro:hotpath pinned by TestPoolAllocs
func (lim *limit) reject(nd *fitNode) interference.RuleMask {
	if lim.off != 0 {
		return lim.off
	}
	var rej interference.RuleMask
	if int(nd.n) >= lim.cap {
		rej |= interference.MaskClientCap
	}
	if nd.sm+lim.sm > 100 {
		rej |= interference.MaskCompute
	}
	if nd.bw+lim.bw > 100 {
		rej |= interference.MaskBandwidth
	}
	if nd.over+lim.mem > 0 {
		rej |= interference.MaskCapacity
	}
	return rej
}

// FirstFit returns the lowest-index GPU that admits load l under its
// class, or -1: the answer of judging every GPU in index order (Class).
//
// The walk starts at the root and descends to the leftmost subtree
// where some class's bound passes that class's limits for l; a subtree
// where every class's bound fails is stepped over. A leaf is judged
// under its own class: a class l is over MemMiB for, or a full GPU,
// rejects at once, a GPU whose parent's bound of its class fails
// rejects without a probe, and any other GPU is confirmed with Admit.
// The first leaf that passes is the answer. Each class's limits are
// derived from l once per call, when the walk first meets the class.
//
// A bound is exact: its float fields are single GPUs' sums, so bound +
// l is the addition Admit does for that GPU, and IEEE rounding is
// monotone, so a class's bound that breaks a rule proves every GPU of
// the class under it breaks it. A NaN sum propagates into its
// ancestors' bounds, whose comparisons then fail, so a NaN GPU is never
// pruned; it is reached and judged by Admit. The memory bound is exact
// integer arithmetic while sums stay far from the int64 limits, which
// holds when every load is at most a device's memory (DESIGN.md §11,
// "First-fit index").
//
// visits counts the nodes examined, leaves included; probes the leaves
// confirmed with Admit. A non-nil tally also receives the visits and,
// per rule, the GPUs each rejection covered: those of each class under
// a pruned subtree, or one rejected leaf; together they cover every GPU
// left of the answer once. The index is built on the first call.
//
//repro:hotpath pinned by TestPoolAllocs
func (p *Pool[R]) FirstFit(l interference.Load, tally *obs.ScanTally) (g, visits, probes int) {
	n := len(p.gpus)
	if n == 0 {
		return -1, 0, 0
	}
	if p.ents == nil {
		p.build()
	}
	ents, info, off, leaves := p.ents, p.info, p.off, p.leaves
	q := &p.fit
	q.l, q.call = l, q.call+1
	// In a pool of one class, one is its limits (and ents a plain tree).
	var one *limit
	if info == nil {
		one = q.lim(0)
	}
	g = -1
	// Node i covers GPUs [i*span-leaves, (i+1)*span-leaves). Its first
	// skip entries are known to fail: see the descent below.
	i, span, skip := 1, leaves, int32(0)
	for {
		visits++
		if i >= leaves {
			s := &p.gpus[i-leaves]
			lim := one
			if lim == nil {
				lim = q.lim(p.classOf[i-leaves])
			}
			var rej interference.RuleMask
			switch {
			case lim.off != 0:
				rej = lim.off
			case len(s.res) >= lim.cap:
				rej = interference.MaskClientCap
			case one == nil && i > 1 && off[i>>1]-off[i>>1+1] == 2 && !lim.passes(&ents[p.leafEntry(i>>1, i)]):
				// The walk came down for the other GPU's class: this
				// GPU's own class fails at its parent.
				rej = lim.reject(&ents[p.leafEntry(i>>1, i)])
			default:
				probes++
				if rej = s.agg.Admit(lim.l) & lim.rules; rej == 0 {
					g = i - leaves
				}
			}
			if g >= 0 {
				break
			}
			if tally != nil {
				tally.RejectRange(uint8(rej), 1)
			}
		} else if one != nil {
			if one.passes(&ents[i]) {
				i, span = 2*i, span>>1
				continue
			}
			if tally != nil {
				tally.RejectRange(uint8(one.reject(&ents[i])), int32(min(span, n-(i*span-leaves))))
			}
		} else {
			e, end := off[i+1]+skip, off[i]
			for e < end && !q.lim(info[e].class).passes(&ents[e]) {
				e++
			}
			if e < end {
				// The walk descends to the left child, whose entries are
				// the first of this node's, in the same order. Those
				// before e failed here, and a class that fails at a node
				// fails under it, where its bound is a minimum over fewer
				// GPUs: the child skips them.
				i, span, skip = 2*i, span>>1, e-off[i+1]
				continue
			}
			if tally != nil {
				for e := off[i+1]; e < off[i]; e++ {
					tally.RejectRange(uint8(q.lim(info[e].class).reject(&ents[e])), info[e].n)
				}
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
		i, skip = i+1, 0
		if i*span-leaves >= n {
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
