package cluster

import (
	"cmp"
	"fmt"
	"slices"

	"gpushare/internal/interference"
	"gpushare/internal/obs"
	"gpushare/internal/simtime"
)

// The cluster admission loop. One event loop advances simulated time
// over arrivals and completions; at every instant a dispatch round
// drains as many queued gangs as fit. Gang placement is a journal
// transaction over the admission pool: members place one by one
// (evicting lower-priority gangs when preemption is on), and the first
// member that cannot be placed rolls the whole attempt back — admission
// is all-or-nothing by construction. A held gang keeps the shape of its
// failed attempt, and a later round reruns the transaction only when a
// GPU the gang could use has changed since (holdStands).

// run drives the event loop to completion.
func (st *planner) run() {
	now := simtime.Zero
	next := 0
	for {
		for next < len(st.jobs) && st.jobs[next].at <= now {
			st.enqueue(st.jobs[next])
			next++
		}
		st.dispatchRound(now)

		hasArr := next < len(st.jobs)
		var tArr simtime.Time
		if hasArr {
			tArr = st.jobs[next].at
		}
		tComp, hasComp := st.pool.NextCompletion()
		if !hasArr && !hasComp {
			return
		}
		if st.queuedAny() {
			st.stats.Waits++
		}
		if hasComp && (!hasArr || tComp <= tArr) {
			now = tComp
			// Retire every completion at this instant before the next
			// round. Aggregate removal re-folds the survivors in
			// insertion order, so the post-batch state is independent of
			// pop order within the batch.
			for _, r, ok := st.pool.Retire(now); ok; _, r, ok = st.pool.Retire(now) {
				st.retire(r, now)
			}
		} else {
			now = tArr
		}
	}
}

// enqueue appends a job to its tenant's queue.
func (st *planner) enqueue(j *job) {
	t := j.tenant
	t.queue.PushBack(j)
	t.maxDepth = max(t.maxDepth, t.queue.Len())
	if st.fl != nil {
		st.fl.Record(obs.FlightRecord{
			Seq:      int64(j.seq),
			Kind:     obs.FlightArrival,
			AtNS:     int64(j.at),
			Tenant:   t.spec.Name,
			Workflow: j.sub.Gang.Name,
			GPU:      -1,
		})
	}
}

// queuedAny reports whether any tenant has waiting jobs.
func (st *planner) queuedAny() bool {
	for _, t := range st.tenants {
		if t.queue.Len() > 0 {
			return true
		}
	}
	return false
}

// retire books one completed member, which the pool's Retire has
// removed from its GPU by serial.
func (st *planner) retire(r *resident, now simtime.Time) {
	st.stats.Completions++

	j := r.job
	first := j.liveCount == len(j.members)
	j.liveCount--
	k := slices.Index(j.residents, r)
	j.residents = slices.Delete(j.residents, k, k+1)
	st.releaseResident(r)
	if first {
		// The gang stops being victimable (liveCount < members), which
		// can turn a what-if on any GPU it still occupies: stamp them,
		// so held gangs re-check those GPUs.
		for _, o := range j.residents {
			st.pool.Touch(o.gpu)
		}
	}
	if j.liveCount > 0 {
		return
	}
	sum := JobSummary{
		Tenant:      j.tenant.spec.Name,
		Gang:        j.sub.Gang.Name,
		ArrivalS:    j.at.Seconds(),
		CompletionS: now.Seconds(),
		MakespanS:   now.Sub(j.at).Seconds(),
		WaitedS:     j.lastWaitS,
		Preemptions: j.preemptions,
	}
	st.out.Jobs = append(st.out.Jobs, sum)
	ts := &j.tenant.stat
	ts.Jobs++
	ts.MeanWaitS += sum.WaitedS // divided by Jobs in finish
	if sum.WaitedS > ts.MaxWaitS {
		ts.MaxWaitS = sum.WaitedS
	}
	ts.MeanMakespanS += sum.MakespanS
	// Service time is the resident phase of the makespan: completion
	// minus arrival minus the final dispatch's queueing delay.
	j.tenant.serviceHist.Observe(int64((sum.MakespanS - sum.WaitedS) * 1000))
}

// dispatchRound places queued gangs until no eligible tenant's head
// fits. A tenant whose head fails placement is blocked for the round
// (head-of-line order within a tenant is strict), but other tenants keep
// going — the round is work-conserving.
func (st *planner) dispatchRound(now simtime.Time) {
	for _, t := range st.tenants {
		t.blocked = false
	}
	for {
		t := st.pickTenant()
		if t == nil {
			return
		}
		// Pop the head before attempting: a successful placement may
		// requeue evicted victims at the front of this same queue, so a
		// pop afterwards could remove the wrong job.
		j := t.queue.PopFront()
		stands, rechecked := st.holdStands(j)
		if stands {
			if shadowSkips {
				st.shadowRetry(j, now)
			}
			j.hold.clock = st.pool.Clock()
		} else if st.tryPlaceGang(j, now) {
			continue
		}
		if st.pool.Total() == 0 {
			// The gang fails against a fully idle cluster: it can never
			// be admitted. Fail it permanently instead of wedging the
			// tenant's queue forever.
			t.stat.Failed++
			st.out.Failed = append(st.out.Failed, FailedJob{
				Tenant: t.spec.Name,
				Gang:   j.sub.Gang.Name,
				Reason: "does not fit an idle cluster",
			})
			if st.fl != nil {
				st.fl.Record(obs.FlightRecord{
					Seq:      int64(j.seq),
					Kind:     obs.FlightReject,
					AtNS:     int64(now),
					Tenant:   t.spec.Name,
					Workflow: j.sub.Gang.Name,
					GPU:      -1,
					Detail:   "does not fit an idle cluster",
				})
			}
			continue
		}
		// Held: back to the front of the queue, into the slot its pop
		// left, tenant blocked for the round.
		t.queue.PushFront(j)
		t.blocked = true
		st.stats.GangHolds++
		if stands {
			st.stats.HoldSkips++
		}
		if st.fl != nil {
			st.recordHold(j, now, stands, rechecked)
		}
	}
}

// recordHold records that gang j stays queued at now. A skipped retry
// says so in Detail ("unchanged") and counts the changed GPUs it
// re-checked in Clients.
//
//repro:hotpath pinned by TestClusterAdmitAllocs
func (st *planner) recordHold(j *job, now simtime.Time, skipped bool, rechecked int) {
	rec := obs.FlightRecord{
		Seq:      int64(j.seq),
		Kind:     obs.FlightHold,
		AtNS:     int64(now),
		Tenant:   j.tenant.spec.Name,
		Workflow: j.sub.Gang.Name,
		GPU:      -1,
	}
	if skipped {
		rec.Detail = "unchanged"
		rec.Clients = int32(rechecked)
	}
	st.fl.Record(rec)
}

// holdStands reports whether gang j's last failed attempt would fail
// again, at the same member with the same earlier placements, against
// the pool as it stands, so the round can hold j without rerunning the
// transaction; it also returns how many changed GPUs it re-checked. The
// attempt stands unless a GPU it touched has changed since, or a
// changed GPU z could alter one of its verdicts: it admits the failed
// member directly or (with preemption) after evictions; it admits an
// earlier member directly that was placed directly on a later GPU; or
// it admits an earlier member that was placed by eviction, directly
// or, before that member's GPU, after evictions. DESIGN.md §13
// ("Change-driven rounds") proves that nothing else can change the
// attempt's course.
//
//repro:hotpath pinned by TestClusterAdmitAllocs
func (st *planner) holdStands(j *job) (stands bool, rechecked int) {
	h := &j.hold
	if !h.valid {
		return false, 0
	}
	for _, g := range h.touched {
		if st.pool.Gen(g) > h.clock {
			return false, 0
		}
	}
	probes := st.stats.Probes
	stands = true
	for z := st.pool.NextChanged(h.clock, 0); z >= 0; z = st.pool.NextChanged(h.clock, z+1) {
		rechecked++
		if st.changedAdmits(j, z) {
			stands = false
			break
		}
	}
	st.rechecks += st.stats.Probes - probes
	return stands, rechecked
}

// changedAdmits re-checks changed GPU z against held gang j's failed
// attempt: whether z, as it stands, admits a member where the attempt
// saw or could have seen it (holdStands).
//
//repro:hotpath pinned by TestClusterAdmitAllocs
func (st *planner) changedAdmits(j *job, z int) bool {
	h := &j.hold
	if st.directAdmits(j, z, h.failed) ||
		st.spec.Preemption && st.canFitAfterEviction(z, j, &j.members[h.failed]) {
		return true
	}
	for i, p := range h.placed {
		switch {
		case p.evicted:
			if st.directAdmits(j, z, i) || z < p.gpu && st.canFitAfterEviction(z, j, &j.members[i]) {
				return true
			}
		case z < p.gpu:
			if st.directAdmits(j, z, i) {
				return true
			}
		}
	}
	return false
}

// directAdmits probes GPU z for member i of j as findFit would.
//
//repro:hotpath pinned by TestClusterAdmitAllocs
func (st *planner) directAdmits(j *job, z, i int) bool {
	st.stats.Probes++
	return st.probe(st.gpus[z].node, z, &j.members[i], st.pool.Len(z), nil) == 0
}

// shadowSkips, set only by tests, makes every skipped retry run its
// transaction anyway (shadowRetry).
var shadowSkips bool

// shadowRetry runs the transaction holdStands skipped and panics unless
// it fails exactly as the held attempt did: same failed member, same
// earlier placements, same touched GPUs. The failed attempt restores
// every GPU with its generation, so the pool is left as it was found;
// the retry's probes and flight records are not kept. The held attempt
// is copied into planner scratch, so the check allocates nothing once
// warm and allocation pins hold with it on.
func (st *planner) shadowRetry(j *job, now simtime.Time) {
	want := &st.shadow
	want.failed = j.hold.failed
	want.placed = append(want.placed[:0], j.hold.placed...)
	want.touched = append(want.touched[:0], j.hold.touched...)
	stats, fl := *st.stats, st.fl
	st.fl = nil
	placed := st.tryPlaceGang(j, now)
	*st.stats, st.fl = stats, fl
	if placed || j.hold.failed != want.failed ||
		!slices.Equal(j.hold.placed, want.placed) || !slices.Equal(j.hold.touched, want.touched) {
		panic(fmt.Sprintf("cluster: skipped retry of %s at %v differs: placed %v, failed member %d placements %v touched %v, held %d %v %v",
			j.sub.Gang.Name, now, placed, j.hold.failed, j.hold.placed, j.hold.touched, want.failed, want.placed, want.touched))
	}
}

// pickTenant selects the next tenant to serve, or nil when no tenant is
// eligible. Under FairShare the pick minimizes weight-normalized
// accumulated service, compared exactly by cross-multiplication; the
// tenant scan runs in sorted-name order, so equal deficits resolve to
// the lexicographically first tenant (tenant names are unique, making
// the head-sequence tie-break unreachable; it is documented for the
// discipline's contract, not the code path). Under FIFO the pick
// minimizes the head job's arrival sequence — global arrival order
// across tenants.
func (st *planner) pickTenant() *tenantState {
	var best *tenantState
	for _, t := range st.tenants {
		if t.queue.Len() == 0 || t.blocked {
			continue
		}
		if best == nil {
			best = t
			continue
		}
		switch st.spec.Queue {
		case FIFO:
			if t.queue.Front().seq < best.queue.Front().seq {
				best = t
			}
		default: // FairShare
			// t ahead of best iff t.served/t.weight < best.served/best.weight.
			if t.servedUS*best.weight < best.servedUS*t.weight {
				best = t
			}
		}
	}
	return best
}

// tryPlaceGang attempts an all-or-nothing placement of j's members at
// now. It runs as a journal transaction: pool GPUs mutate in place
// behind lazy per-GPU snapshots, and failure restores every touched GPU
// bit-for-bit (admission.Snapshot restores the fold sums, not a
// recomputation). Completion events are only
// scheduled — and victim events only cancelled — at commit, so an
// aborted what-if leaves the event queue untouched.
//
// A failed attempt leaves j.hold: the failed member, each earlier
// member's GPU and whether it got there by eviction, the touched GPUs,
// and the pool clock after the rollback. The clock must be read after
// the rollback, never inside the transaction: the rollback restores
// saved generations, which a clock read in between would outrun.
func (st *planner) tryPlaceGang(j *job, now simtime.Time) bool {
	h := &j.hold
	h.placed = h.placed[:0]
	for i := range j.members {
		g := st.findFit(j, &j.members[i], now)
		evicted := false
		if g < 0 && st.spec.Preemption {
			g, evicted = st.evictForMember(j, &j.members[i], now), true
		}
		if g < 0 {
			h.valid, h.failed = true, i
			h.touched = append(h.touched[:0], st.txTouched...)
			st.rollback()
			h.clock = st.pool.Clock()
			return false
		}
		h.placed = append(h.placed, placement{gpu: g, evicted: evicted})
		st.placeMember(j, i, g, now)
	}
	h.valid = false
	st.commit(j, now)
	return true
}

// findFit asks the pool's first-fit index once for the first GPU in
// pool order that admits the member under its node's class, and
// returns its pool index or -1. A node whose memory partition (a MIG
// instance) is smaller than the member rejects it on capacity without a
// probe. With telemetry on, the scan leaves one flight record: the
// winner, the index nodes visited and the GPUs rejected per rule.
//
//repro:hotpath pinned by TestClusterAdmitAllocs
func (st *planner) findFit(j *job, m *member, now simtime.Time) int {
	var tally obs.ScanTally
	var t *obs.ScanTally
	if st.fl != nil {
		t = &tally
	}
	g, _, probes := st.pool.FirstFit(m.load, t)
	st.stats.Probes += int64(probes)
	if t != nil {
		st.recordScan(t, j, m, g, now)
	}
	return g
}

// recordScan records findFit's summary for member m of j: the winner
// g by node name and node-local index, or -1 when no GPU admitted.
//
//repro:hotpath pinned by TestClusterAdmitAllocs
func (st *planner) recordScan(tally *obs.ScanTally, j *job, m *member, g int, now simtime.Time) {
	local := int32(-1)
	if g >= 0 {
		local = int32(st.gpus[g].index)
	}
	rec := tally.Summary(int64(j.seq), int64(now), local)
	rec.Tenant = j.tenant.spec.Name
	rec.Workflow = m.name
	if g >= 0 {
		rec.Node = st.gpus[g].node.spec.Name
	}
	st.fl.Record(rec)
}

// gpuRecord starts a flight record about member m of j on pool GPU g,
// locating the GPU by node name and node-local index.
//
//repro:hotpath pinned by TestClusterAdmitAllocs
func (st *planner) gpuRecord(kind obs.FlightKind, j *job, m *member, g int, now simtime.Time) obs.FlightRecord {
	gs := &st.gpus[g]
	return obs.FlightRecord{
		Seq: int64(j.seq), Kind: kind, AtNS: int64(now),
		Tenant: j.tenant.spec.Name, Workflow: m.name,
		Node: gs.node.spec.Name, GPU: int32(gs.index), Clients: int32(st.pool.Len(g)),
	}
}

// findEvictionFit is the preemption counterpart of findFit: the first
// GPU in pool order where a read-only what-if shows the member would
// fit with every strictly-lower-priority resident gone, or -1. It
// walks only the GPUs whose victim key (the lowest priority resident
// there) is below j's: on any other GPU no resident is victimable, and
// the what-if would say false. Each what-if it runs counts in
// Stats.WhatIfs and, with telemetry on, leaves a provenance record
// whose Detail is "fit=true" or "fit=false".
//
//repro:hotpath pinned by TestClusterAdmitAllocs
func (st *planner) findEvictionFit(j *job, m *member, now simtime.Time) int {
	for g := st.pool.NextBelow(j.priority, 0); g >= 0; g = st.pool.NextBelow(j.priority, g+1) {
		st.stats.WhatIfs++
		fits := st.canFitAfterEviction(g, j, m)
		if st.fl != nil {
			rec := st.gpuRecord(obs.FlightWhatIf, j, m, g, now)
			rec.Detail = "fit=false"
			if fits {
				rec.Detail = "fit=true"
			}
			st.fl.Record(rec)
		}
		if fits {
			return g
		}
	}
	return -1
}

// probe is the single-GPU check behind the what-ifs, the eviction loop
// and the hold re-checks: it judges pool GPU g of node as findFit's
// query would, with an explicit resident count and a victim mask, and
// returns the rules that reject the member there (zero admits). The
// count and mask let a preemption what-if ask "would the member fit
// with the victims gone" while the GPU still holds them: skip[i] true
// folds resident i out of the spatial sums, and a nil mask is the O(1)
// cached-sum probe. Only the node's rules are reported — a time-sliced
// node may "interfere" spatially, but only capacity decides there, so
// only capacity shows.
//
//repro:hotpath pinned by TestClusterAdmitAllocs
func (st *planner) probe(node *nodeState, g int, m *member, residents int, skip []bool) interference.RuleMask {
	if residents >= node.MaxResidents {
		return interference.MaskClientCap
	}
	if m.load.MemMiB > node.MemMiB {
		return interference.MaskCapacity
	}
	return st.pool.AdmitExcluding(g, node.Load(m.load), skip) & node.Rules
}

// placeMember commits one member to a GPU inside the transaction.
func (st *planner) placeMember(j *job, memberIx int, g int, now simtime.Time) {
	st.saveGPU(g)
	m := &j.members[memberIx]
	r := st.acquireResident()
	r.job = j
	r.memberIx = memberIx
	r.gpu = g
	r.start = now

	node := st.gpus[g].node
	durS := m.profile.TotalDurationS + j.penaltyS/float64(len(j.members))
	load := node.Load(m.load)
	if node.spec.Mode == ModeTimeSlice {
		// Predicted duration dilates with the co-resident count at
		// dispatch (including this member). Earlier residents keep
		// their original predictions — the model charges slowdown to
		// the arriving member, which keeps completions immutable once
		// scheduled.
		durS *= float64(st.pool.Len(g) + 1)
	}
	if load.SMPct < m.load.SMPct {
		// The SM cap throttles the member: it runs at cap/SMPct of its
		// solo speed, and contributes only the capped pressure.
		durS *= m.load.SMPct / load.SMPct
	}
	r.end = now.Add(simtime.FromSeconds(durS))

	st.pool.Add(g, load, r)
	st.txPlaced = append(st.txPlaced, r)
}

// evictForMember frees room for one member by preempting on the first
// GPU (node spec order, then index order) where a what-if probe shows
// the member would fit with every strictly-lower-priority resident gone.
// The what-if sweep (findEvictionFit) is read-only; only its winner
// proceeds to the eviction loop: whole victim gangs — lowest priority first,
// youngest placement first (least lost work), latest arrival last-resort
// tie-break — are evicted until the member actually fits, and the GPU is
// returned; -1 when no GPU's victim set suffices. Targeting one GPU
// keeps preemption minimal: a commit never strands an eviction that did
// not make room for the preemptor (victim gangs may still lose members
// on other GPUs — gang eviction is all-or-nothing, mirroring gang
// admission).
func (st *planner) evictForMember(j *job, m *member, now simtime.Time) int {
	g := st.findEvictionFit(j, m, now)
	if g < 0 {
		return -1
	}
	for {
		if st.probe(st.gpus[g].node, g, m, st.pool.Len(g), nil) == 0 {
			return g
		}
		v := st.pickVictimOn(g, j)
		if v == nil {
			// Unreachable: the what-if removed exactly the gangs
			// pickVictimOn iterates.
			panic("cluster: what-if fit without available victims")
		}
		st.evictGang(v)
	}
}

// victimable reports whether v may be evicted for preemptor: strictly
// lower priority, not already evicted this transaction, and fully
// resident — a gang with completed members is nearly done, so evicting
// it wastes more work than it frees, and whole-gang accounting (members
// x preemptions) stays exact.
func victimable(v, preemptor *job) bool {
	return !v.evicting && v != preemptor &&
		v.priority < preemptor.priority && v.liveCount == len(v.members)
}

// canFitAfterEviction is the preemption what-if: would m fit on g if
// every strictly-lower-priority resident left? It is a pure read: the
// victim mask marks the hypothetical evictees and AdmitExcluding folds
// the survivors without touching the live aggregate — the cached sums
// are always the left-fold over the member list, so the masked fold is
// bit-identical to a save/remove/probe/restore sequence. A GPU whose
// victim key is at or above the preemptor's priority has no victim, so
// it says false there without a probe.
//
//repro:hotpath pinned by TestClusterAdmitAllocs
func (st *planner) canFitAfterEviction(g int, preemptor *job, m *member) bool {
	if st.pool.Key(g) >= preemptor.priority {
		return false
	}
	st.stats.Probes++
	mask := st.skip[:0]
	removed := 0
	res := st.pool.Residents(g)
	for i := range res {
		v := victimable(res[i].job, preemptor)
		//repro:allow:hotpathalloc mask growth is bounded by the GPU's resident count; capacity is retained
		mask = append(mask, v)
		if v {
			removed++
		}
	}
	st.skip = mask
	if removed == 0 {
		return false
	}
	return st.probe(st.gpus[g].node, g, m, len(res)-removed, mask) == 0
}

// pickVictimOn selects the next victim gang resident on g: strictly
// lower priority than the preemptor, lowest priority first, then
// youngest placement, then latest arrival.
func (st *planner) pickVictimOn(g int, preemptor *job) *job {
	var best *job
	var bestStart simtime.Time
	for _, r := range st.pool.Residents(g) {
		v := r.job
		if !victimable(v, preemptor) {
			continue
		}
		if best == nil ||
			v.priority < best.priority ||
			(v.priority == best.priority && (r.start > bestStart ||
				(r.start == bestStart && v.seq > best.seq))) {
			best = v
			bestStart = r.start
		}
	}
	return best
}

// evictGang removes every resident of v from the transaction's view of
// the cluster and marks it evicting. Event cancellation and requeueing
// happen at commit; rollback simply restores the GPUs, which still hold
// v.residents.
func (st *planner) evictGang(v *job) {
	v.evicting = true
	for _, r := range v.residents {
		st.saveGPU(r.gpu)
		st.pool.RemoveAt(r.gpu, slices.Index(st.pool.Residents(r.gpu), r))
		st.txEvicted = append(st.txEvicted, r)
	}
}

// saveGPU lazily snapshots pool GPU g the first time the transaction
// touches it.
func (st *planner) saveGPU(g int) {
	gs := &st.gpus[g]
	if gs.saved {
		return
	}
	st.pool.Save(g, &gs.snap)
	gs.saved = true
	st.txTouched = append(st.txTouched, g)
}

// rollback restores every touched GPU and releases tx-placed residents.
// Evicted residents stay untouched: their events were never cancelled
// and the restored resident lists still reference them — but their
// gangs' evicting marks must clear, or a later transaction's victim
// scan would skip them while the what-if still counts them.
func (st *planner) rollback() {
	for _, g := range st.txTouched {
		st.pool.Restore(g, &st.gpus[g].snap)
		st.gpus[g].saved = false
	}
	for _, r := range st.txPlaced {
		st.releaseResident(r)
	}
	for _, r := range st.txEvicted {
		r.job.evicting = false
	}
	st.clearTx()
}

// commit finalizes a successful gang placement: victims' events are
// cancelled and their gangs requeued with the restart penalty, placed
// members get completion events and compact log records (finish turns
// them into the Outcome's logs), and the tenant's deficit counter is
// charged.
func (st *planner) commit(j *job, now simtime.Time) {
	for _, g := range st.txTouched {
		st.gpus[g].saved = false
	}

	// Victims: whole gangs, requeued at the front of their tenant queue
	// in arrival order with the restart penalty charged.
	if len(st.txEvicted) > 0 {
		victims := st.victims[:0]
		for _, r := range st.txEvicted {
			v := r.job
			gs := &st.gpus[r.gpu]
			st.pool.Cancel(r.ev)
			st.evictions = append(st.evictions, evictionRec{
				at: now, start: r.start, victim: int32(v.seq), member: int32(r.memberIx),
				gpu: int32(r.gpu), preemptor: int32(j.seq),
			})
			st.stats.Preemptions++
			if st.fl != nil {
				st.fl.Record(obs.FlightRecord{
					Seq:      int64(v.seq),
					Kind:     obs.FlightEvict,
					AtNS:     int64(now),
					Tenant:   v.tenant.spec.Name,
					Workflow: v.members[r.memberIx].name,
					Node:     gs.node.spec.Name,
					GPU:      int32(gs.index),
					Detail:   "preempted by " + j.sub.Gang.Name,
				})
			}
			if !slices.Contains(victims, v) {
				victims = append(victims, v)
			}
			v.liveCount--
			st.releaseResident(r)
		}
		// Distinct victim gangs in deterministic (arrival) order.
		slices.SortFunc(victims, func(a, b *job) int { return cmp.Compare(a.seq, b.seq) })
		// Push to the front in reverse so the queue front ends up in
		// ascending arrival order; a victim predates everything still
		// queued behind it, so head-of-line order stays consistent.
		for i := len(victims) - 1; i >= 0; i-- {
			v := victims[i]
			v.evicting = false
			v.preemptions++
			v.penaltyS += preemptionOverheadS
			v.tenant.stat.Preemptions++
			v.residents = v.residents[:0]
			st.stats.GangsPreempted++
			v.tenant.queue.PushFront(v)
			v.tenant.maxDepth = max(v.tenant.maxDepth, v.tenant.queue.Len())
		}
		clear(victims)
		st.victims = victims
	}

	waited := now.Sub(j.at).Seconds()
	j.lastWaitS = waited
	j.tenant.waitHist.Observe(int64(waited * 1000))
	for _, r := range st.txPlaced {
		r.ev = st.pool.Schedule(r.gpu, r.end, r.Serial())
		j.liveCount++
		j.residents = append(j.residents, r)
		st.dispatches = append(st.dispatches, dispatchRec{
			at: now, job: int32(j.seq), member: int32(r.memberIx), gpu: int32(r.gpu), preemptions: int32(j.preemptions),
		})
		if st.fl != nil {
			rec := st.gpuRecord(obs.FlightDispatch, j, &j.members[r.memberIx], r.gpu, now)
			rec.WaitNS = int64(now.Sub(j.at))
			st.fl.Record(rec)
		}
	}
	// Members on one GPU were placed in member order, so a stable sort
	// by GPU is pool order.
	slices.SortStableFunc(j.residents, func(a, b *resident) int { return cmp.Compare(a.gpu, b.gpu) })
	// Deficit charge: the predicted work dispatched, including the
	// restart penalty a re-dispatched victim repays.
	j.tenant.servedUS += int64((j.durationS + j.penaltyS) * 1e6)
	st.clearTx()
}

func (st *planner) clearTx() {
	st.txPlaced = st.txPlaced[:0]
	st.txEvicted = st.txEvicted[:0]
	st.txTouched = st.txTouched[:0]
}

// Resident pooling keeps the admit/retire hot path allocation-free once
// the pool is warm.

//repro:hotpath pinned by TestClusterAdmitAllocs
func (st *planner) acquireResident() *resident {
	if n := len(st.resFree); n > 0 {
		r := st.resFree[n-1]
		st.resFree = st.resFree[:n-1]
		return r
	}
	//repro:allow:hotpathalloc pool growth is amortized; steady state reuses freed residents
	return &resident{}
}

func (st *planner) releaseResident(r *resident) {
	*r = resident{}
	st.resFree = append(st.resFree, r)
}
