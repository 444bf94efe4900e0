package cluster

import (
	"fmt"
	"slices"
	"sort"

	"gpushare/internal/eventq"
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
// is all-or-nothing by construction.

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
		tComp, hasComp := st.completions.PeekTime()
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
			for {
				pt, ok := st.completions.PeekTime()
				if !ok || pt != now {
					break
				}
				ev, _ := st.completions.Pop()
				st.retire(ev, now)
			}
		} else {
			now = tArr
		}
	}
}

// enqueue appends a job to its tenant's queue.
func (st *planner) enqueue(j *job) {
	t := j.tenant
	t.queue = append(t.queue, j)
	if len(t.queue) > t.maxDepth {
		t.maxDepth = len(t.queue)
	}
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
		if len(t.queue) > 0 {
			return true
		}
	}
	return false
}

// retire removes one completed member. The event payload is the
// resident pointer, so retirement is identity-based: a cancelled
// (evicted) resident can never be confused with a survivor that happens
// to share its end instant.
func (st *planner) retire(ev *eventq.Event, now simtime.Time) {
	r := ev.Data.(*resident)
	st.completions.Free(ev)
	i := slices.Index(st.pool.Residents(r.gpu), r)
	if i < 0 {
		panic("cluster: resident missing from its GPU")
	}
	st.pool.RemoveAt(r.gpu, i)
	st.stats.Completions++

	j := r.job
	j.liveCount--
	st.releaseResident(r)
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
		j := t.queue[0]
		t.queue = t.queue[:copy(t.queue, t.queue[1:])]
		if st.tryPlaceGang(j, now) {
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
		// Held: back to the front of the queue, tenant blocked for the
		// round.
		t.queue = append(t.queue, nil)
		copy(t.queue[1:], t.queue)
		t.queue[0] = j
		t.blocked = true
		st.stats.GangHolds++
		if st.fl != nil {
			st.fl.Record(obs.FlightRecord{
				Seq:      int64(j.seq),
				Kind:     obs.FlightHold,
				AtNS:     int64(now),
				Tenant:   t.spec.Name,
				Workflow: j.sub.Gang.Name,
				GPU:      -1,
			})
		}
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
		if len(t.queue) == 0 || t.blocked {
			continue
		}
		if best == nil {
			best = t
			continue
		}
		switch st.spec.Queue {
		case FIFO:
			if t.queue[0].seq < best.queue[0].seq {
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
func (st *planner) tryPlaceGang(j *job, now simtime.Time) bool {
	for i := range j.members {
		g := st.findFit(j, &j.members[i], now)
		if g < 0 && st.spec.Preemption {
			g = st.evictForMember(j, &j.members[i], now)
		}
		if g < 0 {
			st.rollback()
			return false
		}
		st.placeMember(j, i, g, now)
	}
	st.commit(j, now)
	return true
}

// findFit scans the pool — nodes in spec order, GPUs in index order —
// for the first device that admits the member under the node's sharing
// mode, returning its pool index or -1. Every probe — hit or miss —
// lands in the flight recorder with its per-rule verdict when telemetry
// is on. It walks node by node, keeping each node's mode at hand.
//
//repro:hotpath pinned by TestClusterAdmitAllocs
func (st *planner) findFit(j *job, m *member, now simtime.Time) int {
	for n := range st.nodes {
		node := &st.nodes[n]
		for g := node.first; g < node.first+node.spec.GPUs; g++ {
			st.stats.Probes++
			ok, reason := st.probe(node, g, m, st.pool.Len(g), nil)
			if st.fl != nil {
				rec := st.gpuRecord(obs.FlightProbe, j, m, g, now)
				rec.Rules = uint8(reason.Rules)
				rec.SMExcessMilli = reason.SMExcessMilli
				rec.BWExcessMilli = reason.BWExcessMilli
				rec.MemExcessMiB = reason.MemExcessMiB
				st.fl.Record(rec)
			}
			if ok {
				return g
			}
		}
	}
	return -1
}

// gpuRecord starts a flight record about member m of j on pool GPU g,
// locating the GPU by node name and node-local index.
//
//repro:hotpath pinned by TestClusterAdmitAllocs
func (st *planner) gpuRecord(kind obs.FlightKind, j *job, m *member, g int, now simtime.Time) obs.FlightRecord {
	gs := &st.gpus[g]
	return obs.FlightRecord{
		Seq: int64(j.seq), Kind: kind, AtNS: int64(now),
		Tenant: j.tenant.spec.Name, Workflow: m.profile.Workflow.Name,
		Node: gs.node.spec.Name, GPU: int32(gs.index), Clients: int32(st.pool.Len(g)),
	}
}

// findEvictionFit is the preemption counterpart of findFit: the first
// GPU in pool order where a read-only what-if shows the member would
// fit with every strictly-lower-priority resident gone, or -1. With
// telemetry on, each what-if leaves a provenance record whose digest
// pair proves the probe left the aggregate untouched.
//
//repro:hotpath pinned by TestClusterAdmitAllocs
func (st *planner) findEvictionFit(j *job, m *member, now simtime.Time) int {
	for g := range st.gpus {
		var fits bool
		if st.fl == nil {
			fits = st.canFitAfterEviction(g, j, m)
		} else {
			// `restored` must equal `digest`: with the read-only fold
			// there is no mutation to restore from in the first place.
			digest := st.pool.Digest(g)
			fits = st.canFitAfterEviction(g, j, m)
			restored := st.pool.Digest(g)
			rec := st.gpuRecord(obs.FlightWhatIf, j, m, g, now)
			//repro:allow:hotpathalloc what-if provenance formats the digest pair; telemetry-off scans never reach this branch
			rec.Detail = fmt.Sprintf("fit=%t digest=%016x restored=%016x", fits, digest, restored)
			st.fl.Record(rec)
		}
		if fits {
			return g
		}
	}
	return -1
}

// probe is the single source of per-mode admission semantics: it probes
// pool GPU g of node with an explicit resident count and a victim mask,
// and returns both the verdict and the typed per-rule rejection reason.
// The count and mask let a preemption what-if ask "would the member fit
// with the victims gone" while the GPU still holds them: skip[i] true
// folds resident i out of the spatial sums, and a nil mask is the O(1)
// cached-sum probe. Only the rules the mode actually consults are
// reported — a time-sliced node may "interfere" spatially, but only
// capacity decides there, so only capacity shows.
//
//repro:hotpath pinned by TestClusterAdmitAllocs
func (st *planner) probe(node *nodeState, g int, m *member, residents int, skip []bool) (bool, interference.Reason) {
	if residents >= node.cap {
		return false, interference.Reason{Rules: interference.MaskClientCap}
	}
	switch node.spec.Mode {
	case ModeMIG:
		// Isolated equal instances: capacity is per-instance memory;
		// no cross-instance interference.
		if m.load.MemMiB <= node.instanceMemMiB {
			return true, interference.Reason{}
		}
		return false, interference.Reason{
			Rules:        interference.MaskCapacity,
			MemExcessMiB: m.load.MemMiB - node.instanceMemMiB,
		}
	case ModeTimeSlice:
		// Temporal sharing: no spatial interference rules, but the
		// residents still share device memory.
		out := st.pool.AdmitExcluding(g, m.load, skip)
		if !out.Capacity {
			return true, interference.Reason{}
		}
		r := out.Reason()
		return false, interference.Reason{
			Rules:        interference.MaskCapacity,
			MemExcessMiB: r.MemExcessMiB,
		}
	default: // ModeMPS
		l := m.load
		if node.threadCapPct < 100 && l.SMPct > node.threadCapPct {
			// The active-thread cap bounds the SM pressure one client
			// can exert; bandwidth and memory are not partitioned.
			l.SMPct = node.threadCapPct
		}
		out := st.pool.AdmitExcluding(g, l, skip)
		if !out.Interferes() {
			return true, interference.Reason{}
		}
		return false, out.Reason()
	}
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
	load := m.load
	if node.spec.Mode == ModeTimeSlice {
		// Predicted duration dilates with the co-resident count at
		// dispatch (including this member). Earlier residents keep
		// their original predictions — the model charges slowdown to
		// the arriving member, which keeps completions immutable once
		// scheduled.
		durS *= float64(st.pool.Len(g) + 1)
	} else if node.spec.Mode == ModeMPS && node.threadCapPct < 100 && load.SMPct > node.threadCapPct {
		// The SM cap throttles the member: it runs at threadCap/SMPct
		// of its solo speed, and contributes only the capped pressure.
		durS *= load.SMPct / node.threadCapPct
		load.SMPct = node.threadCapPct
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
		if ok, _ := st.probe(st.gpus[g].node, g, m, st.pool.Len(g), nil); ok {
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
// bit-identical to a save/remove/probe/restore sequence, and the digest
// pair in findEvictionFit's provenance record proves it trivially.
//
//repro:hotpath pinned by TestClusterAdmitAllocs
func (st *planner) canFitAfterEviction(g int, preemptor *job, m *member) bool {
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
	ok, _ := st.probe(st.gpus[g].node, g, m, len(res)-removed, mask)
	return ok
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
// happen at commit; rollback simply restores the GPUs.
func (st *planner) evictGang(v *job) {
	v.evicting = true
	for g := range st.gpus {
		for i := 0; i < st.pool.Len(g); {
			r := st.pool.Residents(g)[i]
			if r.job != v {
				i++
				continue
			}
			st.saveGPU(g)
			st.pool.RemoveAt(g, i)
			st.txEvicted = append(st.txEvicted, r)
		}
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
// members get completion events and dispatch records, and the tenant's
// deficit counter is charged.
func (st *planner) commit(j *job, now simtime.Time) {
	for _, g := range st.txTouched {
		st.gpus[g].saved = false
	}

	// Victims: whole gangs, requeued at the front of their tenant queue
	// in arrival order with the restart penalty charged.
	if len(st.txEvicted) > 0 {
		victims := make(map[*job]bool, 2)
		for _, r := range st.txEvicted {
			v := r.job
			gs := &st.gpus[r.gpu]
			st.completions.Cancel(r.ev)
			st.out.Evictions = append(st.out.Evictions, Eviction{
				At:        now,
				Tenant:    v.tenant.spec.Name,
				Gang:      v.sub.Gang.Name,
				Workflow:  v.members[r.memberIx].profile.Workflow.Name,
				Node:      gs.node.spec.Name,
				GPU:       gs.index,
				Preemptor: j.sub.Gang.Name,
				LostS:     now.Sub(r.start).Seconds(),
				OverheadS: st.overheadS(),
			})
			st.stats.Preemptions++
			if st.fl != nil {
				st.fl.Record(obs.FlightRecord{
					Seq:      int64(v.seq),
					Kind:     obs.FlightEvict,
					AtNS:     int64(now),
					Tenant:   v.tenant.spec.Name,
					Workflow: v.members[r.memberIx].profile.Workflow.Name,
					Node:     gs.node.spec.Name,
					GPU:      int32(gs.index),
					Detail:   "preempted by " + j.sub.Gang.Name,
				})
			}
			victims[v] = true
			v.liveCount--
			st.releaseResident(r)
		}
		// Distinct victim gangs in deterministic (arrival) order.
		order := make([]*job, 0, len(victims))
		for v := range victims {
			order = append(order, v)
		}
		sort.Slice(order, func(i, k int) bool { return order[i].seq < order[k].seq })
		// Prepend in reverse so the queue front ends up in ascending
		// arrival order; a victim predates everything still queued
		// behind it, so head-of-line order stays consistent.
		for i := len(order) - 1; i >= 0; i-- {
			v := order[i]
			v.evicting = false
			v.preemptions++
			v.penaltyS += st.overheadS()
			v.tenant.stat.Preemptions++
			st.stats.GangsPreempted++
			v.tenant.queue = append(v.tenant.queue, nil)
			copy(v.tenant.queue[1:], v.tenant.queue)
			v.tenant.queue[0] = v
			if len(v.tenant.queue) > v.tenant.maxDepth {
				v.tenant.maxDepth = len(v.tenant.queue)
			}
		}
	}

	waited := now.Sub(j.at).Seconds()
	j.lastWaitS = waited
	j.tenant.waitHist.Observe(int64(waited * 1000))
	for _, r := range st.txPlaced {
		gs := &st.gpus[r.gpu]
		r.ev = st.completions.Schedule(r.end, 0, r)
		j.liveCount++
		st.out.Dispatches = append(st.out.Dispatches, Dispatch{
			At:          now,
			Tenant:      j.tenant.spec.Name,
			Gang:        j.sub.Gang.Name,
			Workflow:    j.members[r.memberIx].profile.Workflow.Name,
			Node:        gs.node.spec.Name,
			GPU:         gs.index,
			WaitedS:     waited,
			Preemptions: j.preemptions,
		})
		if st.fl != nil {
			rec := st.gpuRecord(obs.FlightDispatch, j, &j.members[r.memberIx], r.gpu, now)
			rec.WaitNS = int64(now.Sub(j.at))
			st.fl.Record(rec)
		}
	}
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
