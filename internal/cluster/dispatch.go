package cluster

import (
	"fmt"
	"sort"

	"gpushare/internal/eventq"
	"gpushare/internal/interference"
	"gpushare/internal/obs"
	"gpushare/internal/simtime"
)

// The cluster admission loop. One event loop advances simulated time
// over arrivals and completions; at every instant a dispatch round
// drains as many queued gangs as fit. Gang placement is a journal
// transaction over per-GPU aggregates: members place one by one
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

// clusterIdle reports whether no resident is placed anywhere.
func (st *planner) clusterIdle() bool {
	for i := range st.nodes {
		for g := range st.nodes[i].gpus {
			if len(st.nodes[i].gpus[g].res) > 0 {
				return false
			}
		}
	}
	return true
}

// retire removes one completed member. The event payload is the
// resident pointer, so retirement is identity-based: a cancelled
// (evicted) resident can never be confused with a survivor that happens
// to share its end instant.
func (st *planner) retire(ev *eventq.Event, now simtime.Time) {
	r := ev.Data.(*resident)
	st.completions.Free(ev)
	g := &r.node.gpus[r.gpuIx]
	st.removeResident(g, r)
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

// removeResident unlinks r from its GPU, keeping the aggregate's fold
// sequence parallel to the resident slice.
func (st *planner) removeResident(g *gpuState, r *resident) {
	for i := range g.res {
		if g.res[i] == r {
			g.agg.RemoveAt(i)
			g.res = append(g.res[:i], g.res[i+1:]...)
			return
		}
	}
	panic("cluster: resident missing from its GPU")
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
		if st.clusterIdle() {
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
// now. It runs as a journal transaction: GPU aggregates and resident
// lists mutate in place behind lazy per-GPU snapshots, and failure
// restores every touched GPU bit-for-bit (interference.Snapshot restores
// the fold sums, not a recomputation). Completion events are only
// scheduled — and victim events only cancelled — at commit, so an
// aborted what-if leaves the event queue untouched.
func (st *planner) tryPlaceGang(j *job, now simtime.Time) bool {
	for i := range j.members {
		g := st.findFit(j, &j.members[i], now)
		if g == nil && st.spec.Preemption {
			g = st.evictForMember(j, &j.members[i], now)
		}
		if g == nil {
			st.rollback()
			return false
		}
		st.placeMember(j, i, g, now)
	}
	st.commit(j, now)
	return true
}

// findFit scans nodes in spec order and GPUs in index order for the
// first device that admits the member under the node's sharing mode.
// Every probe — hit or miss — lands in the flight recorder with its
// per-rule verdict when telemetry is on.
//
//repro:hotpath pinned by TestClusterAdmitAllocs
func (st *planner) findFit(j *job, m *member, now simtime.Time) *gpuState {
	for n := range st.nodes {
		node := &st.nodes[n]
		for g := range node.gpus {
			gs := &node.gpus[g]
			st.stats.Probes++
			ok, reason := st.probeReason(gs, m, len(gs.res))
			if st.fl != nil {
				st.fl.Record(obs.FlightRecord{
					Seq:           int64(j.seq),
					Kind:          obs.FlightProbe,
					AtNS:          int64(now),
					Tenant:        j.tenant.spec.Name,
					Workflow:      m.profile.Workflow.Name,
					Node:          node.spec.Name,
					GPU:           int32(g),
					Clients:       int32(len(gs.res)),
					Rules:         uint8(reason.Rules),
					SMExcessMilli: reason.SMExcessMilli,
					BWExcessMilli: reason.BWExcessMilli,
					MemExcessMiB:  reason.MemExcessMiB,
				})
			}
			if ok {
				return gs
			}
		}
	}
	return nil
}

// findEvictionFit is the preemption counterpart of findFit: the first
// GPU (node spec order, then index order) where a read-only what-if
// shows the member would fit with every strictly-lower-priority resident
// gone. With telemetry on, each what-if leaves a provenance record whose
// digest pair proves the probe left the aggregate untouched.
//
//repro:hotpath pinned by TestClusterAdmitAllocs
func (st *planner) findEvictionFit(j *job, m *member, now simtime.Time) *gpuState {
	for n := range st.nodes {
		node := &st.nodes[n]
		for g := range node.gpus {
			gs := &node.gpus[g]
			var fits bool
			if st.fl == nil {
				fits = st.canFitAfterEviction(gs, j, m)
			} else {
				// `restored` must equal `digest`: with the read-only fold
				// there is no mutation to restore from in the first place.
				digest := gs.agg.Digest()
				fits = st.canFitAfterEviction(gs, j, m)
				restored := gs.agg.Digest()
				//repro:allow:hotpathalloc what-if provenance formats the digest pair; telemetry-off scans never reach this branch
				detail := fmt.Sprintf("fit=%t digest=%016x restored=%016x", fits, digest, restored)
				st.fl.Record(obs.FlightRecord{
					Seq:      int64(j.seq),
					Kind:     obs.FlightWhatIf,
					AtNS:     int64(now),
					Tenant:   j.tenant.spec.Name,
					Workflow: m.profile.Workflow.Name,
					Node:     node.spec.Name,
					GPU:      int32(g),
					Clients:  int32(len(gs.res)),
					Detail:   detail,
				})
			}
			if fits {
				return gs
			}
		}
	}
	return nil
}

// admits probes one GPU under its node's sharing mode.
//
//repro:hotpath pinned by TestClusterAdmitAllocs
func (st *planner) admits(g *gpuState, m *member) bool {
	return st.admitsAt(g, m, len(g.res))
}

// admitsAt probes with an explicit resident count, so a preemption
// what-if can ask "would the member fit with the victims gone" while the
// resident list still holds them.
//
//repro:hotpath pinned by TestClusterAdmitAllocs
func (st *planner) admitsAt(g *gpuState, m *member, residents int) bool {
	ok, _ := st.probeReason(g, m, residents)
	return ok
}

// probeReason is the single source of per-mode admission semantics: it
// probes with an explicit resident count and returns both the verdict
// and the typed per-rule rejection reason. Only the rules the mode
// actually consults are reported — a time-sliced node may "interfere"
// spatially, but only capacity decides there, so only capacity shows.
//
//repro:hotpath pinned by TestClusterAdmitAllocs
func (st *planner) probeReason(g *gpuState, m *member, residents int) (bool, interference.Reason) {
	return st.probeReasonExcluding(g, m, residents, nil)
}

// probeReasonExcluding is probeReason with a victim mask: skip[i] true
// folds resident i out of the spatial admission sums, so a preemption
// what-if can probe the post-eviction state without mutating the live
// aggregate. A nil mask is exactly probeReason (AdmitExcluding(nil)
// degenerates to Admit's O(1) cached-sum path).
//
//repro:hotpath pinned by TestClusterAdmitAllocs
func (st *planner) probeReasonExcluding(g *gpuState, m *member, residents int, skip []bool) (bool, interference.Reason) {
	node := g.node
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
		out := g.agg.AdmitExcluding(m.load, skip)
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
		out := g.agg.AdmitExcluding(l, skip)
		if !out.Interferes() {
			return true, interference.Reason{}
		}
		return false, out.Reason()
	}
}

// placeMember commits one member to a GPU inside the transaction.
func (st *planner) placeMember(j *job, memberIx int, g *gpuState, now simtime.Time) {
	st.saveGPU(g)
	m := &j.members[memberIx]
	r := st.acquireResident()
	r.job = j
	r.memberIx = memberIx
	r.node = g.node
	r.gpuIx = g.index
	r.start = now

	durS := m.profile.TotalDurationS + j.penaltyS/float64(len(j.members))
	load := m.load
	if g.node.spec.Mode == ModeTimeSlice {
		// Predicted duration dilates with the co-resident count at
		// dispatch (including this member). Earlier residents keep
		// their original predictions — the model charges slowdown to
		// the arriving member, which keeps completions immutable once
		// scheduled.
		durS *= float64(len(g.res) + 1)
	} else if g.node.spec.Mode == ModeMPS && g.node.threadCapPct < 100 && load.SMPct > g.node.threadCapPct {
		// The SM cap throttles the member: it runs at threadCap/SMPct
		// of its solo speed, and contributes only the capped pressure.
		durS *= load.SMPct / g.node.threadCapPct
		load.SMPct = g.node.threadCapPct
	}
	r.end = now.Add(simtime.FromSeconds(durS))

	g.res = append(g.res, r)
	g.agg.Add(load)
	st.txPlaced = append(st.txPlaced, r)
}

// evictForMember frees room for one member by preempting on the first
// GPU (node spec order, then index order) where a what-if probe shows
// the member would fit with every strictly-lower-priority resident gone.
// The what-if sweep (findEvictionFit) is read-only; only its winner
// proceeds to the eviction loop: whole victim gangs — lowest priority first,
// youngest placement first (least lost work), latest arrival last-resort
// tie-break — are evicted until the member actually fits, and the GPU is
// returned; nil when no GPU's victim set suffices. Targeting one GPU
// keeps preemption minimal: a commit never strands an eviction that did
// not make room for the preemptor (victim gangs may still lose members
// on other GPUs — gang eviction is all-or-nothing, mirroring gang
// admission).
func (st *planner) evictForMember(j *job, m *member, now simtime.Time) *gpuState {
	gs := st.findEvictionFit(j, m, now)
	if gs == nil {
		return nil
	}
	for !st.admits(gs, m) {
		v := st.pickVictimOn(gs, j)
		if v == nil {
			// Unreachable: the what-if removed exactly the gangs
			// pickVictimOn iterates.
			panic("cluster: what-if fit without available victims")
		}
		st.evictGang(v)
	}
	return gs
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
func (st *planner) canFitAfterEviction(g *gpuState, preemptor *job, m *member) bool {
	st.stats.Probes++
	mask := st.skip[:0]
	removed := 0
	for i := range g.res {
		v := victimable(g.res[i].job, preemptor)
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
	ok, _ := st.probeReasonExcluding(g, m, len(g.res)-removed, mask)
	return ok
}

// pickVictimOn selects the next victim gang resident on g: strictly
// lower priority than the preemptor, lowest priority first, then
// youngest placement, then latest arrival.
func (st *planner) pickVictimOn(g *gpuState, preemptor *job) *job {
	var best *job
	var bestStart simtime.Time
	for _, r := range g.res {
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
	for n := range st.nodes {
		node := &st.nodes[n]
		for g := range node.gpus {
			gs := &node.gpus[g]
			for i := 0; i < len(gs.res); {
				r := gs.res[i]
				if r.job != v {
					i++
					continue
				}
				st.saveGPU(gs)
				gs.agg.RemoveAt(i)
				gs.res = append(gs.res[:i], gs.res[i+1:]...)
				st.txEvicted = append(st.txEvicted, r)
			}
		}
	}
}

// saveGPU lazily snapshots a GPU the first time the transaction touches
// it.
func (st *planner) saveGPU(g *gpuState) {
	if g.saved {
		return
	}
	g.agg.Save(&g.savedAgg)
	g.savedRes = append(g.savedRes[:0], g.res...)
	g.saved = true
	st.txTouched = append(st.txTouched, g)
}

// rollback restores every touched GPU and releases tx-placed residents.
// Evicted residents stay untouched: their events were never cancelled
// and the restored resident lists still reference them — but their
// gangs' evicting marks must clear, or a later transaction's victim
// scan would skip them while the what-if still counts them.
func (st *planner) rollback() {
	for _, g := range st.txTouched {
		g.agg.Restore(&g.savedAgg)
		g.res = append(g.res[:0], g.savedRes...)
		g.saved = false
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
		g.saved = false
	}

	// Victims: whole gangs, requeued at the front of their tenant queue
	// in arrival order with the restart penalty charged.
	if len(st.txEvicted) > 0 {
		victims := make(map[*job]bool, 2)
		for _, r := range st.txEvicted {
			v := r.job
			st.completions.Cancel(r.ev)
			st.out.Evictions = append(st.out.Evictions, Eviction{
				At:        now,
				Tenant:    v.tenant.spec.Name,
				Gang:      v.sub.Gang.Name,
				Workflow:  v.members[r.memberIx].profile.Workflow.Name,
				Node:      r.node.spec.Name,
				GPU:       r.gpuIx,
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
					Node:     r.node.spec.Name,
					GPU:      int32(r.gpuIx),
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
		r.ev = st.completions.Schedule(r.end, 0, r)
		j.liveCount++
		st.out.Dispatches = append(st.out.Dispatches, Dispatch{
			At:          now,
			Tenant:      j.tenant.spec.Name,
			Gang:        j.sub.Gang.Name,
			Workflow:    j.members[r.memberIx].profile.Workflow.Name,
			Node:        r.node.spec.Name,
			GPU:         r.gpuIx,
			WaitedS:     waited,
			Preemptions: j.preemptions,
		})
		if st.fl != nil {
			g := &r.node.gpus[r.gpuIx]
			st.fl.Record(obs.FlightRecord{
				Seq:      int64(j.seq),
				Kind:     obs.FlightDispatch,
				AtNS:     int64(now),
				Tenant:   j.tenant.spec.Name,
				Workflow: j.members[r.memberIx].profile.Workflow.Name,
				Node:     r.node.spec.Name,
				GPU:      int32(r.gpuIx),
				Clients:  int32(len(g.res)),
				WaitNS:   int64(now.Sub(j.at)),
			})
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
