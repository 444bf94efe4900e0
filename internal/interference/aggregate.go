package interference

import (
	"gpushare/internal/gpu"
	"gpushare/internal/profile"
)

// Incremental interference aggregates. The paper's §IV-B rules are
// additive — summed average SM%, summed average BW%, summed maximum
// memory against device limits — so an admission decision for "group +
// candidate" needs only the group's running sums, not a rescan of every
// member. Aggregate maintains those sums with O(1) Admit/Add probes; the
// fleet dispatcher runs one per GPU so each arrival costs three
// comparisons per device instead of an O(residents) recomputation with
// allocations (the property arXiv:2105.10312 and arXiv:2505.08562 demand
// of per-arrival admission control at scale).
//
// Bit-identity contract: every sum Aggregate exposes is produced by the
// same left-to-right float64 fold Predict performs over the same member
// sequence. Add extends the fold by one term (exactly Predict's next
// loop iteration); Remove re-folds the remaining members in order rather
// than subtracting (float subtraction does not invert addition). The
// FuzzAggregateMatchesPredict target pins the equivalence bit for bit.

// Load is one member's contribution to the additive rules — the three
// Table II quantities Predict reads from a task profile.
type Load struct {
	// SMPct is the average SM utilization in percent.
	SMPct float64
	// BWPct is the average memory-bandwidth utilization in percent.
	BWPct float64
	// MemMiB is the maximum memory footprint.
	MemMiB int64
}

// ProfileLoad extracts a profile's contribution. A nil profile
// contributes zero, matching Predict's nil skip.
func ProfileLoad(p *profile.TaskProfile) Load {
	if p == nil {
		return Load{}
	}
	return Load{SMPct: p.AvgSMUtilPct, BWPct: p.AvgBWUtilPct, MemMiB: p.MaxMemMiB}
}

// Aggregate holds the running sums for one collocation group (one GPU's
// residents, or one packing group under construction). The zero value is
// an empty group on a zero-memory device; use NewAggregate to bind a
// device.
type Aggregate struct {
	deviceMemMiB int64

	// loads holds the member sequence in insertion order — the fold
	// order, which Remove preserves.
	loads []Load

	smSum  float64
	bwSum  float64
	memSum int64
}

// NewAggregate returns an empty group on the given device.
func NewAggregate(device gpu.DeviceSpec) Aggregate {
	return Aggregate{deviceMemMiB: device.MemoryMiB}
}

// Reset empties the group, keeping allocated capacity.
func (a *Aggregate) Reset() {
	a.loads = a.loads[:0]
	a.smSum, a.bwSum, a.memSum = 0, 0, 0
}

// Len returns the member count.
func (a *Aggregate) Len() int { return len(a.loads) }

// At returns member i's load.
func (a *Aggregate) At(i int) Load { return a.loads[i] }

// Sums returns the running folds Admit extends by the candidate's term.
func (a *Aggregate) Sums() (sm, bw float64, mem int64) { return a.smSum, a.bwSum, a.memSum }

// DeviceMemMiB returns the capacity the memory rule checks against.
func (a *Aggregate) DeviceMemMiB() int64 { return a.deviceMemMiB }

// Admit returns the rules "group + candidate" breaks (zero admits), in
// O(1): the combined sums are the group's fold extended by one term,
// exactly the value Predict computes over append(members, candidate).
// The group is not modified.
//
//repro:hotpath pinned by TestAggregateAdmitAllocs
func (a *Aggregate) Admit(l Load) RuleMask {
	return a.rules(a.smSum+l.SMPct, a.bwSum+l.BWPct, a.memSum+l.MemMiB)
}

// AdmitExcluding probes "group − skipped members + candidate" without
// mutating the group: the read-only form of the preemption what-if the
// cluster planner used to run as Save / RemoveAt×k / Admit / Restore.
// skip[i] true drops member i from the fold; indices past len(skip) are
// kept, and a nil skip is exactly Admit. O(members) with skip, O(1)
// without; never allocates, never writes, so concurrent AdmitExcluding
// probes over one aggregate are race-free.
//
//repro:hotpath pinned by TestAggregateAdmitAllocs
func (a *Aggregate) AdmitExcluding(l Load, skip []bool) RuleMask {
	return a.rules(a.foldExcluding(l, skip))
}

// foldExcluding returns the combined sums AdmitExcluding judges.
// Bit-identity holds by the fold contract: RemoveAt re-folds the
// survivors left to right, so the sums it would cache equal the
// left-to-right fold over the surviving subsequence computed here —
// same terms, same order, same rounding.
func (a *Aggregate) foldExcluding(l Load, skip []bool) (sm, bw float64, mem int64) {
	if skip == nil {
		return a.smSum + l.SMPct, a.bwSum + l.BWPct, a.memSum + l.MemMiB
	}
	for i := range a.loads {
		if i < len(skip) && skip[i] {
			continue
		}
		sm += a.loads[i].SMPct
		bw += a.loads[i].BWPct
		mem += a.loads[i].MemMiB
	}
	return sm + l.SMPct, bw + l.BWPct, mem + l.MemMiB
}

// rules applies Predict's three comparisons to combined sums.
func (a *Aggregate) rules(sm, bw float64, mem int64) RuleMask {
	var m RuleMask
	if sm > 100 {
		m |= MaskCompute
	}
	if bw > 100 {
		m |= MaskBandwidth
	}
	if mem > a.deviceMemMiB {
		m |= MaskCapacity
	}
	return m
}

// Add appends a member, extending each running fold by one term.
//
//repro:hotpath pinned by TestAggregateMutateAllocs
func (a *Aggregate) Add(l Load) {
	//repro:allow:hotpathalloc member-list growth is amortized; Reset keeps the capacity
	a.loads = append(a.loads, l)
	a.smSum += l.SMPct
	a.bwSum += l.BWPct
	a.memSum += l.MemMiB
}

// RemoveAt deletes member i, preserving the order of the remaining
// members, and re-folds the sums from scratch: subtracting the departed
// member would drift from Predict's left-to-right fold over the new
// sequence, re-folding matches it bit for bit. O(members).
//
//repro:hotpath pinned by TestAggregateMutateAllocs
func (a *Aggregate) RemoveAt(i int) {
	copy(a.loads[i:], a.loads[i+1:])
	a.loads = a.loads[:len(a.loads)-1]
	a.smSum, a.bwSum, a.memSum = 0, 0, 0
	for _, l := range a.loads {
		a.smSum += l.SMPct
		a.bwSum += l.BWPct
		a.memSum += l.MemMiB
	}
}

// Snapshot is a saved Aggregate state for what-if exploration: the
// member sequence and its running sums, captured bit for bit. The
// cluster dispatcher snapshots a GPU's aggregate before tentatively
// evicting residents or placing gang members, probes the mutated state,
// and restores on rollback. The zero value is ready; Save reuses the
// snapshot's member capacity, so a snapshot buffer retained across
// attempts costs no steady-state allocations.
type Snapshot struct {
	loads  []Load
	smSum  float64
	bwSum  float64
	memSum int64
}

// Save copies the aggregate's state into s, reusing s's capacity.
//
//repro:hotpath pinned by TestAggregateMutateAllocs
func (a *Aggregate) Save(s *Snapshot) {
	//repro:allow:hotpathalloc snapshot-buffer growth is amortized; retained buffers make repeat saves allocation-free
	s.loads = append(s.loads[:0], a.loads...)
	s.smSum, s.bwSum, s.memSum = a.smSum, a.bwSum, a.memSum
}

// Restore copies s back into the aggregate, reusing the aggregate's
// capacity. The restored state is bit-identical to the one Save saw:
// sums are copied, not recomputed, so a save/restore round trip can
// never drift from the fold contract.
//
//repro:hotpath pinned by TestAggregateMutateAllocs
func (a *Aggregate) Restore(s *Snapshot) {
	//repro:allow:hotpathalloc member-list growth is amortized; restore into a previously sized aggregate is allocation-free
	a.loads = append(a.loads[:0], s.loads...)
	a.smSum, a.bwSum, a.memSum = s.smSum, s.bwSum, s.memSum
}
