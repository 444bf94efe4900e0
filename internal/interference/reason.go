package interference

import (
	"math"
	"strconv"
	"strings"
)

// Typed rejection reasons. An admission probe's Outcome says *whether*
// the paper's rules reject a candidate; operating a long-running
// scheduling service also needs *which* rule fired and by how much
// ("why was this gang rejected on GPU 12?"). Reason encodes exactly
// that as a flat value: a bitmask of violated rules plus the violation
// magnitudes, integer-scaled so the encoding is a deterministic pure
// function of the (bit-identical) fold sums — no float formatting, no
// allocation, safe to record from the admission hot path.

// RuleMask is a bitmask of admission rules. The first three bits are
// the paper's §IV-B rules in their canonical order; MaskClientCap is
// the dispatcher-level MPS client cardinality cap, which Aggregate does
// not know about but dispatchers fold into the same mask.
type RuleMask uint8

const (
	// MaskCompute: combined average SM utilization exceeds 100%.
	MaskCompute RuleMask = 1 << iota
	// MaskBandwidth: combined average bandwidth utilization exceeds 100%.
	MaskBandwidth
	// MaskCapacity: combined maximum memory exceeds device (or instance)
	// capacity.
	MaskCapacity
	// MaskClientCap: the GPU already holds its maximum client count.
	MaskClientCap
)

// ruleNames orders the mask bits for rendering.
var ruleNames = [...]string{"compute", "bandwidth", "capacity", "client-cap"}

// String renders the mask as a stable comma-joined rule list ("ok" for
// an empty mask).
func (m RuleMask) String() string {
	if m == 0 {
		return "ok"
	}
	var b strings.Builder
	for i, name := range ruleNames {
		if m&(1<<i) == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(name)
	}
	return b.String()
}

// Reason is one admission probe's typed verdict: the violated rules and
// how far over each limit the candidate group would land. Magnitudes
// are integer-scaled — milli-percentage-points over 100% for the
// utilization rules, MiB over capacity for the memory rule — so equal
// fold sums encode to equal Reasons bit for bit. The zero value means
// "admitted".
type Reason struct {
	// Rules is the violated-rule bitmask; zero means admitted.
	Rules RuleMask `json:"rules"`
	// SMExcessMilli is max(0, combined SM% - 100) in milli-percentage
	// points (132.5% encodes as 32500).
	SMExcessMilli int64 `json:"sm_excess_milli,omitempty"`
	// BWExcessMilli is max(0, combined BW% - 100) in milli-percentage
	// points.
	BWExcessMilli int64 `json:"bw_excess_milli,omitempty"`
	// MemExcessMiB is max(0, combined max memory - capacity) in MiB.
	MemExcessMiB int64 `json:"mem_excess_mib,omitempty"`
}

// Rejected reports whether any rule fired.
func (r Reason) Rejected() bool { return r.Rules != 0 }

// String renders a compact diagnosis, e.g.
// "reject[compute,capacity] sm+32500m mem+512MiB".
func (r Reason) String() string {
	if r.Rules == 0 {
		return "admit"
	}
	var b strings.Builder
	b.WriteString("reject[")
	b.WriteString(r.Rules.String())
	b.WriteByte(']')
	if r.SMExcessMilli > 0 {
		b.WriteString(" sm+")
		b.WriteString(strconv.FormatInt(r.SMExcessMilli, 10))
		b.WriteByte('m')
	}
	if r.BWExcessMilli > 0 {
		b.WriteString(" bw+")
		b.WriteString(strconv.FormatInt(r.BWExcessMilli, 10))
		b.WriteByte('m')
	}
	if r.MemExcessMiB > 0 {
		b.WriteString(" mem+")
		b.WriteString(strconv.FormatInt(r.MemExcessMiB, 10))
		b.WriteString("MiB")
	}
	return b.String()
}

// excessMilli converts a percentage excess to milli-percentage points.
// Rounding goes through math.Round so the mapping is the same on every
// platform; the input is a deterministic fold sum, so the output is a
// pure function of the member sequence.
func excessMilli(pct float64) int64 {
	if pct <= 0 {
		return 0
	}
	return int64(math.Round(pct * 1000))
}

// Rules returns the outcome's violated-rule bitmask: Reason's Rules
// without the magnitudes.
func (o Outcome) Rules() RuleMask {
	var m RuleMask
	if o.Compute {
		m |= MaskCompute
	}
	if o.Bandwidth {
		m |= MaskBandwidth
	}
	if o.Capacity {
		m |= MaskCapacity
	}
	return m
}

// Reason derives the typed rejection reason from a probe outcome,
// evaluated with exactly the outcome's own rule verdicts. It allocates
// nothing.
//
//repro:hotpath pinned by TestOutcomeReasonAllocs
func (o Outcome) Reason() Reason {
	var r Reason
	if o.Compute {
		r.Rules |= MaskCompute
		r.SMExcessMilli = excessMilli(o.CombinedSMUtilPct - 100)
	}
	if o.Bandwidth {
		r.Rules |= MaskBandwidth
		r.BWExcessMilli = excessMilli(o.CombinedBWUtilPct - 100)
	}
	if o.Capacity {
		r.Rules |= MaskCapacity
		r.MemExcessMiB = o.CombinedMaxMemMiB - o.DeviceMemMiB
	}
	return r
}

// Digest folds the aggregate's exact state — device capacity, member
// count, every member's load bits, and the running sums — into a 64-bit
// FNV-1a value. Preemption what-ifs record it before and after a
// save/probe/restore round trip as provenance that the restore really
// was bit-identical. It allocates nothing.
//
//repro:hotpath pinned by TestAggregateDigestAllocs
func (a *Aggregate) Digest() uint64 {
	h := uint64(fnvOffset64)
	h = fnvFold(h, uint64(a.deviceMemMiB))
	h = fnvFold(h, uint64(len(a.loads)))
	for i := range a.loads {
		h = fnvFold(h, math.Float64bits(a.loads[i].SMPct))
		h = fnvFold(h, math.Float64bits(a.loads[i].BWPct))
		h = fnvFold(h, uint64(a.loads[i].MemMiB))
	}
	h = fnvFold(h, math.Float64bits(a.smSum))
	h = fnvFold(h, math.Float64bits(a.bwSum))
	h = fnvFold(h, uint64(a.memSum))
	return h
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvFold mixes one 64-bit word into an FNV-1a state, byte by byte.
//
//repro:hotpath pinned by TestAggregateDigestAllocs
func fnvFold(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}
