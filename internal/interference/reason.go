package interference

import (
	"math"
	"strings"
)

// Typed rejection rules. An admission probe answers with the rules the
// candidate would break, not only *whether* it fits: operating a
// long-running scheduling service also needs *which* rule fired ("why
// was this gang rejected on GPU 12?"). RuleMask is that answer, a flat
// bitmask that dispatchers filter by the rules they enforce and tally
// from the admission hot path.

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

// Interferes is the paper's binary prediction: any of the three §IV-B
// rules broken. MaskClientCap is a dispatcher limit, not one of them.
func (m RuleMask) Interferes() bool {
	return m&(MaskCompute|MaskBandwidth|MaskCapacity) != 0
}

// Digest folds the aggregate's exact state — device capacity, member
// count, every member's load bits, and the running sums — into a 64-bit
// FNV-1a value, so two states compare equal only if they are bit for bit
// the same. Tests use it to show that a save/probe/restore round trip,
// or a read-only probe, leaves the aggregate as it was; an invariant
// checker over whole pools can use it the same way. It allocates
// nothing.
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
