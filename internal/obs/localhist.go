package obs

import "math"

// LocalHistogram is the single-owner counterpart of Histogram: the same
// int64 fixed-bucket shape, but plain fields instead of atomics, so a
// hot loop that owns the histogram (one dispatcher, one worker)
// can observe without synchronization or a registry lookup. At the end
// of the run the owner folds it into the shared registry with MergeInto
// — bucket counts are commutative sums, so merged totals and the JSON
// snapshot stay byte-identical at any -j and any merge order, exactly
// the registry histogram's contract (DESIGN.md §10).
//
// The zero value is unusable; construct with NewLocalHistogram. A nil
// *LocalHistogram is a no-op for Observe, like the registry types.
type LocalHistogram struct {
	bounds []int64
	counts []int64 // len(bounds)+1; last is overflow
	count  int64
	sum    int64
}

// NewLocalHistogram returns a histogram with the given inclusive bucket
// upper bounds, which must be sorted ascending (matching the registry
// Histogram the owner will merge into).
func NewLocalHistogram(bounds []int64) *LocalHistogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &LocalHistogram{bounds: b, counts: make([]int64, len(b)+1)}
}

// Observe records one value.
//
//repro:hotpath pinned by TestLocalHistogramObserveAllocs
func (h *LocalHistogram) Observe(v int64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i]++
	h.count++
	h.sum += v
}

// Count returns the number of observations.
func (h *LocalHistogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count
}

// Quantile returns the p-quantile (0 < p <= 1) as the inclusive upper
// bound of the bucket holding the ceil(p*count)-th observation, oldest
// bucket first. The walk is pure integer comparison over commutative
// bucket sums, so the answer is deterministic at any merge order and
// ties always resolve to the lower bucket. Observations past the last
// bound saturate to that bound (the histogram cannot resolve further);
// an empty histogram returns 0.
func (h *LocalHistogram) Quantile(p float64) int64 {
	if h == nil {
		return 0
	}
	return bucketQuantile(h.bounds, h.counts, h.count, p)
}

// bucketQuantile is the shared exact-quantile walk over a fixed-bucket
// histogram state (counts has the trailing overflow bucket).
func bucketQuantile(bounds, counts []int64, count int64, p float64) int64 {
	if count <= 0 || len(bounds) == 0 {
		return 0
	}
	rank := int64(math.Ceil(p * float64(count)))
	if rank < 1 {
		rank = 1
	}
	if rank > count {
		rank = count
	}
	var cum int64
	for i, c := range counts {
		cum += c
		if cum >= rank {
			if i < len(bounds) {
				return bounds[i]
			}
			return bounds[len(bounds)-1]
		}
	}
	return bounds[len(bounds)-1]
}

// Snapshot exports the histogram state in the registry's snapshot
// shape, including the standard latency quantiles.
func (h *LocalHistogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	return HistogramSnapshot{
		Bounds: append([]int64(nil), h.bounds...),
		Counts: append([]int64(nil), h.counts...),
		Count:  h.count,
		Sum:    h.sum,
		P50:    h.Quantile(0.50),
		P90:    h.Quantile(0.90),
		P99:    h.Quantile(0.99),
	}
}

// Restore overwrites the histogram state from a snapshot with the same
// bounds (the streaming dispatcher reloads its histograms from a saved
// run state). It reports false when the snapshot's bounds do not
// match.
func (h *LocalHistogram) Restore(s HistogramSnapshot) bool {
	if h == nil || len(s.Bounds) != len(h.bounds) || len(s.Counts) != len(h.counts) {
		return false
	}
	for i, b := range s.Bounds {
		if h.bounds[i] != b {
			return false
		}
	}
	copy(h.counts, s.Counts)
	h.count = s.Count
	h.sum = s.Sum
	return true
}

// MergeInto folds the local counts into a registry histogram created
// with identical bounds. Merging is a sum per bucket, so any number of
// local histograms can fold into one registry histogram in any order
// with a bit-identical result. A nil receiver or destination is a
// no-op; mismatched bounds are a programming error and panic (silently
// misbinning would corrupt the shared metric).
func (h *LocalHistogram) MergeInto(dst *Histogram) {
	if h == nil || dst == nil {
		return
	}
	if len(dst.bounds) != len(h.bounds) {
		panic("obs: LocalHistogram.MergeInto with mismatched bounds")
	}
	for i, b := range h.bounds {
		if dst.bounds[i] != b {
			panic("obs: LocalHistogram.MergeInto with mismatched bounds")
		}
	}
	for i, c := range h.counts {
		dst.counts[i].Add(c)
	}
	dst.count.Add(h.count)
	dst.sum.Add(h.sum)
}

// Reset zeroes every bucket.
func (h *LocalHistogram) Reset() {
	if h == nil {
		return
	}
	clear(h.counts)
	h.count, h.sum = 0, 0
}
