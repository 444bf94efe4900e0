package main

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"time"
)

// Latency histogram: log-linear buckets over nanoseconds. Values below
// subCount are counted exactly; above, each power-of-two range is split
// into subCount equal buckets, so a bucket is at most 1/subCount of its
// lower bound wide and the bucket midpoint is within 0.4% of any value in
// it. The bucket array is fixed, so recording never allocates and the
// histogram can sit on a per-arrival path.
const (
	subBits  = 7
	subCount = 1 << subBits
	// nBuckets covers every uint64: subCount exact buckets, then one
	// group of subCount per shift from 0 to 64-subBits-1.
	nBuckets = (64 - subBits + 1) * subCount
)

type hist struct {
	counts [nBuckets]uint64
	n      uint64
	max    uint64
}

func bucketOf(v uint64) int {
	if v < subCount {
		return int(v)
	}
	shift := bits.Len64(v) - subBits - 1
	return (shift+1)*subCount + int(v>>uint(shift)) - subCount
}

// bucketRange returns the values [lo, hi] bucket i holds.
func bucketRange(i int) (lo, hi uint64) {
	if i < subCount {
		return uint64(i), uint64(i)
	}
	shift := uint(i/subCount - 1)
	lo = uint64(i%subCount+subCount) << shift
	return lo, lo + (1 << shift) - 1
}

func (h *hist) record(d time.Duration) {
	v := uint64(0)
	if d > 0 {
		v = uint64(d)
	}
	h.counts[bucketOf(v)]++
	h.n++
	if v > h.max {
		h.max = v
	}
}

// merge adds o's samples to h.
func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.max = max(h.max, o.max)
}

// quantile returns the nearest-rank p-quantile in nanoseconds: the
// midpoint of the bucket holding the ceil(p*n)-th smallest value. An
// empty histogram reports 0.
func (h *hist) quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Ceil(p * float64(h.n)))
	if rank < 1 {
		rank = 1
	}
	if rank > h.n {
		rank = h.n
	}
	var seen uint64
	for i := range h.counts {
		seen += h.counts[i]
		if seen >= rank {
			lo, hi := bucketRange(i)
			if hi > h.max {
				hi = h.max
			}
			return (float64(lo) + float64(hi)) / 2
		}
	}
	return float64(h.max)
}

// tailLevels are the percentiles a report may quote as its tail, lowest
// first.
var tailLevels = []float64{0.5, 0.9, 0.99, 0.999, 0.9999, 0.99999, 0.999999}

// tailLevel returns the highest percentile that still has at least ten
// samples beyond it, so a reported tail is never one or two outliers.
// ok is false when even the median has fewer than ten samples above it.
func tailLevel(n uint64) (p float64, ok bool) {
	for _, lvl := range tailLevels {
		rank := uint64(math.Ceil(lvl * float64(n)))
		if n < rank+10 {
			break
		}
		p, ok = lvl, true
	}
	return p, ok
}

// percentileLabel renders 0.999 as "p99.9".
func percentileLabel(p float64) string {
	return "p" + trimFloat(p*100)
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%.6f", v)
	for s[len(s)-1] == '0' {
		s = s[:len(s)-1]
	}
	if s[len(s)-1] == '.' {
		s = s[:len(s)-1]
	}
	return s
}

// windows collects one statistic per measurement window: a pass, a
// capacity block, a second of an open-loop rate, or a Plan call. On a
// shared host, contention comes in bursts shorter than a run but longer
// than a window, and a run's end-to-end metric is its best tenth of
// windows: the windows a burst did not slow. A slower code path slows
// every window, the best tenth included.
type windows struct {
	rates, p50s, p99s []float64
}

func (w *windows) rate(perSecond float64) { w.rates = append(w.rates, perSecond) }

// latency records a window's p50 and p99 in nanoseconds.
func (w *windows) latency(p50, p99 float64) {
	w.p50s = append(w.p50s, p50)
	w.p99s = append(w.p99s, p99)
}

// bestDecile returns the nearest-rank 90th percentile of xs when higher is
// better and the 10th when lower is; with fewer than ten windows that is
// the best one.
func bestDecile(xs []float64, higher bool) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(0.1*float64(len(s)))) - 1
	if higher {
		return s[len(s)-1-k]
	}
	return s[k]
}

// setEndToEnd fills the windowed end-to-end metrics, latencies in
// microseconds, and keeps the windows' medians as detail.
func (w *windows) setEndToEnd(res *runResult) {
	res.metrics["throughput_per_s"] = bestDecile(w.rates, true)
	res.metrics["latency_p50_us"] = bestDecile(w.p50s, false) / 1e3
	res.metrics["latency_p99_us"] = bestDecile(w.p99s, false) / 1e3
	res.detail["windows.rate"] = float64(len(w.rates))
	res.detail["windows.latency"] = float64(len(w.p50s))
	res.detail["windows.median_throughput_per_s"] = median(w.rates)
	res.detail["windows.median_latency_p50_us"] = median(w.p50s) / 1e3
	res.detail["windows.median_latency_p99_us"] = median(w.p99s) / 1e3
}

// summary renders the median, p99 and the highest supported tail with
// the sample count, in microseconds.
func (h *hist) summary() string {
	s := fmt.Sprintf("p50 %.2fus  p99 %.2fus", h.quantile(0.5)/1e3, h.quantile(0.99)/1e3)
	if p, ok := tailLevel(h.n); ok && p > 0.99 {
		s += fmt.Sprintf("  %s %.2fus", percentileLabel(p), h.quantile(p)/1e3)
	}
	return s + fmt.Sprintf("  max %.2fus  (n=%d)", float64(h.max)/1e3, h.n)
}
