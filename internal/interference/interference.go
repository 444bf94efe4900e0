// Package interference implements the paper's interference predictor
// (§IV-B): "Two workflows are predicted to interfere if they have combined
// average SM utilization over 100%, combined average memory bandwidth
// utilization over 100%, or combined maximum memory utilization above the
// device memory capacity."
//
// It also implements the typed-interference extension the paper sketches
// as future work (§VI): a per-resource severity score distinguishing
// compute, bandwidth and capacity interference, used by the extended
// scheduler policy and the ablation benches.
package interference

import (
	"fmt"
	"sort"
	"strings"

	"gpushare/internal/gpu"
	"gpushare/internal/profile"
)

// Type labels one interference mechanism.
type Type string

const (
	// Compute: combined average SM utilization exceeds the device.
	Compute Type = "compute"
	// Bandwidth: combined average memory-bandwidth utilization exceeds
	// the device.
	Bandwidth Type = "memory-bandwidth"
	// Capacity: combined maximum memory footprints exceed device memory.
	// Unlike the other two, capacity interference is fatal (OOM), not a
	// slowdown.
	Capacity Type = "memory-capacity"
)

// Estimate is the prediction for one candidate collocation group.
type Estimate struct {
	// CombinedSMUtilPct is the sum of average SM utilizations (percent).
	CombinedSMUtilPct float64
	// CombinedBWUtilPct is the sum of average bandwidth utilizations.
	CombinedBWUtilPct float64
	// CombinedMaxMemMiB is the sum of maximum memory footprints.
	CombinedMaxMemMiB int64
	// DeviceMemMiB is the capacity the group was checked against.
	DeviceMemMiB int64

	// Interferes is the paper's binary prediction (any rule violated).
	Interferes bool
	// Types lists the violated rules, in Compute, Bandwidth, Capacity
	// order.
	Types []Type

	// Severity is the typed-interference extension: the predicted
	// fractional slowdown from resource oversubscription, 0 when no rule
	// is violated. Capacity violations force severity 1 (the group
	// cannot run).
	Severity float64
}

// Has reports whether the estimate includes the given interference type.
func (e Estimate) Has(t Type) bool {
	for _, x := range e.Types {
		if x == t {
			return true
		}
	}
	return false
}

// String renders a compact diagnosis.
func (e Estimate) String() string {
	if !e.Interferes {
		return fmt.Sprintf("no interference (SM %.1f%%, BW %.1f%%, mem %d/%d MiB)",
			e.CombinedSMUtilPct, e.CombinedBWUtilPct, e.CombinedMaxMemMiB, e.DeviceMemMiB)
	}
	parts := make([]string, len(e.Types))
	for i, t := range e.Types {
		parts[i] = string(t)
	}
	return fmt.Sprintf("interferes [%s] severity %.2f (SM %.1f%%, BW %.1f%%, mem %d/%d MiB)",
		strings.Join(parts, ","), e.Severity,
		e.CombinedSMUtilPct, e.CombinedBWUtilPct, e.CombinedMaxMemMiB, e.DeviceMemMiB)
}

// Predict applies the paper's rules to a candidate group of task profiles
// sharing one device.
func Predict(device gpu.DeviceSpec, group []*profile.TaskProfile) Estimate {
	var e Estimate
	e.DeviceMemMiB = device.MemoryMiB
	for _, p := range group {
		if p == nil {
			continue
		}
		e.CombinedSMUtilPct += p.AvgSMUtilPct
		e.CombinedBWUtilPct += p.AvgBWUtilPct
		e.CombinedMaxMemMiB += p.MaxMemMiB
	}

	if e.CombinedSMUtilPct > 100 {
		e.Types = append(e.Types, Compute)
	}
	if e.CombinedBWUtilPct > 100 {
		e.Types = append(e.Types, Bandwidth)
	}
	if e.CombinedMaxMemMiB > device.MemoryMiB {
		e.Types = append(e.Types, Capacity)
	}
	e.Interferes = len(e.Types) > 0
	e.Severity = severity(e)
	return e
}

// severity computes the typed-interference score: per slowdown resource,
// the oversubscription fraction excess/(excess+1); overall, the max across
// resources (slowdowns do not add — the binding resource dominates).
// Capacity violations are fatal.
func severity(e Estimate) float64 {
	if e.Has(Capacity) {
		return 1
	}
	var s float64
	if x := e.CombinedSMUtilPct/100 - 1; x > 0 {
		if v := x / (x + 1); v > s {
			s = v
		}
	}
	if x := e.CombinedBWUtilPct/100 - 1; x > 0 {
		if v := x / (x + 1); v > s {
			s = v
		}
	}
	return s
}

// Matrix computes the pairwise interference estimates across a set of
// profiles: entry (i,j) is the prediction for co-scheduling profiles i and
// j. The diagonal predicts self-collocation (two instances of the task).
type Matrix struct {
	Labels    []string
	Estimates [][]Estimate
}

// BuildMatrix constructs the pairwise matrix, ordering rows/columns by
// profile key for determinism.
func BuildMatrix(device gpu.DeviceSpec, profiles []*profile.TaskProfile) Matrix {
	sorted := make([]*profile.TaskProfile, len(profiles))
	copy(sorted, profiles)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key() < sorted[j].Key() })

	m := Matrix{
		Labels:    make([]string, len(sorted)),
		Estimates: make([][]Estimate, len(sorted)),
	}
	for i, p := range sorted {
		m.Labels[i] = p.Key()
		m.Estimates[i] = make([]Estimate, len(sorted))
		for j, q := range sorted {
			m.Estimates[i][j] = Predict(device, []*profile.TaskProfile{p, q})
		}
	}
	return m
}
