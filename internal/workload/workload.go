// Package workload defines the HPC benchmark suite the paper evaluates —
// AthenaPK, BerkeleyGW-Epsilon, Cholla-Gravity, Cholla-MHD, Kripke, LAMMPS
// and WarpX — as calibrated workload descriptors.
//
// The real codes cannot run here (no GPUs, no CUDA); per the reproduction's
// substitution rule each benchmark is replaced by a synthetic task whose
// observable profile matches the paper exactly where the paper reports it:
//
//   - Table I: average theoretical and achieved warp occupancy at 1x, via
//     per-kernel launch configurations fed through the occupancy
//     calculator in package kernel;
//   - Table II: maximum memory footprint, average memory-bandwidth
//     utilization, average SM utilization, average power and energy at the
//     reported problem sizes, via duty cycles and kernel-class demand
//     parameters.
//
// Problem sizes the paper uses but does not profile (e.g. Kripke 2x,
// AthenaPK 8x) are derived by power-law interpolation between the reported
// sizes, matching the paper's observation that "scaling is well-understood
// for a vast majority of HPC codes" (§IV-A).
package workload

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"gpushare/internal/gpu"
	"gpushare/internal/kernel"
	"gpushare/internal/simtime"
)

// SizeProfile is the calibrated profile of one benchmark at one problem
// size — the simulator's ground truth and the quantity the offline
// profiler (package profile) re-measures.
type SizeProfile struct {
	// Size is the label, e.g. "1x", "4x".
	Size string
	// Factor is the numeric problem-size multiplier (1, 2, 4, 8).
	Factor float64
	// MaxMemMiB is the task's maximum resident device memory.
	MaxMemMiB int64
	// AvgBWPct is average memory-bandwidth utilization in percent
	// (Table II).
	AvgBWPct float64
	// AvgSMPct is average SM utilization in percent (Table II).
	AvgSMPct float64
	// AvgPowerW is average board power during a solo run (Table II).
	AvgPowerW float64
	// EnergyJ is total board energy of a solo run (Table II).
	EnergyJ float64
	// Duty is the fraction of wall time a kernel is resident; the
	// remainder is host-side gaps (AMR regridding, MPI, I/O).
	Duty float64
	// Classes are the task's kernel classes with resolved launch
	// configurations and demands for this size.
	Classes []kernel.Class
	// Derived marks profiles interpolated from neighbouring sizes rather
	// than backed by a Table II row.
	Derived bool
}

// SoloDuration is the wall time of one solo task run at boost clock:
// energy divided by average power, per the paper's measurement definition.
func (p *SizeProfile) SoloDuration() simtime.Duration {
	if p.AvgPowerW <= 0 {
		return 0
	}
	return simtime.FromSeconds(p.EnergyJ / p.AvgPowerW)
}

// ActiveDynPowerW is the dynamic (above-idle) board power while a kernel
// is resident, at full execution rate: calibrated so that
// idle + Duty × ActiveDynPowerW equals AvgPowerW.
func (p *SizeProfile) ActiveDynPowerW(spec gpu.DeviceSpec) float64 {
	if p.Duty <= 0 {
		return 0
	}
	dyn := (p.AvgPowerW - spec.IdlePowerW) / p.Duty
	if dyn < 0 {
		dyn = 0
	}
	return dyn
}

// Workload is one benchmark of the suite across its problem sizes.
type Workload struct {
	// Name is the benchmark name as the paper uses it, e.g. "LAMMPS".
	Name string
	// Description summarizes what the real code computes.
	Description string
	// TheoreticalOccPct / AchievedOccPct are the Table I calibration
	// targets at 1x, in percent.
	TheoreticalOccPct float64
	AchievedOccPct    float64
	// ScalingNote documents the size-scaling law used for derived sizes.
	ScalingNote string

	def   *benchDef
	sizes map[string]*SizeProfile
}

// Sizes returns the labels of table-backed (non-derived) sizes, sorted by
// factor.
func (w *Workload) Sizes() []string {
	out := make([]string, 0, len(w.sizes))
	for s, p := range w.sizes {
		if !p.Derived {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		fi, _ := ParseSizeFactor(out[i])
		fj, _ := ParseSizeFactor(out[j])
		return fi < fj
	})
	return out
}

// Profile returns the profile for a size label, deriving and caching it by
// scaling-law interpolation when the size is not table-backed.
func (w *Workload) Profile(size string) (*SizeProfile, error) {
	if p, ok := w.sizes[size]; ok {
		return p, nil
	}
	p, err := w.def.derive(size)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	w.sizes[size] = p
	return p, nil
}

// ParseSizeFactor converts a size label like "4x" to its numeric factor,
// which must be positive and finite.
func ParseSizeFactor(size string) (float64, error) {
	s := strings.TrimSuffix(strings.TrimSpace(size), "x")
	f, err := strconv.ParseFloat(s, 64)
	if err != nil || !(f > 0 && f <= math.MaxFloat64) {
		return 0, fmt.Errorf("workload: invalid size label %q (want e.g. \"4x\")", size)
	}
	return f, nil
}

// Phase is one kernel-class burst within a task's repeating cycle.
type Phase struct {
	// Class is the kernel class executed in this burst.
	Class kernel.Class
	// Demand is the class's resolved device-level demand.
	Demand kernel.Demand
	// ActiveWork is the burst's solo duration per cycle at boost clock
	// and full allocation; contention and throttling dilate it.
	ActiveWork simtime.Duration
	// GapAfter is the host-side gap following the burst; gaps are wall
	// time and are unaffected by GPU contention.
	GapAfter simtime.Duration
	// DynPowerW is the dynamic board power while this burst runs at full
	// rate, apportioned from the task's calibrated active power by the
	// class's compute demand.
	DynPowerW float64
}

// TaskSpec is the engine-facing description of one task run: a repeating
// cycle of kernel bursts and gaps whose aggregate reproduces the calibrated
// profile.
type TaskSpec struct {
	// Workload and Size identify the benchmark task.
	Workload string
	Size     string
	// SoloDuration is the calibrated solo wall time.
	SoloDuration simtime.Duration
	// Duty is the calibrated kernel-resident fraction.
	Duty float64
	// MaxMemMiB is the device memory the task reserves for its lifetime.
	MaxMemMiB int64
	// Phases is one cycle; the task executes Cycles repetitions.
	Phases []Phase
	// Cycles is the number of cycle repetitions per task run.
	Cycles int
	// Agg is the weighted-average demand across classes, the quantity
	// offline profiling exposes to the scheduler.
	Agg kernel.Demand
	// Profile is the calibrated profile this spec was built from.
	Profile *SizeProfile
}

// TotalActiveWork returns the solo active GPU time of the whole task.
func (t *TaskSpec) TotalActiveWork() simtime.Duration {
	var per simtime.Duration
	for _, ph := range t.Phases {
		per += ph.ActiveWork
	}
	return per * simtime.Duration(t.Cycles)
}

// cycleTarget controls TaskSpec cycle granularity: enough cycles that
// co-scheduled tasks interleave smoothly, few enough that event counts stay
// manageable for hour-scale simulated runs.
const (
	cycleTargetPeriod = 500 * simtime.Millisecond
	minCycles         = 8
	maxCycles         = 4000
)

// BuildTaskSpec resolves a workload size into an executable TaskSpec on
// the given device.
func (w *Workload) BuildTaskSpec(size string, spec gpu.DeviceSpec) (*TaskSpec, error) {
	p, err := w.Profile(size)
	if err != nil {
		return nil, err
	}
	if len(p.Classes) == 0 {
		return nil, fmt.Errorf("workload %s/%s: no kernel classes", w.Name, size)
	}
	dur := p.SoloDuration()
	if dur <= 0 {
		return nil, fmt.Errorf("workload %s/%s: non-positive solo duration", w.Name, size)
	}

	cycles := int(dur / cycleTargetPeriod)
	if cycles < minCycles {
		cycles = minCycles
	}
	if cycles > maxCycles {
		cycles = maxCycles
	}
	period := dur / simtime.Duration(cycles)
	activePerCycle := simtime.FromSeconds(period.Seconds() * p.Duty)
	gapPerCycle := period - activePerCycle

	agg, err := kernel.AggregateDemand(spec, p.Classes)
	if err != nil {
		return nil, fmt.Errorf("workload %s/%s: %w", w.Name, size, err)
	}

	var totalW float64
	for _, c := range p.Classes {
		totalW += c.Weight
	}
	dynTotal := p.ActiveDynPowerW(spec)

	phases := make([]Phase, 0, len(p.Classes))
	for _, c := range p.Classes {
		d, err := c.ComputeDemand(spec)
		if err != nil {
			return nil, fmt.Errorf("workload %s/%s: %w", w.Name, size, err)
		}
		frac := c.Weight / totalW
		dyn := dynTotal
		if agg.Compute > 0 {
			// Apportion power by compute demand so compute-heavy
			// phases draw proportionally more, preserving the
			// time-averaged calibration.
			dyn = dynTotal * d.Compute / agg.Compute
		}
		phases = append(phases, Phase{
			Class:      c,
			Demand:     d,
			ActiveWork: simtime.FromSeconds(activePerCycle.Seconds() * frac),
			GapAfter:   simtime.FromSeconds(gapPerCycle.Seconds() * frac),
			DynPowerW:  dyn,
		})
	}

	return &TaskSpec{
		Workload:     w.Name,
		Size:         size,
		SoloDuration: dur,
		Duty:         p.Duty,
		MaxMemMiB:    p.MaxMemMiB,
		Phases:       phases,
		Cycles:       cycles,
		Agg:          agg,
		Profile:      p,
	}, nil
}
