package core

import (
	"fmt"
	"math"

	"gpushare/internal/interference"
	"gpushare/internal/profile"
	"gpushare/internal/workflow"
	"gpushare/internal/workload"
)

// WorkflowProfile aggregates a workflow's task profiles to the granularity
// the scheduler packs at: scheduling happens "at the level of workflow
// tasks and not GPU kernel" (§IV-B), and a whole workflow occupies its MPS
// client for its full duration, so utilizations are duration-weighted
// averages and memory is the peak across tasks.
type WorkflowProfile struct {
	Workflow workflow.Workflow
	// AvgSMUtilPct is the duration-weighted average SM utilization.
	AvgSMUtilPct float64
	// AvgBWUtilPct is the duration-weighted average bandwidth
	// utilization.
	AvgBWUtilPct float64
	// MaxMemMiB is the maximum memory footprint across tasks (criterion
	// 3: "we take into account the maximum memory requirement for each
	// task").
	MaxMemMiB int64
	// TotalDurationS is the predicted solo duration of the workflow.
	TotalDurationS float64
	// EnergyJ is the predicted solo energy.
	EnergyJ float64
	// PeakActiveComputePct estimates the workflow's instantaneous
	// compute demand while kernels are resident (used for partition
	// right-sizing): max over tasks of SM% / duty.
	PeakActiveComputePct float64
	// PeakFillFraction estimates the warp-slot fill the workflow's
	// kernels sustain — achieved over theoretical occupancy, max across
	// tasks. Latency-bound kernels saturate at their fill, not their
	// compute demand, so right-sizing must cover both (Figure 1).
	PeakFillFraction float64
}

// avgPowerW is the workflow's duration-weighted average power, derived
// from its energy and duration (used by the opposing-power heuristic).
func (wp *WorkflowProfile) avgPowerW() float64 {
	if wp.TotalDurationS <= 0 {
		return 0
	}
	return wp.EnergyJ / wp.TotalDurationS
}

// profileView is the synthetic task profile handed to the interference
// predictor: a workflow behaves like one task with its aggregate profile.
func (wp *WorkflowProfile) profileView() *profile.TaskProfile {
	return &profile.TaskProfile{
		Workload:     wp.Workflow.Name,
		Size:         "wf",
		AvgSMUtilPct: wp.AvgSMUtilPct,
		AvgBWUtilPct: wp.AvgBWUtilPct,
		MaxMemMiB:    wp.MaxMemMiB,
	}
}

// Load is the workflow's contribution to the additive interference
// rules — the same three quantities profileView exposes to Predict, so
// aggregate probes over loads are bit-identical to Predict over views.
func (wp *WorkflowProfile) Load() interference.Load {
	return interference.Load{
		SMPct:  wp.AvgSMUtilPct,
		BWPct:  wp.AvgBWUtilPct,
		MemMiB: wp.MaxMemMiB,
	}
}

// BuildWorkflowProfile aggregates the store's task profiles over a
// workflow, inferring missing sizes by scaling.
func BuildWorkflowProfile(store *profile.Store, w workflow.Workflow) (*WorkflowProfile, error) {
	// Shape-only validation: planning resolves benchmarks through the
	// profile store, so store-only benchmarks (fleet archetypes) are
	// legal here; the store lookup below rejects anything it lacks.
	if err := w.ValidateShape(); err != nil {
		return nil, err
	}
	if store == nil {
		return nil, fmt.Errorf("core: nil profile store")
	}
	wp := &WorkflowProfile{Workflow: w}
	for _, t := range w.Tasks {
		p, err := store.Lookup(canonicalName(t.Benchmark), t.Size)
		if err != nil {
			return nil, fmt.Errorf("core: workflow %s: %w", w.Name, err)
		}
		if p.MaxMemMiB < 0 {
			// The workflow's peak starts at zero, so it would hide this.
			return nil, fmt.Errorf("core: workflow %s: task %s/%s has negative memory %d MiB",
				w.Name, t.Benchmark, t.Size, p.MaxMemMiB)
		}
		dur := p.DurationS * float64(t.Iterations)
		wp.TotalDurationS += dur
		wp.EnergyJ += p.EnergyJ * float64(t.Iterations)
		wp.AvgSMUtilPct += p.AvgSMUtilPct * dur
		wp.AvgBWUtilPct += p.AvgBWUtilPct * dur
		if p.MaxMemMiB > wp.MaxMemMiB {
			wp.MaxMemMiB = p.MaxMemMiB
		}
		duty := 1 - p.GPUIdlePct/100
		if duty < 0.05 {
			duty = 0.05
		}
		if active := p.AvgSMUtilPct / duty; active > wp.PeakActiveComputePct {
			wp.PeakActiveComputePct = active
		}
		if p.TheoreticalOccPct > 0 {
			if fill := p.AchievedOccPct / p.TheoreticalOccPct; fill > wp.PeakFillFraction {
				wp.PeakFillFraction = fill
			}
		}
	}
	if wp.TotalDurationS <= 0 {
		return nil, fmt.Errorf("core: workflow %s has zero predicted duration", w.Name)
	}
	wp.AvgSMUtilPct /= wp.TotalDurationS
	wp.AvgBWUtilPct /= wp.TotalDurationS
	// Admission folds these loads into per-GPU sums and compares the
	// sums with limits: a NaN or infinite load makes the fold's bits
	// depend on operand order, and a negative one lets a sum shrink as
	// residents arrive. Both dispatchers build profiles here, so this is
	// where such inputs stop.
	if !nonNegFinite(wp.AvgSMUtilPct) || !nonNegFinite(wp.AvgBWUtilPct) {
		return nil, fmt.Errorf("core: workflow %s: averaged SM/BW utilization %g/%g %%, want finite and non-negative",
			w.Name, wp.AvgSMUtilPct, wp.AvgBWUtilPct)
	}
	return wp, nil
}

// nonNegFinite reports whether x is a finite number at or above zero.
func nonNegFinite(x float64) bool { return x >= 0 && !math.IsInf(x, 1) }

// canonicalName resolves paper aliases ("MHD") to suite names so store
// keys are stable regardless of which alias a workflow used. Store-only
// benchmarks (fleet archetypes) miss the registry by design; the probe
// is allocation-free so the miss costs nothing on the per-arrival path.
func canonicalName(benchmark string) string {
	if w, ok := workload.Canonical(benchmark); ok {
		return w
	}
	return benchmark
}
