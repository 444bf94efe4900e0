package core

import (
	"errors"
	"fmt"
	"math"

	"gpushare/internal/gpu"
	"gpushare/internal/profile"
	"gpushare/internal/simtime"
	"gpushare/internal/workflow"
	"gpushare/internal/xrand"
)

// Typed validation errors for fleet generation: a stream with no
// workflows or a non-positive GPU target has no meaningful output, and
// silently defaulting would hide caller bugs (a computed-zero shape is
// almost always an arithmetic mistake, not a request for the defaults).
var (
	// ErrFleetNoWorkflows rejects FleetSpec.Workflows < 1.
	ErrFleetNoWorkflows = errors.New("core: fleet needs at least one workflow")
	// ErrFleetNoGPUs rejects FleetSpec.TargetGPUs < 0 (zero still selects
	// the documented default of 64).
	ErrFleetNoGPUs = errors.New("core: fleet needs a non-negative GPU target")
)

// Fleet generation: a deterministic synthetic arrival stream sized for
// dispatcher benchmarks (tens of thousands of workflows over hundreds of
// GPUs). Real traces at that scale do not fit the repo, so the generator
// fabricates a small set of profile archetypes and draws single-task
// workflows from them with exponential inter-arrival gaps — the shape
// fleet admission control has to keep up with (arXiv:2105.10312,
// arXiv:2505.08562 both argue per-arrival decisions must stay cheap at
// exactly this scale).

// fleetArchetypes is the number of distinct synthetic task profiles a
// fleet draws from, and fleetMeanDurationS their mean predicted solo
// duration (the paper's workflows run seconds to minutes).
const (
	fleetArchetypes    = 16
	fleetMeanDurationS = 120.0
)

// FleetSpec parameterizes a synthetic arrival stream.
type FleetSpec struct {
	// Workflows is the number of arrivals to generate (at least 1).
	Workflows int
	// TargetGPUs sizes the mean inter-arrival gap so that many devices
	// run at roughly 80% of their collocation capacity under the energy
	// policy (~3 residents per GPU); zero selects 64.
	TargetGPUs int
	// Seed drives the xrand stream; equal specs generate byte-identical
	// fleets.
	Seed uint64
}

// GenerateFleet fabricates a deterministic arrival stream plus the profile
// store the scheduler plans it from. The returned arrivals are sorted by
// arrival time (gaps are non-negative) and reference only profiles present
// in the store, so they feed PlanOnline directly. It is NewFleetSource
// drained into a slice; streaming callers that must not hold the whole
// fleet use the source directly (the two are byte-identical draw for
// draw, pinned by TestFleetSourceMatchesGenerateFleet).
func GenerateFleet(device gpu.DeviceSpec, spec FleetSpec) ([]Arrival, *profile.Store, error) {
	src, store, err := NewFleetSource(device, spec)
	if err != nil {
		return nil, nil, err
	}
	arrivals := make([]Arrival, 0, spec.Workflows)
	for {
		a, ok := src.Next()
		if !ok {
			break
		}
		arrivals = append(arrivals, a)
	}
	return arrivals, store, nil
}

// FleetSource lazily yields the arrival stream GenerateFleet would
// build, one arrival at a time, so a million-arrival ingest never holds
// more than the arrival in flight. The RNG draw order is exactly
// GenerateFleet's (archetype fabrication up front, then per arrival one
// Intn and one Float64), so equal specs yield byte-identical streams
// through either path.
type FleetSource struct {
	rng   *xrand.Source
	names []string
	gap   float64
	total int
	i     int
	now   simtime.Time
}

// NewFleetSource validates the spec, fabricates the archetype profile
// store, and returns the lazy arrival source.
func NewFleetSource(device gpu.DeviceSpec, spec FleetSpec) (*FleetSource, *profile.Store, error) {
	if spec.Workflows < 1 {
		return nil, nil, fmt.Errorf("%w, got %d", ErrFleetNoWorkflows, spec.Workflows)
	}
	if spec.TargetGPUs < 0 {
		return nil, nil, fmt.Errorf("%w, got %d", ErrFleetNoGPUs, spec.TargetGPUs)
	}
	if err := device.Validate(); err != nil {
		return nil, nil, err
	}
	gpus := spec.TargetGPUs
	if gpus == 0 {
		gpus = 64
	}
	// ~3 co-residents per GPU under the additive SM rule, at 80%
	// occupancy: concurrency = fleetMeanDurationS/gap = 3 * gpus * 0.8.
	gap := fleetMeanDurationS / (3 * float64(gpus) * 0.8)

	rng := xrand.New(spec.Seed)
	store := profile.NewStore()
	names := make([]string, fleetArchetypes)
	for k := range names {
		names[k] = fmt.Sprintf("fleet-a%03d", k)
		sm := 8 + 50*rng.Float64() // 8..58% SM: groups of 2-6 fit the rule
		bw := 5 + 40*rng.Float64() // 5..45% bandwidth
		mem := 2048 + int64(18432*rng.Float64())
		dur := fleetMeanDurationS * (0.3 + 1.4*rng.Float64())
		// Idle share consistent with the SM average: duty must cover it.
		idle := rng.Float64() * (90 - sm)
		power := device.IdlePowerW + 2.1*sm + 0.6*bw
		if err := store.Add(&profile.TaskProfile{
			Workload:          names[k],
			Size:              "1x",
			Device:            device.Name,
			DurationS:         dur,
			MaxMemMiB:         mem,
			AvgSMUtilPct:      sm,
			AvgBWUtilPct:      bw,
			AvgPowerW:         power,
			EnergyJ:           power * dur,
			GPUIdlePct:        idle,
			TheoreticalOccPct: 50,
			AchievedOccPct:    35,
			SizeFactor:        1,
		}); err != nil {
			return nil, nil, err
		}
	}

	return &FleetSource{
		rng:   rng,
		names: names,
		gap:   gap,
		total: spec.Workflows,
		now:   simtime.Zero,
	}, store, nil
}

// Next yields the next arrival; ok is false once the stream is
// exhausted.
func (f *FleetSource) Next() (a Arrival, ok bool) {
	if f.i >= f.total {
		return Arrival{}, false
	}
	k := f.rng.Intn(len(f.names))
	a = Arrival{
		At: f.now,
		Workflow: workflow.Workflow{
			Name: fmt.Sprintf("fleet-%06d-a%03d", f.i, k),
			Tasks: []workflow.Task{
				{Benchmark: f.names[k], Size: "1x", Iterations: 1},
			},
		},
	}
	// Exponential inter-arrival gap with mean gap seconds.
	u := f.rng.Float64()
	f.now = f.now.Add(simtime.FromSeconds(-f.gap * math.Log(1-u)))
	f.i++
	return a, true
}

// Remaining reports how many arrivals the source has yet to yield.
func (f *FleetSource) Remaining() int { return f.total - f.i }
