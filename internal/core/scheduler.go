package core

import (
	"fmt"
	"math"
	"sort"

	"gpushare/internal/gpu"
	"gpushare/internal/interference"
	"gpushare/internal/obs"
	"gpushare/internal/parallel"
	"gpushare/internal/profile"
	"gpushare/internal/workflow"
)

// Group is one collocation decision: workflows that share a GPU
// concurrently, each as one MPS client.
type Group struct {
	// Members are the collocated workflow profiles, in packing order.
	Members []*WorkflowProfile
	// Partitions are the MPS active-thread fractions per member (1.0
	// when right-sizing is off).
	Partitions []float64
	// Estimate is the interference prediction for the group.
	Estimate interference.Estimate
}

// Names returns the member workflow names.
func (g *Group) Names() []string {
	out := make([]string, len(g.Members))
	for i, m := range g.Members {
		out[i] = m.Workflow.Name
	}
	return out
}

// PredictedDurationS estimates the group's wall time: the longest member
// (members run concurrently), assuming interference-free collocation —
// which is what the packing rules enforce.
func (g *Group) PredictedDurationS() float64 {
	var d float64
	for _, m := range g.Members {
		if m.TotalDurationS > d {
			d = m.TotalDurationS
		}
	}
	return d
}

// Plan is a complete scheduling decision: per GPU, an ordered sequence of
// collocation groups (waves) executed back-to-back.
type Plan struct {
	Policy Policy
	Device gpu.DeviceSpec
	// PerGPU[g] is GPU g's wave sequence.
	PerGPU [][]*Group
}

// Groups returns all groups across GPUs in (gpu, wave) order.
func (p *Plan) Groups() []*Group {
	var out []*Group
	for _, waves := range p.PerGPU {
		out = append(out, waves...)
	}
	return out
}

// WorkflowCount returns the total workflows scheduled.
func (p *Plan) WorkflowCount() int {
	n := 0
	for _, g := range p.Groups() {
		n += len(g.Members)
	}
	return n
}

// Scheduler is the granularity- and interference-aware workflow scheduler.
type Scheduler struct {
	// Device is the GPU model of every device in the pool.
	Device gpu.DeviceSpec
	// GPUs is the pool size (the paper evaluates on small sets of
	// A100Xs); it must be at least 1.
	GPUs int
	// Profiles is the offline profiling campaign to schedule from.
	Profiles *profile.Store
	// Policy selects objective and knobs.
	Policy Policy
	// Workers bounds the worker pool Execute fans independent simulation
	// runs out on (per-GPU wave sequences, per-workflow baseline runs);
	// <= 0 selects GOMAXPROCS. Outcomes are byte-identical at any worker
	// count (DESIGN.md §8).
	Workers int
	// Cache optionally memoizes simulation runs across Execute calls;
	// nil runs uncached.
	Cache *parallel.Cache
}

// NewScheduler constructs a scheduler with validation.
func NewScheduler(device gpu.DeviceSpec, gpus int, store *profile.Store, policy Policy) (*Scheduler, error) {
	if device.Name == "" {
		device = gpu.MustLookup("A100X")
	}
	if err := device.Validate(); err != nil {
		return nil, err
	}
	if gpus < 1 {
		return nil, fmt.Errorf("core: scheduler needs at least one GPU, got %d", gpus)
	}
	if store == nil {
		return nil, fmt.Errorf("core: scheduler needs a profile store")
	}
	if err := policy.Validate(); err != nil {
		return nil, err
	}
	return &Scheduler{Device: device, GPUs: gpus, Profiles: store, Policy: policy}, nil
}

// BuildPlan selects collocation groups for the queued workflows following
// §IV-B:
//
//  1. workflows with the lowest compute utilization are prioritized for
//     co-scheduling;
//  2. total compute utilization is kept under 100% combined;
//  3. combined maximum memory must fit device memory;
//  4. the client cap comes from the prioritized metric (2 for throughput,
//     the MPS maximum for energy efficiency).
//
// Groups are then placed on the least-loaded GPU (earliest predicted
// finish), and partitions are right-sized when the policy asks for it.
func (s *Scheduler) BuildPlan(q *workflow.Queue) (*Plan, error) {
	if q == nil || q.Len() == 0 {
		return nil, fmt.Errorf("core: empty workflow queue")
	}
	hub := obs.Active()
	defer hub.StartWall("scheduler", "BuildPlan").End()
	items := q.Items()
	profiles := make([]*WorkflowProfile, len(items))
	for i, w := range items {
		wp, err := BuildWorkflowProfile(s.Profiles, w)
		if err != nil {
			return nil, err
		}
		profiles[i] = wp
	}

	// Criterion 1: ascending compute utilization; ties broken by queue
	// position (stable sort) for determinism.
	order := make([]*WorkflowProfile, len(profiles))
	copy(order, profiles)
	sort.SliceStable(order, func(i, j int) bool {
		return order[i].AvgSMUtilPct < order[j].AvgSMUtilPct
	})

	// Candidate index: loads pre-extracted in packing order so every
	// admission probe is three additions against the group's aggregate
	// (no per-probe profile views, no Predict rescan).
	clientCap := s.Policy.ClientCap(s.Device.MaxMPSClients)
	loads := make([]interference.Load, len(order))
	for i, wp := range order {
		loads[i] = wp.Load()
	}
	assigned := make([]bool, len(order))
	// rejectedIn[j] marks the group (by id) that last rejected candidate
	// j: group sums only grow, so a rejection holds for the rest of that
	// group's construction (used by the opposing-power scan, which has no
	// cursor).
	rejectedIn := make([]int, len(order))
	for i := range rejectedIn {
		rejectedIn[i] = -1
	}
	agg := interference.NewAggregate(s.Device)
	var groups []*Group
	for seedIdx, seed := range order {
		if assigned[seedIdx] {
			continue
		}
		g := &Group{Members: []*WorkflowProfile{seed}}
		assigned[seedIdx] = true
		agg.Reset()
		agg.Add(loads[seedIdx])
		// First-fit cursor: everything before the seed is assigned, and a
		// candidate the growing group rejected once stays rejected, so the
		// scan never revisits an index within one group.
		cursor := seedIdx + 1
		groupID := len(groups)
		for len(g.Members) < clientCap {
			var cand int
			if s.Policy.PairOpposingPower {
				cand = s.pickOpposingPower(order, loads, assigned, rejectedIn, groupID, &agg, g.Members)
			} else {
				cand = s.pickFirstFit(loads, assigned, &agg, &cursor)
			}
			if cand < 0 {
				break
			}
			g.Members = append(g.Members, order[cand])
			assigned[cand] = true
			agg.Add(loads[cand])
		}
		g.Estimate = s.estimate(g.Members)
		s.rightSize(g)
		groups = append(groups, g)
	}

	// Place groups on the least-loaded GPU, longest groups first so the
	// pool balances (LPT heuristic); ties break on GPU index.
	sort.SliceStable(groups, func(i, j int) bool {
		return groups[i].PredictedDurationS() > groups[j].PredictedDurationS()
	})
	plan := &Plan{Policy: s.Policy, Device: s.Device, PerGPU: make([][]*Group, s.GPUs)}
	load := make([]float64, s.GPUs)
	for _, g := range groups {
		best := 0
		for i := 1; i < s.GPUs; i++ {
			if load[i] < load[best] {
				best = i
			}
		}
		plan.PerGPU[best] = append(plan.PerGPU[best], g)
		load[best] += g.PredictedDurationS()
	}

	// Collocation-group occupancy: how full the packer ran each group.
	// Group composition is a pure function of the queue and policy, so
	// these are deterministic.
	hub.Counter("sched_plans_total").Inc()
	hub.Counter("sched_groups_total").Add(int64(len(groups)))
	occ := hub.Histogram("sched_group_occupancy", groupOccupancyBounds)
	for _, g := range groups {
		occ.Observe(int64(len(g.Members)))
	}
	return plan, nil
}

// groupOccupancyBounds bucket collocation-group member counts (the MPS
// client limit is 48 on the paper's device).
var groupOccupancyBounds = []int64{1, 2, 3, 4, 6, 8, 16, 32}

// pickFirstFit selects the first (lowest-utilization) candidate the
// group's aggregate admits, resuming from cursor: rejections are final
// within a group (sums only grow), so each group scans the candidate
// index at most once end to end.
func (s *Scheduler) pickFirstFit(loads []interference.Load, assigned []bool, agg *interference.Aggregate, cursor *int) int {
	for j := *cursor; j < len(loads); j++ {
		if assigned[j] {
			continue
		}
		if agg.Admit(loads[j])&s.Policy.rules() == 0 {
			*cursor = j + 1
			return j
		}
	}
	*cursor = len(loads)
	return -1
}

// pickOpposingPower selects — under recommendation 3 — the fitting
// candidate whose predicted average power is farthest from the group's
// current mean ("pair workflows with opposing power profiles"). The scan
// order and strict-improvement tie-break match the retired pickCandidate
// exactly; rejectedIn only skips candidates this group already rejected.
func (s *Scheduler) pickOpposingPower(order []*WorkflowProfile, loads []interference.Load, assigned []bool, rejectedIn []int, groupID int, agg *interference.Aggregate, members []*WorkflowProfile) int {
	var groupPower float64
	for _, m := range members {
		groupPower += m.avgPowerW()
	}
	groupPower /= float64(len(members))
	best := -1
	bestDelta := -1.0
	for j := range order {
		if assigned[j] || rejectedIn[j] == groupID {
			continue
		}
		if agg.Admit(loads[j])&s.Policy.rules() != 0 {
			rejectedIn[j] = groupID
			continue
		}
		delta := order[j].avgPowerW() - groupPower
		if delta < 0 {
			delta = -delta
		}
		if delta > bestDelta {
			best, bestDelta = j, delta
		}
	}
	return best
}

// estimate runs the interference predictor over a member set and counts
// the outcome. Prediction outcomes are pure functions of the profiles,
// so the counters are deterministic.
func (s *Scheduler) estimate(members []*WorkflowProfile) interference.Estimate {
	views := make([]*profile.TaskProfile, len(members))
	for i, m := range members {
		views[i] = m.profileView()
	}
	est := interference.Predict(s.Device, views)
	if hub := obs.Active(); hub != nil {
		hub.Counter("sched_predict_total").Inc()
		if est.Interferes {
			hub.Counter("sched_predict_interfering_total").Inc()
		}
		if est.Has(interference.Capacity) {
			hub.Counter("sched_predict_capacity_total").Inc()
		}
	}
	return est
}

// partitionHeadroom is the multiplicative margin rightSize applies to a
// member's predicted saturation point.
const partitionHeadroom = 1.2

// rightSize assigns each member an MPS partition covering its predicted
// peak active compute demand plus headroom, rounded up to the 10% steps
// the paper sweeps in Figure 1. Without right-sizing every member gets
// the full device.
func (s *Scheduler) rightSize(g *Group) {
	g.Partitions = make([]float64, len(g.Members))
	for i := range g.Partitions {
		g.Partitions[i] = 1
	}
	if !s.Policy.RightSizePartitions || len(g.Members) < 2 {
		return
	}
	for i, m := range g.Members {
		// A partition must cover both the compute demand and the
		// warp-slot fill of the member's kernels: below either, the
		// member dilates (Figure 1's red-circle region).
		need := math.Max(m.PeakActiveComputePct/100, m.PeakFillFraction) * partitionHeadroom
		p := math.Ceil(need*10) / 10
		if p < 0.1 {
			p = 0.1
		}
		if p > 1 {
			p = 1
		}
		g.Partitions[i] = p
	}
}
