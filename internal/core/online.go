package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"gpushare/internal/admission"
	"gpushare/internal/gpusim"
	"gpushare/internal/interference"
	"gpushare/internal/metrics"
	"gpushare/internal/obs"
	"gpushare/internal/profile"
	"gpushare/internal/simtime"
	"gpushare/internal/workflow"
)

// ErrNoArrivals is the typed validation error for an empty arrival
// stream: there is nothing to plan, and downstream wait statistics
// (MeanWaitS over zero dispatches) would be undefined. Callers that want
// "empty in, empty out" check for it with errors.Is.
var ErrNoArrivals = errors.New("core: no arrivals")

// Online scheduling extends the paper's offline queue model (§IV-B
// assumes "an entire queue of workflow tasks ... is known before workflow
// execution") to workflows arriving over time — the direction §VI's
// "comprehensive scheduling framework" points at. Dispatch decisions use
// the same interference rules, applied incrementally against what is
// already running on each GPU.

// Arrival is one workflow submission.
type Arrival struct {
	// At is the submission instant.
	At simtime.Time
	// Workflow is the submitted workflow.
	Workflow workflow.Workflow
}

// DispatchEvent records one scheduling decision for the event log.
type DispatchEvent struct {
	// At is the dispatch instant.
	At simtime.Time
	// Workflow is the dispatched workflow's name.
	Workflow string
	// GPU is the target device index.
	GPU int
	// WaitedS is the queueing delay in seconds.
	WaitedS float64
	// RunningAlongside names the workflows predicted to still be running
	// on that GPU at dispatch time.
	RunningAlongside []string
}

// OnlineOutcome is the result of an online-scheduling emulation.
type OnlineOutcome struct {
	// Dispatches is the decision log in dispatch order.
	Dispatches []DispatchEvent
	// Sharing and Sequential summarize the simulated executions; both
	// respect the arrival times.
	Sharing    metrics.RunSummary
	Sequential metrics.RunSummary
	// Relative holds the paper's metrics for sharing vs sequential.
	Relative metrics.Relative
	// MeanWaitS and MaxWaitS summarize queueing delay under sharing.
	MeanWaitS float64
	MaxWaitS  float64
}

// onlineResident tracks a dispatched workflow during planning; the
// admission pool keeps it by value beside its load and retires it by
// its placement serial, seq.
type onlineResident struct {
	name string
	end  simtime.Time
	seq  uint64
}

// Serial is the placement serial.
func (r onlineResident) Serial() uint64 { return r.seq }

// ProfileBuilder resolves workflows to profiles with a memoization
// layer: fleet streams draw millions of arrivals from a handful of
// archetypes, and a profile is a pure function of the task list and the
// store, so single-task workflows are cached by their task value
// (comparable struct key, allocation-free lookup). Both dispatchers
// build through it: core's online planner and streamer, and the
// cluster planner. Cached profiles carry the *first* arrival's workflow
// name; everything name-dependent on a dispatch path therefore reads
// the arrival, never the profile.
type ProfileBuilder struct {
	store *profile.Store
	cache map[workflow.Task]*WorkflowProfile
}

// profileCacheCap bounds the memo map so adversarial streams with
// unbounded distinct tasks cannot grow it without limit (the streaming
// path promises bounded steady-state memory).
const profileCacheCap = 4096

// NewProfileBuilder returns an empty memo over store.
func NewProfileBuilder(store *profile.Store) *ProfileBuilder {
	return &ProfileBuilder{store: store, cache: make(map[workflow.Task]*WorkflowProfile)}
}

// Build returns w's profile, from cache when possible. A miss
// validates w's shape in BuildWorkflowProfile; a hit's task is the
// cache key, validated when it was cached, so only the name is checked.
// An uncached profile (multi-task workflow, or the cache is full) is a
// plain heap object the GC reclaims once its holder drops it.
func (b *ProfileBuilder) Build(w workflow.Workflow) (*WorkflowProfile, error) {
	single := len(w.Tasks) == 1
	if single {
		if wp, ok := b.cache[w.Tasks[0]]; ok {
			if w.Name == "" {
				return nil, w.ValidateShape() // its empty-name error
			}
			return wp, nil
		}
	}
	wp, err := BuildWorkflowProfile(b.store, w)
	if err != nil {
		return nil, err
	}
	if single && len(b.cache) < profileCacheCap {
		b.cache[w.Tasks[0]] = wp
	}
	return wp, nil
}

// queueWaitBoundsMs bucket online queueing delay in simulated
// milliseconds (the paper's workflows run seconds to minutes).
var queueWaitBoundsMs = []int64{0, 10, 100, 1_000, 10_000, 60_000, 600_000}

// serviceBoundsMs bucket predicted service time (profile-derived
// workflow duration) in simulated milliseconds.
var serviceBoundsMs = []int64{1_000, 5_000, 15_000, 60_000, 300_000, 1_800_000}

// OnlinePlan is the decision half of an online-scheduling emulation: the
// dispatch log plus the placement the simulator executes. PlanOnline
// produces it; ScheduleOnline executes it.
type OnlinePlan struct {
	// Dispatches is the decision log in dispatch order.
	Dispatches []DispatchEvent
	// Stats summarizes the work the admission path did.
	Stats DispatchStats

	arrivals []Arrival          // sorted by arrival time; Dispatches runs parallel
	profiles []*WorkflowProfile // parallel to arrivals
}

// DispatchStats counts the admission path's work. Probe counts are an
// implementation property (the incremental dispatcher skips probes a
// rescan would repeat), not part of the plan identity.
type DispatchStats struct {
	// Probes is the number of GPUs the first-fit index confirmed with
	// an admission check.
	Probes int64
	// Visits is the number of index nodes the scans examined, the
	// confirmed GPUs and those found at their client cap included.
	// Snapshots from before the counter existed restore it as 0.
	Visits int64
	// Waits is the number of predicted completions waited for.
	Waits int64
	// Completions is the number of resident retirements processed.
	Completions int64
}

// PlanOnline runs the online admission path alone: workflows are
// dispatched at or after their arrival, to the first GPU where the
// paper's rules admit them alongside the residents; otherwise they wait
// for a predicted completion. It is the per-arrival decision procedure a
// production dispatcher would run, so it is benchmarked (and sized) for
// fleet-scale streams; ScheduleOnline adds the simulated execution.
func (s *Scheduler) PlanOnline(arrivals []Arrival) (*OnlinePlan, error) {
	hub := obs.Active()
	defer hub.StartWall("scheduler", "PlanOnline").End()
	return s.planOnline(arrivals)
}

// planOnline sorts the arrivals, builds their profiles, and runs the
// admission loop.
func (s *Scheduler) planOnline(arrivals []Arrival) (*OnlinePlan, error) {
	if len(arrivals) == 0 {
		return nil, ErrNoArrivals
	}
	sorted := make([]Arrival, len(arrivals))
	copy(sorted, arrivals)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].At < sorted[j].At })

	builder := NewProfileBuilder(s.Profiles)
	profiles := make([]*WorkflowProfile, len(sorted))
	for i, a := range sorted {
		wp, err := builder.Build(a.Workflow)
		if err != nil {
			return nil, err
		}
		profiles[i] = wp
	}

	plan := &OnlinePlan{
		Dispatches: make([]DispatchEvent, 0, len(sorted)),
		arrivals:   sorted,
		profiles:   profiles,
	}
	if err := s.dispatchArrivals(plan); err != nil {
		return nil, err
	}
	return plan, nil
}

// onlineDispatcher is the admission state the decision loop drives: the
// admission pool (each GPU's residents, interference aggregate, change
// generation and predicted completions) and single-owner telemetry
// histograms. The decision kernel (admit/retire/scan) is the production
// dispatcher's per-arrival work and is held to the hot-path contract;
// dispatchOne keeps the per-dispatch record building outside it.
type onlineDispatcher struct {
	pool admission.Pool[onlineResident]
	// empty is a GPU that never gains residents: sums only grow as
	// residents join, so a load it rejects every GPU rejects.
	empty interference.Aggregate

	// seq numbers the dispatches: every dispatch places one resident, so
	// a dispatch's event index, its flight records' Seq (the key
	// `gpusched explain -seq` queries by) and its resident's placement
	// serial are one number, and seq is also the count of dispatches.
	seq int64

	policy   Policy
	stats    DispatchStats
	waitedNS int64 // total queueing delay, sim ns

	// Single-owner histograms: the decision loop is serial, so each
	// observation is an unsynchronized int bump; mergeObs folds them into
	// the shared registry once per run.
	waitHist    *obs.LocalHistogram // admission latency, sim ms
	depthHist   *obs.LocalHistogram // collocated clients at dispatch
	serviceHist *obs.LocalHistogram // predicted service time, sim ms
	// fl is the decision-provenance recorder, captured once at
	// construction (nil when telemetry is disabled — the hot path then
	// pays one predictable branch per rejection and allocates nothing).
	fl *obs.Flight
}

// newOnlineDispatcher builds the admission state for the scheduler's
// fleet. A zero-GPU fleet gets no GPUs: every scan finds nothing and
// admit reports the arrival unadmittable.
func newOnlineDispatcher(s *Scheduler) *onlineDispatcher {
	d := &onlineDispatcher{
		empty:       interference.NewAggregate(s.Device),
		policy:      s.Policy,
		waitHist:    obs.NewLocalHistogram(queueWaitBoundsMs),
		depthHist:   obs.NewLocalHistogram(groupOccupancyBounds),
		serviceHist: obs.NewLocalHistogram(serviceBoundsMs),
		fl:          obs.Active().FlightRecorder(),
	}
	// Every GPU judges alike: the policy's client cap and rules, with
	// no SM cap and no memory partition.
	d.pool.AddGPUs(s.Device, s.GPUs, admission.Class{
		MaxResidents: s.Policy.ClientCap(s.Device.MaxMPSClients),
		Rules:        s.Policy.rules(),
		SMCap:        math.Inf(1),
		MemMiB:       math.MaxInt64,
	})
	return d
}

// scan asks the pool's first-fit index for the lowest-index GPU that
// admits the load and returns it, or -1. Every round is the same
// query: a retry round after a completion needs no narrowing, because
// GPUs unchanged since the failed round still reject, so the leftmost
// admitting GPU is the leftmost changed one either way. With telemetry
// on, the scan leaves one flight record: the winner, the index nodes
// visited and the GPUs rejected per rule.
//
//repro:hotpath pinned by TestDispatcherAdmitAllocs
func (d *onlineDispatcher) scan(load interference.Load, seq int64, now simtime.Time) int {
	var tally obs.ScanTally
	var t *obs.ScanTally
	if d.fl != nil {
		t = &tally
	}
	placed, visits, probes := d.pool.FirstFit(load, t)
	d.stats.Probes += int64(probes)
	d.stats.Visits += int64(visits)
	if t != nil {
		d.fl.Record(tally.Summary(seq, int64(now), int32(placed)))
	}
	return placed
}

// retire removes the residents predicted to have finished by now; the
// pool retires each by its placement serial and advances the touched
// GPU's generation.
//
//repro:hotpath pinned by TestDispatcherAdmitAllocs
func (d *onlineDispatcher) retire(now simtime.Time) {
	for _, _, ok := d.pool.Retire(now); ok; _, _, ok = d.pool.Retire(now) {
		d.stats.Completions++
	}
}

// admit runs the wait loop for one arrival: first-fit over GPUs in index
// order, waiting on predicted completions when no GPU admits. It returns
// the dispatch instant and target, or ok=false when no GPU can ever
// admit the load. A load an empty GPU rejects is refused before any
// retirement, so a refusal leaves the fleet as it found it. Resident
// sets are only mutated by retirement; the caller commits the chosen
// placement with place.
//
//repro:hotpath pinned by TestDispatcherAdmitAllocs
func (d *onlineDispatcher) admit(load interference.Load, arrival simtime.Time, seq int64) (at simtime.Time, gpu int, ok bool) {
	if d.refuses(load) {
		return 0, -1, false
	}
	now := arrival
	for {
		d.retire(now)
		placed := d.scan(load, seq, now)
		if placed >= 0 {
			return now, placed, true
		}
		// Wait for the next predicted completion (every remaining resident
		// ends after now).
		next, okNext := d.pool.NextCompletion()
		if !okNext {
			return 0, -1, false
		}
		d.stats.Waits++
		if d.fl != nil {
			d.fl.Record(obs.FlightRecord{
				Seq: seq, Kind: obs.FlightWait, AtNS: int64(now),
				GPU: -1, WaitNS: int64(next - now),
			})
		}
		now = next
	}
}

// refuses reports that no GPU can ever admit load.
func (d *onlineDispatcher) refuses(load interference.Load) bool {
	return d.empty.Admit(load)&d.policy.rules() != 0
}

// fits reports that an empty GPU of the fleet admits load, so admit
// places it sooner or later.
func (d *onlineDispatcher) fits(load interference.Load) bool {
	return d.pool.GPUs() > 0 && !d.refuses(load)
}

// unadmittable is the error for an arrival no GPU can ever admit.
func unadmittable(a *Arrival, wp *WorkflowProfile) error {
	return fmt.Errorf("core: workflow %s cannot be admitted on any GPU (needs %d MiB)",
		a.Workflow.Name, wp.MaxMemMiB)
}

// place commits an admitted load: the resident joins GPU g's set and
// fold under placement serial seq, and its predicted completion is
// scheduled against that serial.
//
//repro:hotpath pinned by TestDispatcherAdmitAllocs
func (d *onlineDispatcher) place(g int, load interference.Load, name string, end simtime.Time, seq uint64) {
	d.pool.Add(g, load, onlineResident{name: name, end: end, seq: seq})
	d.pool.Schedule(g, end, seq)
}

// nameChunk is the smallest backing array dispatchOne starts when the
// caller's name buffer runs out of room: one allocation serves
// thousands of short co-resident lists.
const nameChunk = 4096

// dispatchOne runs one arrival end to end: admit, record, place. The
// returned event's RunningAlongside (nil when the GPU was empty,
// preserving the log's JSON shape) is appended to the caller-owned
// *names buffer and capped at its own length, so a caller's append
// cannot overwrite the next event's list. When the buffer lacks room
// a fresh chunk replaces it and earlier lists keep the old one; the
// list stays valid until the caller reuses the buffer's space.
// Everything name-dependent reads the arrival, not the profile —
// cached profiles carry another arrival's name.
func (d *onlineDispatcher) dispatchOne(a *Arrival, wp *WorkflowProfile, names *[]string) (DispatchEvent, error) {
	load := wp.Load()
	seq := d.seq
	if d.fl != nil {
		d.fl.Record(obs.FlightRecord{
			Seq: seq, Kind: obs.FlightArrival, AtNS: int64(a.At),
			Workflow: a.Workflow.Name, GPU: -1,
		})
	}
	now, placed, ok := d.admit(load, a.At, seq)
	if !ok {
		if d.fl != nil {
			d.fl.Record(obs.FlightRecord{
				Seq: seq, Kind: obs.FlightReject, AtNS: int64(a.At),
				Workflow: a.Workflow.Name, GPU: -1,
			})
		}
		return DispatchEvent{}, unadmittable(a, wp)
	}
	var alongside []string
	if res := d.pool.Residents(placed); len(res) > 0 {
		buf := *names
		if cap(buf)-len(buf) < len(res) {
			buf = make([]string, 0, max(nameChunk, len(res)))
		}
		start := len(buf)
		for j := range res {
			buf = append(buf, res[j].name)
		}
		alongside = buf[start:len(buf):len(buf)]
		*names = buf
	}
	end := now.Add(simtime.FromSeconds(wp.TotalDurationS))
	d.place(placed, load, a.Workflow.Name, end, uint64(seq))
	d.seq++
	waited := now.Sub(a.At)
	d.waitedNS += int64(waited)
	d.waitHist.Observe(int64(waited / simtime.Millisecond))
	d.depthHist.Observe(int64(len(alongside) + 1))
	d.serviceHist.Observe(int64(wp.TotalDurationS * 1000))
	if d.fl != nil {
		d.fl.Record(obs.FlightRecord{
			Seq: seq, Kind: obs.FlightDispatch, AtNS: int64(now),
			Workflow: a.Workflow.Name, GPU: int32(placed),
			Clients: int32(len(alongside) + 1), WaitNS: int64(waited),
		})
	}
	return DispatchEvent{
		At:               now,
		Workflow:         a.Workflow.Name,
		GPU:              placed,
		WaitedS:          waited.Seconds(),
		RunningAlongside: alongside,
	}, nil
}

// mergeObs folds the dispatcher's single-owner telemetry into the
// shared registry: histograms merge bucket-wise and the accumulated
// counters land once instead of per arrival.
func (d *onlineDispatcher) mergeObs(hub *obs.Hub) {
	d.waitHist.MergeInto(hub.Histogram("dispatch_queue_wait_ms", queueWaitBoundsMs))
	d.depthHist.MergeInto(hub.Histogram("dispatch_collocated_clients", groupOccupancyBounds))
	d.serviceHist.MergeInto(hub.Histogram("dispatch_service_ms", serviceBoundsMs))
	hub.Counter("dispatch_total").Add(d.seq)
	hub.Counter("dispatch_waited_simns_total").Add(d.waitedNS)
	hub.Counter("dispatch_probe_total").Add(d.stats.Probes)
	hub.Counter("dispatch_visit_total").Add(d.stats.Visits)
	hub.Counter("dispatch_wait_events_total").Add(d.stats.Waits)
	hub.Counter("dispatch_completions_total").Add(d.stats.Completions)
}

// dispatchArrivals is the admission loop over all arrivals. Its
// decisions are byte-identical to a full per-arrival rescan (pinned by
// the goldens in testdata/), but each probe is O(1) against the GPU's
// interference aggregate, a scan descends the pool's first-fit index
// instead of walking every GPU, and retirements come off the pool's
// completion timeline instead of an every-iteration sweep.
func (s *Scheduler) dispatchArrivals(plan *OnlinePlan) error {
	d := newOnlineDispatcher(s)
	// The plan never reuses names' space: every chunk stays referenced
	// by the Dispatches carved from it.
	var names []string
	for i := range plan.arrivals {
		ev, err := d.dispatchOne(&plan.arrivals[i], plan.profiles[i], &names)
		if err != nil {
			return err
		}
		plan.Dispatches = append(plan.Dispatches, ev)
	}
	plan.Stats = d.stats
	d.mergeObs(obs.Active())
	return nil
}

// ScheduleOnline emulates online operation: PlanOnline's dispatch
// decisions are executed faithfully by the simulator (one engine per GPU,
// clients at their dispatch instants), and compared against an
// arrival-respecting sequential baseline.
//
// Planning uses predicted (profile-derived) durations; execution reflects
// actual contention, so real completions can drift from the plan — as in
// a production scheduler.
func (s *Scheduler) ScheduleOnline(arrivals []Arrival, simCfg gpusim.Config) (*OnlineOutcome, error) {
	hub := obs.Active()
	defer hub.StartWall("scheduler", "ScheduleOnline").End()
	simCfg.Device = s.Device

	plan, err := s.planOnline(arrivals)
	if err != nil {
		return nil, err
	}
	out := &OnlineOutcome{Dispatches: plan.Dispatches}

	// Execute the plan: one engine per GPU, clients at dispatch times.
	sharing, err := s.runPlacement(plan.arrivals, plan.Dispatches, simCfg, "online", 104729, 0)
	if err != nil {
		return nil, err
	}
	out.Sharing = sharing

	// Sequential baseline: same arrivals, one workflow at a time per
	// GPU, earliest-available GPU, FIFO.
	seq, err := s.runOnlineSequential(plan.arrivals, plan.profiles, simCfg)
	if err != nil {
		return nil, err
	}
	out.Sequential = seq

	rel, err := metrics.Compare(out.Sequential, out.Sharing)
	if err != nil {
		return nil, err
	}
	out.Relative = rel

	// Guard the division: planOnline rejects empty streams, but a zero
	// dispatch count must never turn the wait stats into NaN.
	if len(out.Dispatches) > 0 {
		for _, d := range out.Dispatches {
			out.MeanWaitS += d.WaitedS
			if d.WaitedS > out.MaxWaitS {
				out.MaxWaitS = d.WaitedS
			}
		}
		out.MeanWaitS /= float64(len(out.Dispatches))
	}
	return out, nil
}

// runOnlineSequential executes the arrival-respecting no-collocation
// baseline: FIFO, one workflow at a time per GPU.
func (s *Scheduler) runOnlineSequential(arrivals []Arrival, profiles []*WorkflowProfile, simCfg gpusim.Config) (metrics.RunSummary, error) {
	free := make([]simtime.Time, s.GPUs)
	placed := make([]DispatchEvent, len(arrivals))
	for i, a := range arrivals {
		best := 0
		for g := 1; g < s.GPUs; g++ {
			if free[g] < free[best] {
				best = g
			}
		}
		placed[i].At = simtime.Max(a.At, free[best])
		placed[i].GPU = best
		free[best] = placed[i].At.Add(simtime.FromSeconds(profiles[i].TotalDurationS))
	}
	return s.runPlacement(arrivals, placed, simCfg, "seq", 7877, 1)
}

// runPlacement simulates arrival i as client "<prefix>-<i>-<name>" on
// GPU placed[i].GPU from placed[i].At, one engine per GPU seeded
// simCfg.Seed + g*stride + offset, and summarizes the pool; an unused
// GPU idles for the whole makespan.
func (s *Scheduler) runPlacement(arrivals []Arrival, placed []DispatchEvent, simCfg gpusim.Config, prefix string, stride, offset uint64) (metrics.RunSummary, error) {
	engines := make([]*gpusim.Engine, s.GPUs)
	used := make([]bool, s.GPUs)
	for g := range engines {
		cfg := simCfg
		cfg.Seed = simCfg.Seed + uint64(g)*stride + offset
		eng, err := gpusim.New(cfg)
		if err != nil {
			return metrics.RunSummary{}, err
		}
		engines[g] = eng
	}
	for i, a := range arrivals {
		tasks, err := a.Workflow.BuildSpecs(s.Device)
		if err != nil {
			return metrics.RunSummary{}, err
		}
		g := placed[i].GPU
		used[g] = true
		if err := engines[g].AddClient(gpusim.Client{
			ID:      fmt.Sprintf("%s-%02d-%s", prefix, i, a.Workflow.Name),
			Arrival: placed[i].At,
			Tasks:   tasks,
		}); err != nil {
			return metrics.RunSummary{}, err
		}
	}
	var makespans []float64
	var energy, cappedS float64
	tasks := 0
	for g, eng := range engines {
		if !used[g] {
			makespans = append(makespans, 0)
			continue
		}
		res, err := eng.Run()
		if err != nil {
			return metrics.RunSummary{}, err
		}
		makespans = append(makespans, res.Makespan.Seconds())
		energy += res.EnergyJ
		cappedS += res.CappedTime.Seconds()
		tasks += res.TasksCompleted()
	}
	return poolSummary(s.Device, makespans, energy, cappedS, tasks), nil
}
