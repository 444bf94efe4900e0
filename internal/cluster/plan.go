package cluster

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"

	"gpushare/internal/admission"
	"gpushare/internal/core"
	"gpushare/internal/eventq"
	"gpushare/internal/interference"
	"gpushare/internal/obs"
	"gpushare/internal/profile"
	"gpushare/internal/simtime"
)

// Dispatch records one committed member placement.
type Dispatch struct {
	// At is the dispatch instant.
	At simtime.Time `json:"at"`
	// Tenant and Gang identify the submission; Workflow is the placed
	// member.
	Tenant   string `json:"tenant"`
	Gang     string `json:"gang"`
	Workflow string `json:"workflow"`
	// Node and GPU locate the placement (GPU is node-local).
	Node string `json:"node"`
	GPU  int    `json:"gpu"`
	// WaitedS is the queueing delay since the gang's arrival (or since
	// its last eviction requeue counted from original arrival — waits
	// accumulate).
	WaitedS float64 `json:"waited_s"`
	// Preemptions counts how many times this gang was evicted before
	// this placement.
	Preemptions int `json:"preemptions,omitempty"`
}

// Eviction records one preempted member.
type Eviction struct {
	// At is the eviction instant.
	At simtime.Time `json:"at"`
	// Tenant, Gang, Workflow identify the victim member.
	Tenant   string `json:"tenant"`
	Gang     string `json:"gang"`
	Workflow string `json:"workflow"`
	// Node and GPU locate the vacated slot.
	Node string `json:"node"`
	GPU  int    `json:"gpu"`
	// Preemptor names the gang whose admission evicted the victim.
	Preemptor string `json:"preemptor"`
	// LostS is the discarded partial run in predicted seconds.
	LostS float64 `json:"lost_s"`
	// OverheadS is the restart penalty charged to the victim's next run.
	OverheadS float64 `json:"overhead_s"`
}

// JobSummary is one gang's end-to-end accounting.
type JobSummary struct {
	Tenant string `json:"tenant"`
	Gang   string `json:"gang"`
	// ArrivalS and CompletionS bound the gang in simulated seconds;
	// MakespanS is their difference — it includes queueing, lost
	// preempted runs, and restart overhead.
	ArrivalS    float64 `json:"arrival_s"`
	CompletionS float64 `json:"completion_s"`
	MakespanS   float64 `json:"makespan_s"`
	// WaitedS is the final dispatch's queueing delay.
	WaitedS float64 `json:"waited_s"`
	// Preemptions counts evictions the gang suffered.
	Preemptions int `json:"preemptions,omitempty"`
}

// FailedJob records a gang that can never be admitted (it does not fit
// an entirely idle cluster).
type FailedJob struct {
	Tenant string `json:"tenant"`
	Gang   string `json:"gang"`
	Reason string `json:"reason"`
}

// TenantStat aggregates one tenant's outcome.
type TenantStat struct {
	Tenant string `json:"tenant"`
	Weight int    `json:"weight"`
	// Jobs counts completed gangs; Failed counts never-admissible ones.
	Jobs   int `json:"jobs"`
	Failed int `json:"failed,omitempty"`
	// MeanWaitS / MaxWaitS summarize final-dispatch queueing delay.
	MeanWaitS float64 `json:"mean_wait_s"`
	MaxWaitS  float64 `json:"max_wait_s"`
	// MeanMakespanS averages gang makespans.
	MeanMakespanS float64 `json:"mean_makespan_s"`
	// Preemptions counts evictions suffered by the tenant's gangs.
	Preemptions int `json:"preemptions,omitempty"`
	// ServiceS is the predicted work dispatched for the tenant (the
	// deficit counter's final value, in seconds).
	ServiceS float64 `json:"service_s"`
}

// Stats counts the planner's work.
type Stats struct {
	// Probes counts single-GPU admission checks, as core's
	// DispatchStats.Probes does: the GPUs a fit scan's index queries
	// confirm with Admit (a GPU at its client cap, or under a pruned
	// index node, is not probed), the preemption what-ifs (a GPU whose
	// victim key rules out every victim is not probed), and the
	// re-check probes a held gang's retry makes on changed GPUs before
	// it is skipped or run.
	Probes int64 `json:"probes"`
	// Waits counts event-time advances with jobs still queued.
	Waits int64 `json:"waits"`
	// Completions counts member retirements.
	Completions int64 `json:"completions"`
	// Preemptions counts evicted members; GangsPreempted counts evicted
	// gangs.
	Preemptions    int64 `json:"preemptions"`
	GangsPreempted int64 `json:"gangs_preempted"`
	// GangHolds counts failed placement attempts (the gang stayed
	// queued), skipped retries included.
	GangHolds int64 `json:"gang_holds"`
	// HoldSkips counts the holds whose retry was skipped because no GPU
	// the gang could use had changed since its last failed attempt
	// (DESIGN.md §13, "Change-driven rounds"). It is work, not a
	// decision, and stays out of the Outcome's JSON.
	HoldSkips int64 `json:"-"`
	// WhatIfs counts the preemption what-ifs the eviction sweeps ran:
	// one per GPU whose victim key did not skip it. Work, not a
	// decision, like HoldSkips.
	WhatIfs int64 `json:"-"`
}

// Outcome is a cluster plan: the full decision history plus accounting.
type Outcome struct {
	Dispatches []Dispatch   `json:"dispatches"`
	Evictions  []Eviction   `json:"evictions,omitempty"`
	Jobs       []JobSummary `json:"jobs"`
	Failed     []FailedJob  `json:"failed,omitempty"`
	Tenants    []TenantStat `json:"tenants"`
	// MakespanS is the last completion instant in seconds.
	MakespanS float64 `json:"makespan_s"`
	Stats     Stats   `json:"stats"`
}

// Planner plans a submission stream onto a cluster. The zero value is
// unusable; construct with NewPlanner.
type Planner struct {
	spec     Spec
	profiles *profile.Store
}

// NewPlanner validates the spec and binds a profile store.
func NewPlanner(spec Spec, store *profile.Store) (*Planner, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	if store == nil {
		return nil, fmt.Errorf("cluster: planner needs a profile store")
	}
	return &Planner{spec: spec, profiles: store}, nil
}

// member is one gang member's planning view. Its profile may be shared
// with every member running the same task (core.ProfileBuilder), so
// the profile's Workflow.Name is the first such member's: records name
// the member by name, never by its profile.
type member struct {
	name    string
	profile *core.WorkflowProfile
	load    interference.Load
}

// job is one queued gang.
type job struct {
	seq      int // arrival order (sorted submission index): the identity tie-break
	tenant   *tenantState
	at       simtime.Time
	priority int
	sub      *Submission
	members  []member

	liveCount   int     // residents currently placed
	preemptions int     // evictions suffered
	penaltyS    float64 // accumulated restart overhead charged to future runs
	lastWaitS   float64 // queueing delay of the latest dispatch
	evicting    bool    // transaction mark: already chosen as victim
	durationS   float64 // sum of member predicted durations (service charge)

	// residents are the members placed now, in pool order: GPU, then
	// position on the GPU. Its capacity is the member count, carved
	// from a per-plan slab, so it never grows.
	residents []*resident
	// hold is the last failed placement attempt, while the gang waits.
	hold holdState
}

// holdState is what a held gang's failed attempt leaves for its next
// round: enough to tell whether a retry can end any differently
// (DESIGN.md §13, "Change-driven rounds").
type holdState struct {
	valid bool
	// clock is the pool clock read after the attempt's rollback. It is
	// read, and compared with Gen, only between transactions: Restore
	// gives a rolled-back GPU its saved generation back, so a clock
	// taken while a transaction had GPUs saved would miss the changes
	// the rollback undid (admission.Pool.Restore).
	clock uint64
	// failed is the member no GPU admitted.
	failed int
	// placed holds each earlier member's GPU and how it got there, at
	// capacity the member count, carved like job.residents.
	placed []placement
	// touched are the GPUs the attempt saved and rolled back.
	touched []int
}

// dispatchRec is one committed member placement as commit logs it:
// the job by its sequence, the member by its index, the pool GPU, and
// the gang's evictions so far. It holds no pointer, so a growing log
// costs the collector nothing to scan.
type dispatchRec struct {
	at          simtime.Time
	job, member int32
	gpu         int32
	preemptions int32
}

// evictionRec is one evicted member as commit logs it: the instant, the
// victim resident's start, the victim job and member, the pool GPU and
// the preemptor job.
type evictionRec struct {
	at, start      simtime.Time
	victim, member int32
	gpu, preemptor int32
}

// placement is one member's GPU in a failed attempt, and whether the
// member got there by evicting lower-priority gangs.
type placement struct {
	gpu     int
	evicted bool
}

// Per-tenant SLO histogram buckets, in milliseconds. Wait buckets skew
// low (queueing delay is the SLO-visible number); service buckets match
// the core dispatcher's predicted-duration spread.
var (
	tenantWaitBoundsMs    = []int64{100, 1_000, 10_000, 60_000, 300_000, 1_800_000}
	tenantServiceBoundsMs = []int64{1_000, 5_000, 15_000, 60_000, 300_000, 1_800_000}
)

// tenantState is one tenant's queue and deficit counter.
type tenantState struct {
	spec  TenantSpec
	index int
	// queue holds waiting jobs in ascending seq order (head-of-line
	// blocking within a tenant; requeued victims re-enter at the front,
	// which preserves the order because a victim predates everything
	// still queued behind it).
	queue jobQueue
	// servedUS is the accumulated dispatched service in microseconds of
	// predicted duration. Fair share compares weight-normalized service
	// by cross-multiplication, so the counter stays integer and the
	// comparison exact.
	servedUS int64
	weight   int64
	blocked  bool // per-round mark: head gang failed placement this round

	stat     TenantStat
	maxDepth int // peak queue length, for the per-tenant gauge

	// SLO-grade per-tenant latency distributions: queue wait observed at
	// each dispatch, service time (makespan minus final wait) at each
	// gang completion. Single-owner locals, merged into the shared
	// registry once per Plan call.
	waitHist    *obs.LocalHistogram
	serviceHist *obs.LocalHistogram
}

// resident is one placed member, pooled by the planner; ev is its
// pending completion, which an eviction cancels.
type resident struct {
	job      *job
	memberIx int
	gpu      int // pool index
	start    simtime.Time
	end      simtime.Time
	ev       *eventq.Event
}

// Serial names the resident by gang and member: a gang has at most one
// live resident per member.
func (r *resident) Serial() uint64 { return uint64(r.job.seq)<<32 | uint64(r.memberIx) }

// residentPriority is the pool's victim key. It keys every resident,
// not only victimable ones: victimability also reads the gang's live
// count, which commit raises after placeMember's Add has stamped the
// GPU, so a key that read it would stay too high, and the skip it
// drives would drop real victims. A lower key only costs a what-if.
func residentPriority(r *resident) int { return r.job.priority }

// gpuState locates one pool GPU in the spec and holds its transaction
// save slot; the pool holds the GPU's residents and aggregate.
type gpuState struct {
	node  *nodeState
	index int // node-local

	saved bool // snap is valid: the transaction has touched this GPU
	snap  admission.Snapshot[*resident]
}

// nodeState is one node's admission semantics, resolved from its mode
// once in newPlanner: admission reads its class, never the mode
// (placeMember still reads it for time-slice dilation, a duration). The
// class's client cap is the residents per GPU; its rules are all three
// under MPS, capacity under time-slicing and none under MIG; its SM cap
// is the MPS active-thread cap, or +Inf; and its memory bound is the
// MIG instance size, or the device's memory. Nodes with equal classes
// share one in the pool.
type nodeState struct {
	spec NodeSpec
	admission.Class
}

// planner is the mutable planning state for one Plan call.
type planner struct {
	spec  Spec
	nodes []nodeState
	// pool holds every node's GPUs in spec order; gpus runs parallel.
	pool    admission.Pool[*resident]
	gpus    []gpuState
	tenants []*tenantState // sorted by name
	byName  map[string]*tenantState
	jobs    []*job

	resFree []*resident

	// Transaction journal (one gang attempt).
	txPlaced  []*resident
	txEvicted []*resident
	txTouched []int // pool indices

	// skip is the read-only what-if's victim-mask scratch (see
	// canFitAfterEviction).
	skip []bool
	// victims is commit's scratch: the distinct gangs a transaction
	// evicted.
	victims []*job
	// shadow is shadowRetry's copy of the held attempt it reruns.
	shadow holdState

	// fl is the flight recorder captured at construction; nil when
	// telemetry is disabled, and every record site is guarded so the
	// disabled hot path stays allocation-free.
	fl *obs.Flight

	// dispatches and evictions are the decision logs as commit records
	// them; finish builds the Outcome's logs from them once.
	dispatches []dispatchRec
	evictions  []evictionRec

	out   *Outcome
	stats *Stats
	// rechecks counts the probes holdStands spent, which Stats.Probes
	// includes.
	rechecks int64
}

// Plan runs the cluster admission loop over the submission stream and
// returns the full decision history. Decisions are a pure function of
// (spec, store, submissions): byte-identical across runs, pinned by the
// golden logs in testdata/.
func (p *Planner) Plan(subs []Submission) (*Outcome, error) {
	hub := obs.Active()
	defer hub.StartWall("cluster", "Plan").End()
	if len(subs) == 0 {
		return nil, ErrNoSubmissions
	}

	st, err := p.newPlanner(subs)
	if err != nil {
		return nil, err
	}
	st.run()
	st.finish()

	hub.Counter("cluster_dispatch_total").Add(int64(len(st.out.Dispatches)))
	hub.Counter("cluster_evictions_total").Add(int64(len(st.out.Evictions)))
	hub.Counter("cluster_gang_holds_total").Add(st.stats.GangHolds)
	hub.Counter("cluster_hold_skip_total").Add(st.stats.HoldSkips)
	hub.Counter("cluster_whatif_total").Add(st.stats.WhatIfs)
	hub.Counter("cluster_probe_total").Add(st.stats.Probes)
	if hub == nil { // telemetry off: build no per-tenant metric names
		return st.out, nil
	}
	for _, t := range st.tenants {
		hub.Gauge(obs.MetricName("cluster_tenant_queue_depth_max", t.spec.Name)).SetMax(int64(t.maxDepth))
		hub.Counter(obs.MetricName("cluster_tenant_preemptions_total", t.spec.Name)).Add(int64(t.stat.Preemptions))
		hub.Counter(obs.MetricName("cluster_tenant_jobs_total", t.spec.Name)).Add(int64(t.stat.Jobs))
		t.waitHist.MergeInto(hub.Histogram(obs.MetricName("cluster_tenant_wait_ms", t.spec.Name), tenantWaitBoundsMs))
		t.serviceHist.MergeInto(hub.Histogram(obs.MetricName("cluster_tenant_service_ms", t.spec.Name), tenantServiceBoundsMs))
	}
	return st.out, nil
}

// newPlanner resolves the spec, sorts the stream, and builds profiles.
func (p *Planner) newPlanner(subs []Submission) (*planner, error) {
	if len(subs) > math.MaxInt32 {
		return nil, fmt.Errorf("cluster: %d submissions, over the %d one plan logs", len(subs), math.MaxInt32)
	}
	st := &planner{
		spec:   p.spec,
		byName: make(map[string]*tenantState, len(p.spec.Tenants)),
		out:    &Outcome{Jobs: make([]JobSummary, 0, len(subs))},
		fl:     obs.Active().FlightRecorder(),
	}
	st.stats = &st.out.Stats

	// Tenants in name order: the deterministic iteration base.
	specs := make([]TenantSpec, len(p.spec.Tenants))
	copy(specs, p.spec.Tenants)
	sort.SliceStable(specs, func(i, j int) bool { return specs[i].Name < specs[j].Name })
	for i, ts := range specs {
		w := ts.Weight
		if w == 0 {
			w = 1
		}
		t := &tenantState{spec: ts, index: i, weight: int64(w)}
		t.stat.Tenant = ts.Name
		t.stat.Weight = int(w)
		t.waitHist = obs.NewLocalHistogram(tenantWaitBoundsMs)
		t.serviceHist = obs.NewLocalHistogram(tenantServiceBoundsMs)
		st.tenants = append(st.tenants, t)
		st.byName[ts.Name] = t
	}

	// Nodes with resolved admission semantics.
	st.nodes = make([]nodeState, len(p.spec.Nodes))
	for i, ns := range p.spec.Nodes {
		n := &st.nodes[i]
		// A resident never holds more than its device's memory; bounding
		// every member here keeps the pool's memory sums far from the
		// int64 limit, where sum + load would wrap.
		n.spec, n.SMCap, n.MemMiB = ns, math.Inf(1), ns.Device.MemoryMiB
		switch ns.Mode {
		case ModeMPS:
			n.MaxResidents = cmp.Or(ns.ClientCap, ns.Device.MaxMPSClients)
			n.Rules = interference.MaskCompute | interference.MaskBandwidth | interference.MaskCapacity
			if ns.MPSActiveThreadPct > 0 && ns.MPSActiveThreadPct < 100 {
				n.SMCap = ns.MPSActiveThreadPct
			}
		case ModeMIG:
			// Isolated equal instances: per-instance memory, no
			// cross-instance interference.
			n.MaxResidents = cmp.Or(ns.MIGInstances, ns.Device.MaxMIGInstances)
			n.MemMiB = ns.Device.MemoryMiB / int64(n.MaxResidents)
		case ModeTimeSlice:
			// Temporal sharing: no spatial interference rules, but the
			// residents still share device memory.
			n.MaxResidents = cmp.Or(ns.TimeSliceCap, 4)
			n.Rules = interference.MaskCapacity
		}
		st.pool.AddGPUs(ns.Device, ns.GPUs, n.Class)
		for g := 0; g < ns.GPUs; g++ {
			st.gpus = append(st.gpus, gpuState{node: n, index: g})
		}
	}
	// The victim key: a GPU's lowest resident priority bounds which
	// preemptors could find a victim there (findEvictionFit).
	st.pool.KeyBy(residentPriority)

	// Stable sort by arrival instant; input order breaks ties. The
	// sorted index is the job's identity for every later tie-break, and
	// the log records hold it in 32 bits.
	order := make([]*Submission, len(subs))
	for i := range subs {
		order[i] = &subs[i]
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].At < order[j].At })

	// One slab per plan for the jobs, their members, and the residents
	// and hold placements each job carves at capacity its member count.
	members := 0
	for _, sub := range order {
		members += len(sub.Gang.Members)
	}
	jobs := make([]job, len(order))
	memSlab := make([]member, 0, members)
	resSlab := make([]*resident, members)
	placedSlab := make([]placement, members)
	builder := core.NewProfileBuilder(p.profiles)
	st.jobs = make([]*job, len(order))
	for i, sub := range order {
		t, ok := st.byName[sub.Tenant]
		if !ok {
			return nil, fmt.Errorf("%w: %q (gang %s)", ErrUnknownTenant, sub.Tenant, sub.Gang.Name)
		}
		if err := sub.Gang.ValidateShape(); err != nil {
			return nil, err
		}
		j := &jobs[i]
		*j = job{seq: i, tenant: t, at: sub.At, priority: sub.Priority, sub: sub}
		first := len(memSlab)
		for _, wf := range sub.Gang.Members {
			wp, err := builder.Build(wf)
			if err != nil {
				return nil, fmt.Errorf("cluster: gang %s: %w", sub.Gang.Name, err)
			}
			memSlab = append(memSlab, member{name: wf.Name, profile: wp, load: wp.Load()})
			j.durationS += wp.TotalDurationS
		}
		end := len(memSlab)
		j.members = memSlab[first:end:end]
		j.residents = resSlab[first:first:end]
		j.hold.placed = placedSlab[first:first:end]
		st.jobs[i] = j
	}
	// Every member dispatches at least once unless its gang fails;
	// re-dispatched victims grow the log past this.
	st.dispatches = make([]dispatchRec, 0, members)
	return st, nil
}

// finish assembles tenant stats and the fleet makespan.
func (st *planner) finish() {
	for _, t := range st.tenants {
		s := t.stat
		if s.Jobs > 0 {
			s.MeanWaitS /= float64(s.Jobs)
			s.MeanMakespanS /= float64(s.Jobs)
		}
		s.ServiceS = float64(t.servedUS) / 1e6
		st.out.Tenants = append(st.out.Tenants, s)
	}
	for _, j := range st.out.Jobs {
		if j.CompletionS > st.out.MakespanS {
			st.out.MakespanS = j.CompletionS
		}
	}
	// The logs are built once, at their exact length; a log nothing was
	// appended to reads nil. Jobs was presized at the submission count,
	// which a failed gang leaves short.
	if n := len(st.dispatches); n > 0 {
		st.out.Dispatches = make([]Dispatch, n)
		for i, d := range st.dispatches {
			j, gs := st.jobs[d.job], &st.gpus[d.gpu]
			st.out.Dispatches[i] = Dispatch{
				At:          d.at,
				Tenant:      j.tenant.spec.Name,
				Gang:        j.sub.Gang.Name,
				Workflow:    j.members[d.member].name,
				Node:        gs.node.spec.Name,
				GPU:         gs.index,
				WaitedS:     d.at.Sub(j.at).Seconds(),
				Preemptions: int(d.preemptions),
			}
		}
	}
	if n := len(st.evictions); n > 0 {
		st.out.Evictions = make([]Eviction, n)
		for i, e := range st.evictions {
			v, gs := st.jobs[e.victim], &st.gpus[e.gpu]
			st.out.Evictions[i] = Eviction{
				At:        e.at,
				Tenant:    v.tenant.spec.Name,
				Gang:      v.sub.Gang.Name,
				Workflow:  v.members[e.member].name,
				Node:      gs.node.spec.Name,
				GPU:       gs.index,
				Preemptor: st.jobs[e.preemptor].sub.Gang.Name,
				LostS:     e.at.Sub(e.start).Seconds(),
				OverheadS: preemptionOverheadS,
			}
		}
	}
	switch n := len(st.out.Jobs); {
	case n == 0:
		st.out.Jobs = nil
	case n < cap(st.out.Jobs):
		st.out.Jobs = slices.Clone(st.out.Jobs)
	}
}
