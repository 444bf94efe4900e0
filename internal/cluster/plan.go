package cluster

import (
	"fmt"
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
	// Probes counts per-GPU admission checks: fit-scan probes,
	// preemption what-ifs, and the re-check probes a held gang's retry
	// makes on changed GPUs before it is skipped or run.
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

// member is one gang member's planning view.
type member struct {
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
	// position on the GPU.
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
	// placed holds each earlier member's GPU and how it got there.
	placed []placement
	// touched are the GPUs the attempt saved and rolled back.
	touched []int
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
	queue []*job
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

// resident is one placed member. Residents are pooled by the planner;
// the completion event's payload is the resident pointer, so retirement
// is identity-based by construction (the cluster layer's version of the
// core dispatcher's completion-key fix — eviction cancels the event, so
// a stale instant can never retire a survivor).
type resident struct {
	job      *job
	memberIx int
	gpu      int // pool index
	start    simtime.Time
	end      simtime.Time
	ev       *eventq.Event
}

// gpuState locates one pool GPU in the spec and holds its transaction
// save slot; the pool holds the GPU's residents and aggregate.
type gpuState struct {
	node  *nodeState
	index int // node-local

	saved bool // snap is valid: the transaction has touched this GPU
	snap  admission.Snapshot[*resident]
}

// nodeState is one node's resolved capacities.
type nodeState struct {
	spec           NodeSpec
	first          int     // pool index of the node's GPU 0
	cap            int     // residents per GPU under the node's mode
	instanceMemMiB int64   // per-instance memory under ModeMIG
	threadCapPct   float64 // per-client SM cap under ModeMPS (100 = uncapped)
}

// planner is the mutable planning state for one Plan call.
type planner struct {
	spec     Spec
	profiles *profile.Store
	nodes    []nodeState
	// pool holds every node's GPUs in spec order; gpus runs parallel.
	pool    admission.Pool[*resident]
	gpus    []gpuState
	tenants []*tenantState // sorted by name
	byName  map[string]*tenantState
	jobs    []*job

	completions eventq.Queue
	resFree     []*resident

	// Transaction journal (one gang attempt).
	txPlaced  []*resident
	txEvicted []*resident
	txTouched []int // pool indices

	// skip is the read-only what-if's victim-mask scratch (see
	// canFitAfterEviction).
	skip []bool

	// fl is the flight recorder captured at construction; nil when
	// telemetry is disabled, and every record site is guarded so the
	// disabled hot path stays allocation-free.
	fl *obs.Flight

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
	hub.Counter("cluster_probe_total").Add(st.stats.Probes)
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
	st := &planner{
		spec:     p.spec,
		profiles: p.profiles,
		byName:   make(map[string]*tenantState, len(p.spec.Tenants)),
		out:      &Outcome{},
		fl:       obs.Active().FlightRecorder(),
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

	// Nodes with resolved capacities.
	st.nodes = make([]nodeState, len(p.spec.Nodes))
	for i, ns := range p.spec.Nodes {
		n := &st.nodes[i]
		n.spec = ns
		n.threadCapPct = 100
		switch ns.Mode {
		case ModeMPS:
			n.cap = ns.ClientCap
			if n.cap == 0 {
				n.cap = ns.Device.MaxMPSClients
			}
			if ns.MPSActiveThreadPct > 0 && ns.MPSActiveThreadPct < 100 {
				n.threadCapPct = ns.MPSActiveThreadPct
			}
		case ModeMIG:
			n.cap = ns.MIGInstances
			if n.cap == 0 {
				n.cap = ns.Device.MaxMIGInstances
			}
			n.instanceMemMiB = ns.Device.MemoryMiB / int64(n.cap)
		case ModeTimeSlice:
			n.cap = ns.TimeSliceCap
			if n.cap == 0 {
				n.cap = 4
			}
		}
		n.first = st.pool.GPUs()
		st.pool.AddGPUs(ns.Device, ns.GPUs)
		for g := 0; g < ns.GPUs; g++ {
			st.gpus = append(st.gpus, gpuState{node: n, index: g})
		}
	}

	// Stable sort by arrival instant; input order breaks ties. The
	// sorted index is the job's identity for every later tie-break.
	order := make([]*Submission, len(subs))
	for i := range subs {
		order[i] = &subs[i]
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].At < order[j].At })

	st.jobs = make([]*job, len(order))
	for i, sub := range order {
		t, ok := st.byName[sub.Tenant]
		if !ok {
			return nil, fmt.Errorf("%w: %q (gang %s)", ErrUnknownTenant, sub.Tenant, sub.Gang.Name)
		}
		if err := sub.Gang.ValidateShape(); err != nil {
			return nil, err
		}
		j := &job{seq: i, tenant: t, at: sub.At, priority: sub.Priority, sub: sub}
		for _, wf := range sub.Gang.Members {
			wp, err := core.BuildWorkflowProfile(p.profiles, wf)
			if err != nil {
				return nil, err
			}
			j.members = append(j.members, member{
				profile: wp,
				load: interference.Load{
					SMPct:  wp.AvgSMUtilPct,
					BWPct:  wp.AvgBWUtilPct,
					MemMiB: wp.MaxMemMiB,
				},
			})
			j.durationS += wp.TotalDurationS
		}
		st.jobs[i] = j
	}
	return st, nil
}

// overheadS resolves the preemption restart penalty.
func (st *planner) overheadS() float64 {
	if st.spec.PreemptionOverheadS > 0 {
		return st.spec.PreemptionOverheadS
	}
	return 10
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
}
