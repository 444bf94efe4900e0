// Package cluster scales the paper's single-pool online dispatcher
// (internal/core, DESIGN.md §11) to a multi-node fleet with multi-tenant
// admission control: per-node sharing modes (MPS active-thread
// partitions, MIG instances, or time-slicing), hierarchical per-tenant
// queues with deficit-weighted fair share, priority preemption of
// resident collocations, and all-or-nothing gang admission for
// multi-task workflows.
//
// The queue and preemption model follows gang schedulers like NVIDIA's
// KAI-Scheduler (podgroup gang admission, fair-share queues, preempt
// actions); per-node partition modes echo contention-aware partition
// allocation (Zahaf et al., arXiv:2105.10312). Admission itself stays
// the paper's §IV-B additive rules over the admission pool's per-GPU
// sums: a probe is O(1) and a preemption what-if is a read-only masked
// fold over the same sums (DESIGN.md §13).
//
// Everything is a deterministic function of the spec and the submission
// stream: tenants are picked with explicit tie-breaks (deficit, then
// tenant name, then arrival sequence), victims with explicit eviction
// order (lowest priority, then youngest placement), and the whole plan
// is pinned by golden dispatch logs in testdata/.
package cluster

import (
	"errors"
	"fmt"

	"gpushare/internal/gpu"
	"gpushare/internal/simtime"
	"gpushare/internal/workflow"
)

// Mode is a node's GPU sharing mechanism. It decides which admission
// rules a GPU applies and how predicted durations dilate.
type Mode uint8

const (
	// ModeMPS shares each GPU between MPS clients under the paper's
	// additive interference rules, optionally capping each client's
	// active-thread percentage.
	ModeMPS Mode = iota
	// ModeMIG statically partitions each GPU into equal isolated
	// instances: one resident per instance, no cross-instance
	// interference, per-instance memory capacity.
	ModeMIG
	// ModeTimeSlice shares each GPU by time-slicing: no spatial
	// interference rules beyond memory capacity, but predicted durations
	// dilate with the number of co-residents at dispatch.
	ModeTimeSlice
)

func (m Mode) String() string {
	switch m {
	case ModeMPS:
		return "mps"
	case ModeMIG:
		return "mig"
	case ModeTimeSlice:
		return "time-slice"
	default:
		return fmt.Sprintf("Mode(%d)", uint8(m))
	}
}

// ParseMode resolves a mode label ("mps", "mig", "time-slice").
func ParseMode(s string) (Mode, error) {
	switch s {
	case "mps":
		return ModeMPS, nil
	case "mig":
		return ModeMIG, nil
	case "time-slice", "timeslice":
		return ModeTimeSlice, nil
	default:
		return 0, fmt.Errorf("cluster: unknown sharing mode %q (want mps|mig|time-slice)", s)
	}
}

// NodeSpec is one node of the fleet: a homogeneous set of GPUs sharing
// one device model and one sharing mode.
type NodeSpec struct {
	// Name identifies the node in dispatch logs; it must be unique
	// within the cluster.
	Name string
	// Device is the GPU model of every device on the node.
	Device gpu.DeviceSpec
	// GPUs is the device count (at least 1).
	GPUs int
	// Mode is the sharing mechanism for every GPU on the node.
	Mode Mode
	// MPSActiveThreadPct caps each MPS client's active-thread share in
	// percent; zero (or >= 100) leaves clients uncapped. Only meaningful
	// under ModeMPS. The cap bounds the SM pressure one client can exert,
	// which is how it enters the additive admission rule.
	MPSActiveThreadPct float64
	// MIGInstances is the number of equal instances each GPU is split
	// into under ModeMIG; zero selects the device's MaxMIGInstances.
	MIGInstances int
	// TimeSliceCap bounds co-residents per GPU under ModeTimeSlice; zero
	// selects 4.
	TimeSliceCap int
	// ClientCap overrides the per-GPU resident cap under ModeMPS; zero
	// selects the device's MaxMPSClients.
	ClientCap int
}

// TenantSpec is one tenant sharing the cluster.
type TenantSpec struct {
	// Name identifies the tenant; it must be unique and non-empty.
	Name string
	// Weight is the fair-share weight (zero selects 1). A tenant with
	// weight 2 is entitled to twice the service of a tenant with
	// weight 1.
	Weight int
}

// Discipline selects the cross-tenant queue policy.
type Discipline uint8

const (
	// FairShare picks the eligible tenant with the lowest
	// weight-normalized accumulated service (deficit order); ties break
	// by tenant name, then by the head job's arrival sequence.
	FairShare Discipline = iota
	// FIFO picks the eligible tenant whose head job arrived first
	// (global arrival order, work-conserving across tenants: a blocked
	// tenant does not stall the others).
	FIFO
)

func (d Discipline) String() string {
	switch d {
	case FairShare:
		return "fair-share"
	case FIFO:
		return "fifo"
	default:
		return fmt.Sprintf("Discipline(%d)", uint8(d))
	}
}

// Spec configures a cluster.
type Spec struct {
	// Nodes are the fleet's nodes in placement scan order.
	Nodes []NodeSpec
	// Tenants are the admission-control tenants. Submissions must name
	// one of them.
	Tenants []TenantSpec
	// Queue is the cross-tenant discipline.
	Queue Discipline
	// Preemption enables priority preemption: a gang that cannot be
	// placed may evict strictly-lower-priority resident gangs
	// (whole-gang eviction; victims are requeued at the front of their
	// tenant queue).
	Preemption bool
	// PreemptionOverheadS is the restart penalty in predicted seconds
	// charged to each evicted member's next run (checkpoint/requeue
	// cost); zero selects 10 s. The victim's makespan grows by the lost
	// partial run plus this charge — the accounting the ext-cluster
	// experiment reports.
	PreemptionOverheadS float64
}

// Typed validation errors (checked with errors.Is).
var (
	// ErrNoNodes rejects a cluster without nodes.
	ErrNoNodes = errors.New("cluster: spec needs at least one node")
	// ErrNoTenants rejects a cluster without tenants.
	ErrNoTenants = errors.New("cluster: spec needs at least one tenant")
	// ErrNoSubmissions rejects an empty submission stream.
	ErrNoSubmissions = errors.New("cluster: no submissions")
	// ErrUnknownTenant rejects a submission naming no configured tenant.
	ErrUnknownTenant = errors.New("cluster: submission names unknown tenant")
)

// Validate checks the spec and reports the first problem.
func (s Spec) Validate() error {
	if len(s.Nodes) == 0 {
		return ErrNoNodes
	}
	if len(s.Tenants) == 0 {
		return ErrNoTenants
	}
	nodeNames := make(map[string]bool, len(s.Nodes))
	for i, n := range s.Nodes {
		if n.Name == "" {
			return fmt.Errorf("cluster: node %d has no name", i)
		}
		if nodeNames[n.Name] {
			return fmt.Errorf("cluster: duplicate node name %q", n.Name)
		}
		nodeNames[n.Name] = true
		if err := n.Device.Validate(); err != nil {
			return fmt.Errorf("cluster: node %s: %w", n.Name, err)
		}
		if n.GPUs < 1 {
			return fmt.Errorf("cluster: node %s needs at least one GPU, got %d", n.Name, n.GPUs)
		}
		if n.MPSActiveThreadPct < 0 || n.MPSActiveThreadPct > 100 {
			return fmt.Errorf("cluster: node %s: MPSActiveThreadPct %g outside [0,100]", n.Name, n.MPSActiveThreadPct)
		}
		if n.Mode == ModeMIG {
			inst := n.MIGInstances
			if inst == 0 {
				inst = n.Device.MaxMIGInstances
			}
			if inst < 1 {
				return fmt.Errorf("cluster: node %s: MIG mode needs at least one instance", n.Name)
			}
		}
		if n.MIGInstances < 0 || n.TimeSliceCap < 0 || n.ClientCap < 0 {
			return fmt.Errorf("cluster: node %s: negative capacity override", n.Name)
		}
	}
	tenantNames := make(map[string]bool, len(s.Tenants))
	for i, t := range s.Tenants {
		if t.Name == "" {
			return fmt.Errorf("cluster: tenant %d has no name", i)
		}
		if tenantNames[t.Name] {
			return fmt.Errorf("cluster: duplicate tenant name %q", t.Name)
		}
		tenantNames[t.Name] = true
		if t.Weight < 0 {
			return fmt.Errorf("cluster: tenant %s: negative weight %d", t.Name, t.Weight)
		}
	}
	if s.PreemptionOverheadS < 0 {
		return fmt.Errorf("cluster: negative preemption overhead %g", s.PreemptionOverheadS)
	}
	return nil
}

// GPUCount returns the fleet's total GPU count.
func (s Spec) GPUCount() int {
	n := 0
	for _, node := range s.Nodes {
		n += node.GPUs
	}
	return n
}

// Submission is one tenant request: a gang of workflows (usually one)
// arriving at an instant with a priority. Higher priorities may preempt
// lower ones when the spec enables preemption.
type Submission struct {
	// At is the submission instant.
	At simtime.Time
	// Tenant names the submitting tenant.
	Tenant string
	// Priority orders preemption: a gang may evict only strictly lower
	// priorities. Zero is the default batch priority.
	Priority int
	// Gang is the all-or-nothing workflow set.
	Gang workflow.Gang
}
