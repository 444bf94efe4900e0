package workflow

import "fmt"

// Gang is a set of workflows that must be scheduled all-or-nothing: every
// member is placed at the same instant, or the whole gang waits. It is the
// shape multi-task distributed workloads submit to the cluster layer —
// the podgroup model of gang schedulers (NVIDIA KAI-Scheduler's
// PodGroups, Volcano's gangs): partial placement of a tightly coupled job
// wastes the placed members' GPUs while they spin on the missing ones.
//
// A single-workflow gang degenerates to a plain submission; the cluster
// dispatcher treats both uniformly.
type Gang struct {
	// Name identifies the gang in dispatch and eviction logs.
	Name string
	// Members are the workflows admitted together, in placement order.
	Members []Workflow
}

// Single wraps one workflow as a degenerate gang named after it.
func Single(w Workflow) Gang {
	return Gang{Name: w.Name, Members: []Workflow{w}}
}

// ValidateShape checks the gang itself, not its members: a named,
// non-empty member set with no duplicate member names — eviction and
// completion accounting key members by name within a gang. Each
// member's shape is checked where its profile is built
// (core.ProfileBuilder).
func (g Gang) ValidateShape() error {
	if g.Name == "" {
		return fmt.Errorf("workflow: gang with empty name")
	}
	if len(g.Members) == 0 {
		return fmt.Errorf("workflow: gang %s: no members", g.Name)
	}
	seen := make(map[string]bool, len(g.Members))
	for _, m := range g.Members {
		if seen[m.Name] {
			return fmt.Errorf("workflow: gang %s: duplicate member %s", g.Name, m.Name)
		}
		seen[m.Name] = true
	}
	return nil
}

// Size returns the member count.
func (g Gang) Size() int { return len(g.Members) }

// TaskCount returns the total task executions across members.
func (g Gang) TaskCount() int {
	n := 0
	for _, m := range g.Members {
		n += m.TaskCount()
	}
	return n
}
