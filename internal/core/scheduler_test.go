package core

import (
	"strings"
	"testing"

	"gpushare/internal/gpu"
	"gpushare/internal/gpusim"
	"gpushare/internal/interference"
	"gpushare/internal/profile"
	"gpushare/internal/workflow"
)

func a100x() gpu.DeviceSpec { return gpu.MustLookup("A100X") }

// suiteStore profiles the benchmarks the tests schedule.
func suiteStore(t *testing.T) *profile.Store {
	t.Helper()
	pr := &profile.Profiler{Config: gpusim.Config{Seed: 1}}
	store, err := pr.ProfileSuite([]string{"1x", "4x"})
	if err != nil {
		t.Fatal(err)
	}
	return store
}

func wfOne(name, bench, size string, iters int) workflow.Workflow {
	return workflow.Workflow{
		Name:  name,
		Tasks: []workflow.Task{{Benchmark: bench, Size: size, Iterations: iters}},
	}
}

func queueOf(t *testing.T, wfs ...workflow.Workflow) *workflow.Queue {
	t.Helper()
	q, err := workflow.NewQueue(wfs...)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestBuildWorkflowProfile(t *testing.T) {
	store := suiteStore(t)
	w := workflow.Workflow{Name: "mixed", Tasks: []workflow.Task{
		{Benchmark: "AthenaPK", Size: "4x", Iterations: 2},
		{Benchmark: "LAMMPS", Size: "4x", Iterations: 1},
	}}
	wp, err := BuildWorkflowProfile(store, w)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := store.Get("AthenaPK", "4x")
	l, _ := store.Get("LAMMPS", "4x")
	wantDur := 2*a.DurationS + l.DurationS
	if rel := (wp.TotalDurationS - wantDur) / wantDur; rel > 0.001 || rel < -0.001 {
		t.Fatalf("duration %v vs %v", wp.TotalDurationS, wantDur)
	}
	// Duration-weighted SM average lies between the two tasks' values.
	if wp.AvgSMUtilPct <= a.AvgSMUtilPct || wp.AvgSMUtilPct >= l.AvgSMUtilPct {
		t.Fatalf("weighted SM %v outside (%v, %v)", wp.AvgSMUtilPct, a.AvgSMUtilPct, l.AvgSMUtilPct)
	}
	// Peak memory across tasks.
	want := a.MaxMemMiB
	if l.MaxMemMiB > want {
		want = l.MaxMemMiB
	}
	if wp.MaxMemMiB != want {
		t.Fatalf("max mem %v, want %v", wp.MaxMemMiB, want)
	}
	if wp.PeakActiveComputePct <= wp.AvgSMUtilPct {
		t.Fatal("peak active compute must exceed the time average")
	}
}

func TestBuildWorkflowProfileInfersMissingSizes(t *testing.T) {
	store := suiteStore(t)
	w := wfOne("w", "Kripke", "2x", 4) // 2x not profiled → inferred
	wp, err := BuildWorkflowProfile(store, w)
	if err != nil {
		t.Fatal(err)
	}
	if wp.TotalDurationS <= 0 {
		t.Fatal("inferred duration missing")
	}
}

func TestBuildWorkflowProfileUsesAliases(t *testing.T) {
	store := suiteStore(t)
	wp, err := BuildWorkflowProfile(store, wfOne("w", "MHD", "4x", 1))
	if err != nil {
		t.Fatal(err)
	}
	if wp.MaxMemMiB != 6753 {
		t.Fatalf("alias resolution failed: mem %v", wp.MaxMemMiB)
	}
}

func TestThroughputPolicyCapsGroupsAtTwo(t *testing.T) {
	store := suiteStore(t)
	s, err := NewScheduler(a100x(), 1, store, ThroughputPolicy())
	if err != nil {
		t.Fatal(err)
	}
	var wfs []workflow.Workflow
	for i := 0; i < 6; i++ {
		wfs = append(wfs, wfOne(string(rune('a'+i)), "AthenaPK", "4x", 1))
	}
	plan, err := s.BuildPlan(queueOf(t, wfs...))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range plan.Groups() {
		if len(g.Members) > 2 {
			t.Fatalf("throughput policy built a group of %d", len(g.Members))
		}
	}
	if plan.WorkflowCount() != 6 {
		t.Fatalf("plan covers %d workflows, want 6", plan.WorkflowCount())
	}
}

func TestEnergyPolicyPacksWider(t *testing.T) {
	store := suiteStore(t)
	s, _ := NewScheduler(a100x(), 1, store, EnergyPolicy())
	var wfs []workflow.Workflow
	for i := 0; i < 6; i++ {
		wfs = append(wfs, wfOne(string(rune('a'+i)), "AthenaPK", "4x", 1))
	}
	plan, err := s.BuildPlan(queueOf(t, wfs...))
	if err != nil {
		t.Fatal(err)
	}
	// 6 × ~30% SM: rule 2 admits 3 per group → 2 groups of 3.
	groups := plan.Groups()
	if len(groups) != 2 {
		t.Fatalf("energy policy built %d groups: want 2 groups of 3", len(groups))
	}
	for _, g := range groups {
		if len(g.Members) != 3 {
			t.Fatalf("group size %d, want 3", len(g.Members))
		}
		if g.Estimate.Interferes {
			t.Fatalf("group predicted to interfere: %s", g.Estimate)
		}
	}
}

func TestPlanRespectsInterferenceRules(t *testing.T) {
	store := suiteStore(t)
	s, _ := NewScheduler(a100x(), 1, store, EnergyPolicy())
	// Two high-utilization workflows must not collocate.
	plan, err := s.BuildPlan(queueOf(t,
		wfOne("l1", "LAMMPS", "4x", 1),
		wfOne("l2", "LAMMPS", "4x", 1),
	))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range plan.Groups() {
		if len(g.Members) != 1 {
			t.Fatalf("LAMMPS pair collocated despite SM rule: %v", g.Names())
		}
	}
}

func TestPlanRespectsMemoryCapacity(t *testing.T) {
	store := suiteStore(t)
	s, _ := NewScheduler(a100x(), 1, store, EnergyPolicy())
	// Two WarpX workflows (61 GiB each) can never share.
	plan, err := s.BuildPlan(queueOf(t,
		wfOne("w1", "WarpX", "1x", 1),
		wfOne("w2", "WarpX", "1x", 1),
	))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range plan.Groups() {
		if len(g.Members) != 1 {
			t.Fatal("WarpX pair collocated despite capacity rule")
		}
	}
	// Even AllowInterferingPairs must not override capacity.
	pol := EnergyPolicy()
	pol.AllowInterferingPairs = true
	s2, _ := NewScheduler(a100x(), 1, store, pol)
	plan2, _ := s2.BuildPlan(queueOf(t,
		wfOne("w1", "WarpX", "1x", 1),
		wfOne("w2", "WarpX", "1x", 1),
	))
	for _, g := range plan2.Groups() {
		if len(g.Members) != 1 {
			t.Fatal("capacity rule overridden by AllowInterferingPairs")
		}
	}
}

func TestLowestUtilizationSeedsGroups(t *testing.T) {
	store := suiteStore(t)
	s, _ := NewScheduler(a100x(), 1, store, EnergyPolicy())
	plan, err := s.BuildPlan(queueOf(t,
		wfOne("heavy", "LAMMPS", "4x", 1),
		wfOne("light", "AthenaPK", "4x", 1),
		wfOne("mid", "Kripke", "4x", 1),
	))
	if err != nil {
		t.Fatal(err)
	}
	groups := plan.Groups()
	// Light (30%) + mid (63%) = 93% fit together; heavy (96%) is alone.
	var pairFound, heavyAlone bool
	for _, g := range groups {
		names := strings.Join(g.Names(), "+")
		if strings.Contains(names, "light") && strings.Contains(names, "mid") {
			pairFound = true
		}
		if names == "heavy" {
			heavyAlone = true
		}
	}
	if !pairFound || !heavyAlone {
		t.Fatalf("packing wrong: %v", planNames(plan))
	}
}

func planNames(p *Plan) [][]string {
	var out [][]string
	for _, g := range p.Groups() {
		out = append(out, g.Names())
	}
	return out
}

func TestMultiGPUBalancing(t *testing.T) {
	store := suiteStore(t)
	s, _ := NewScheduler(a100x(), 2, store, ThroughputPolicy())
	var wfs []workflow.Workflow
	for i := 0; i < 4; i++ {
		wfs = append(wfs, wfOne(string(rune('a'+i)), "LAMMPS", "4x", 1))
	}
	plan, err := s.BuildPlan(queueOf(t, wfs...))
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.PerGPU) != 2 {
		t.Fatalf("PerGPU = %d", len(plan.PerGPU))
	}
	// Four equal singleton groups → two per GPU.
	if len(plan.PerGPU[0]) != 2 || len(plan.PerGPU[1]) != 2 {
		t.Fatalf("imbalanced placement: %d vs %d", len(plan.PerGPU[0]), len(plan.PerGPU[1]))
	}
}

func TestRightSizing(t *testing.T) {
	store := suiteStore(t)
	pol := EnergyPolicy()
	pol.RightSizePartitions = true
	s, _ := NewScheduler(a100x(), 1, store, pol)
	plan, err := s.BuildPlan(queueOf(t,
		wfOne("a", "AthenaPK", "4x", 1),
		wfOne("b", "AthenaPK", "4x", 1),
	))
	if err != nil {
		t.Fatal(err)
	}
	g := plan.Groups()[0]
	if len(g.Members) != 2 {
		t.Fatalf("expected one pair group, got %v", planNames(plan))
	}
	for i, p := range g.Partitions {
		if p <= 0 || p > 1 {
			t.Fatalf("partition %d = %v", i, p)
		}
		if p == 1 {
			t.Fatalf("right-sizing left partition %d at 100%%", i)
		}
		// 10% granularity.
		if r := p * 10; r != float64(int(r+0.5)) && (r-float64(int(r))) > 1e-9 {
			t.Fatalf("partition %v not on 10%% steps", p)
		}
	}
	// Singleton groups keep full partitions.
	plan2, _ := s.BuildPlan(queueOf(t, wfOne("solo", "LAMMPS", "4x", 1)))
	if plan2.Groups()[0].Partitions[0] != 1 {
		t.Fatal("singleton group should keep 100% partition")
	}
}

func TestSchedulerValidation(t *testing.T) {
	store := suiteStore(t)
	if _, err := NewScheduler(a100x(), 0, store, ThroughputPolicy()); err == nil {
		t.Fatal("zero GPUs accepted")
	}
	if _, err := NewScheduler(a100x(), 1, nil, ThroughputPolicy()); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := NewScheduler(a100x(), 1, store, Policy{Objective: Objective(99)}); err == nil {
		t.Fatal("bad objective accepted")
	}
	s, _ := NewScheduler(a100x(), 1, store, ThroughputPolicy())
	if _, err := s.BuildPlan(nil); err == nil {
		t.Fatal("nil queue accepted")
	}
	empty, _ := workflow.NewQueue()
	if _, err := s.BuildPlan(empty); err == nil {
		t.Fatal("empty queue accepted")
	}
}

func TestPolicyClientCaps(t *testing.T) {
	dev := a100x()
	if got := ThroughputPolicy().ClientCap(dev.MaxMPSClients); got != 2 {
		t.Fatalf("throughput cap = %d", got)
	}
	if got := EnergyPolicy().ClientCap(dev.MaxMPSClients); got != 48 {
		t.Fatalf("energy cap = %d", got)
	}
	p := ThroughputPolicy()
	p.ThroughputClientCap = 3
	if got := p.ClientCap(dev.MaxMPSClients); got != 3 {
		t.Fatalf("override cap = %d", got)
	}
}

func TestEstimateViewsMatchInterferencePackage(t *testing.T) {
	store := suiteStore(t)
	s, _ := NewScheduler(a100x(), 1, store, EnergyPolicy())
	wpA, _ := BuildWorkflowProfile(store, wfOne("a", "LAMMPS", "4x", 1))
	wpB, _ := BuildWorkflowProfile(store, wfOne("b", "LAMMPS", "4x", 1))
	est := s.estimate([]*WorkflowProfile{wpA, wpB})
	if !est.Interferes || !est.Has(interference.Compute) {
		t.Fatalf("estimate = %v", est)
	}
}

func TestPairOpposingPower(t *testing.T) {
	// Recommendation 3 of §VI: with the heuristic on, a low-power seed
	// prefers the fitting candidate with the most different power
	// profile, not the next-lowest-utilization one.
	store := suiteStore(t)
	pol := EnergyPolicy()
	pol.PairOpposingPower = true
	s, _ := NewScheduler(a100x(), 1, store, pol)
	// Seeds sort ascending by SM util: athena (30%) first. Candidates:
	// a second athena (89 W, closest power) and Kripke 4x (148 W,
	// opposing). Both fit (30+30 or 30+63 ≤ 100).
	plan, err := s.BuildPlan(queueOf(t,
		wfOne("athena-1", "AthenaPK", "4x", 1),
		wfOne("athena-2", "AthenaPK", "4x", 1),
		wfOne("kripke", "Kripke", "4x", 1),
	))
	if err != nil {
		t.Fatal(err)
	}
	var seedGroup *Group
	for _, g := range plan.Groups() {
		for _, m := range g.Members {
			if m.Workflow.Name == "athena-1" {
				seedGroup = g
			}
		}
	}
	names := strings.Join(seedGroup.Names(), "+")
	if !strings.Contains(names, "kripke") {
		t.Fatalf("opposing-power pairing picked %q, want the Kripke partner", names)
	}

	// Heuristic off: the packer takes the next-lowest-utilization
	// candidate — the second AthenaPK.
	s2, _ := NewScheduler(a100x(), 1, store, EnergyPolicy())
	plan2, err := s2.BuildPlan(queueOf(t,
		wfOne("athena-1", "AthenaPK", "4x", 1),
		wfOne("athena-2", "AthenaPK", "4x", 1),
		wfOne("kripke", "Kripke", "4x", 1),
	))
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range plan2.Groups() {
		names := strings.Join(g.Names(), "+")
		if strings.Contains(names, "athena-1") && !strings.Contains(names, "athena-2") &&
			len(g.Members) > 1 {
			t.Fatalf("default packing should pair the athenas first, got %q", names)
		}
	}
}
