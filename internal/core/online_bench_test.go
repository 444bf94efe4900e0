package core

import (
	"testing"

	"gpushare/internal/workflow"
)

// Dispatcher benchmarks at fleet scale: tens of thousands of arrivals
// over hundreds of GPUs, planning only (execution is the simulator's
// cost, measured separately in gpusim). BENCH_dispatcher.json records
// before/after numbers for the incremental-aggregate rewrite.

// fleetBench builds a scheduler plus arrival stream for one configuration.
func fleetBench(b *testing.B, workflows, gpus int, policy Policy) (*Scheduler, []Arrival) {
	b.Helper()
	arrivals, store, err := GenerateFleet(a100x(), FleetSpec{
		Workflows:  workflows,
		TargetGPUs: gpus,
		Seed:       uint64(workflows)*31 + uint64(gpus),
	})
	if err != nil {
		b.Fatal(err)
	}
	s, err := NewScheduler(a100x(), gpus, store, policy)
	if err != nil {
		b.Fatal(err)
	}
	return s, arrivals
}

func BenchmarkScheduleOnline(b *testing.B) {
	configs := []struct {
		name      string
		workflows int
		gpus      int
	}{
		{"2k-16gpu", 2_000, 16},
		{"10k-64gpu", 10_000, 64},
		{"50k-256gpu", 50_000, 256},
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			s, arrivals := fleetBench(b, c.workflows, c.gpus, EnergyPolicy())
			// Warm the profile cache: BuildWorkflowProfile allocates per
			// arrival regardless of the dispatcher, and the decision path
			// is what this benchmark isolates.
			if _, err := s.planOnline(arrivals); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan, err := s.planOnline(arrivals)
				if err != nil {
					b.Fatal(err)
				}
				if len(plan.Dispatches) != c.workflows {
					b.Fatalf("dispatched %d of %d", len(plan.Dispatches), c.workflows)
				}
			}
			b.StopTimer()
			nsPerArrival := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(c.workflows)
			b.ReportMetric(nsPerArrival, "ns/arrival")
		})
	}
}

func BenchmarkBuildPlan(b *testing.B) {
	configs := []struct {
		name      string
		workflows int
		gpus      int
	}{
		{"2k-16gpu", 2_000, 16},
		{"10k-64gpu", 10_000, 64},
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			arrivals, store, err := GenerateFleet(a100x(), FleetSpec{
				Workflows:  c.workflows,
				TargetGPUs: c.gpus,
				Seed:       uint64(c.workflows)*17 + uint64(c.gpus),
			})
			if err != nil {
				b.Fatal(err)
			}
			wfs := make([]workflow.Workflow, len(arrivals))
			for i, a := range arrivals {
				wfs[i] = a.Workflow
			}
			q, err := workflow.NewPlanningQueue(wfs...)
			if err != nil {
				b.Fatal(err)
			}
			s, err := NewScheduler(a100x(), c.gpus, store, EnergyPolicy())
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.BuildPlan(q); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				plan, err := s.BuildPlan(q)
				if err != nil {
					b.Fatal(err)
				}
				if plan.WorkflowCount() != c.workflows {
					b.Fatalf("planned %d of %d", plan.WorkflowCount(), c.workflows)
				}
			}
			b.StopTimer()
			nsPerWorkflow := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(c.workflows)
			b.ReportMetric(nsPerWorkflow, "ns/workflow")
		})
	}
}
