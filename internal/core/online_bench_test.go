package core

import (
	"testing"

	"gpushare/internal/workflow"
)

// Dispatcher benchmarks at fleet scale: thousands to hundreds of
// thousands of arrivals over 16 to 16,384 GPUs, planning only
// (execution is the simulator's cost, measured separately in gpusim).
// scripts/bench_dispatcher.sh records them, for this tree and a base
// revision, in BENCH_dispatcher.json.

// fleetBench builds a scheduler plus arrival stream for one configuration.
func fleetBench(b *testing.B, workflows, gpus int, seed uint64, policy Policy) (*Scheduler, []Arrival) {
	b.Helper()
	arrivals, store, err := GenerateFleet(a100x(), FleetSpec{
		Workflows:  workflows,
		TargetGPUs: gpus,
		Seed:       seed,
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
		seed      uint64
	}{
		{"2k-16gpu", 2_000, 16, 2_000*31 + 16},
		{"10k-64gpu", 10_000, 64, 10_000*31 + 64},
		{"50k-256gpu", 50_000, 256, 50_000*31 + 256},
		// Fleet sweep: 16 arrivals per GPU, enough for the energy
		// policy's first-fit scans to reach their steady depth, so
		// ns/arrival shows how a scan scales with the fleet. The seed
		// also draws the archetype catalogue, so the sweep holds it
		// fixed: only the fleet size moves.
		{"sweep-4k-256gpu", 4_096, 256, 42},
		{"sweep-16k-1024gpu", 16_384, 1_024, 42},
		{"sweep-64k-4096gpu", 65_536, 4_096, 42},
		{"sweep-256k-16384gpu", 262_144, 16_384, 42},
	}
	for _, c := range configs {
		b.Run(c.name, func(b *testing.B) {
			s, arrivals := fleetBench(b, c.workflows, c.gpus, c.seed, EnergyPolicy())
			// Warm the profile cache: BuildWorkflowProfile allocates per
			// arrival regardless of the dispatcher, and the decision path
			// is what this benchmark isolates.
			if _, err := s.planOnline(arrivals); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			var stats DispatchStats
			for i := 0; i < b.N; i++ {
				plan, err := s.planOnline(arrivals)
				if err != nil {
					b.Fatal(err)
				}
				if len(plan.Dispatches) != c.workflows {
					b.Fatalf("dispatched %d of %d", len(plan.Dispatches), c.workflows)
				}
				stats = plan.Stats
			}
			b.StopTimer()
			nsPerArrival := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / float64(c.workflows)
			b.ReportMetric(nsPerArrival, "ns/arrival")
			b.ReportMetric(float64(stats.Probes)/float64(c.workflows), "probes/arrival")
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
