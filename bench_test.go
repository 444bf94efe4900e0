// Benchmark harness: one testing.B benchmark per paper artifact (Tables
// I-II, Figures 1-5), plus ablation benches for the design choices called
// out in DESIGN.md §6 and micro-benches for the simulator itself.
//
// Each artifact bench regenerates the corresponding table/figure end to
// end and reports the headline quantity via b.ReportMetric, so
// `go test -bench=. -benchmem` doubles as the reproduction run. Paper-vs-
// measured values are recorded in EXPERIMENTS.md.
package gpushare_test

import (
	"fmt"

	"testing"

	"gpushare"
	"gpushare/internal/experiments"
	"gpushare/internal/gpusim"
	"gpushare/internal/kernel"
	"gpushare/internal/parallel"
	"gpushare/internal/workflow"
	"gpushare/internal/workload"
)

func opts(i int) experiments.Options {
	// A fresh seed per iteration defeats the combos memoization so the
	// bench measures real work.
	return experiments.Options{Seed: uint64(i) + 1}
}

// BenchmarkTable1Occupancy regenerates Table I (warp occupancy per
// benchmark) via the occupancy calculator.
func BenchmarkTable1Occupancy(b *testing.B) {
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table1(opts(i))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].AchievedPct, "athena_achieved_occ_pct")
}

// BenchmarkTable2Profiles regenerates Table II: the full offline profiling
// campaign (13 solo simulations).
func BenchmarkTable2Profiles(b *testing.B) {
	var rows []experiments.Table2Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Table2(opts(i))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Measured.AvgPowerW, "athena1x_power_w")
}

// BenchmarkFig1PartitionSweep regenerates Figure 1: 7 benchmark/size
// curves × 10 MPS partition levels.
func BenchmarkFig1PartitionSweep(b *testing.B) {
	var series []experiments.Fig1Series
	for i := 0; i < b.N; i++ {
		var err error
		series, err = experiments.Fig1(opts(i))
		if err != nil {
			b.Fatal(err)
		}
	}
	// Saturation point evidence: Epsilon relative throughput at 50%.
	for _, s := range series {
		if s.Benchmark == "BerkeleyGW-Epsilon" {
			for _, p := range s.Points {
				if p.PartitionPct == 50 {
					b.ReportMetric(p.RelThroughput, "epsilon_rel_thpt_at_50pct")
				}
			}
		}
	}
}

// BenchmarkFig2Combos regenerates Figure 2: all 10 Table III combinations
// under sequential, MPS and time-slicing.
func BenchmarkFig2Combos(b *testing.B) {
	var results []experiments.ComboResult
	for i := 0; i < b.N; i++ {
		var err error
		results, err = experiments.RunCombos(opts(i))
		if err != nil {
			b.Fatal(err)
		}
	}
	var bestThpt, bestEff float64
	for _, r := range results {
		if r.MPS.Throughput > bestThpt {
			bestThpt = r.MPS.Throughput
		}
		if r.MPS.EnergyEfficiency > bestEff {
			bestEff = r.MPS.EnergyEfficiency
		}
	}
	b.ReportMetric(bestThpt, "best_mps_throughput_x")
	b.ReportMetric(bestEff, "best_mps_efficiency_x")
}

// BenchmarkFig3PowerCapping regenerates Figure 3 from the same runs and
// reports the largest capping differential.
func BenchmarkFig3PowerCapping(b *testing.B) {
	var results []experiments.ComboResult
	for i := 0; i < b.N; i++ {
		var err error
		results, err = experiments.RunCombos(experiments.Options{Seed: uint64(i) + 1000})
		if err != nil {
			b.Fatal(err)
		}
	}
	var maxDelta float64
	for _, r := range results {
		if d := r.MPSCappedPct - r.SeqCappedPct; d > maxDelta {
			maxDelta = d
		}
	}
	b.ReportMetric(maxDelta, "max_capping_delta_pp")
}

// BenchmarkFig4Cardinality regenerates Figure 4 (the cardinality sweep
// for AthenaPK and LAMMPS workflow sets) at several worker-pool widths.
// The cold variants use a fresh seed and a fresh simulation cache per
// iteration so they measure real simulation work; comparing j1 against
// j4 is the parallel runner's speedup evidence. The achievable speedup
// is bounded by min(GOMAXPROCS, total/longest-point): the sweep's
// largest cardinality point is ~1/3 of the serial total, so a ≥4-core
// host approaches ~2.8x at j4 (a single-core host necessarily reports
// ~1x; check runtime.NumCPU when reading results). j4warm reuses one
// warm cache across iterations — the content-addressed cache collapses
// repeat sweeps regardless of core count. Every variant produces
// byte-identical points.
func BenchmarkFig4Cardinality(b *testing.B) {
	warm := parallel.NewCache()
	for _, v := range []struct {
		name    string
		workers int
		cache   *parallel.Cache // nil: fresh cold cache each iteration
	}{
		{"j1", 1, nil},
		{"j4", 4, nil},
		{"jmax", 0, nil}, // GOMAXPROCS
		{"j4warm", 4, warm},
	} {
		b.Run(v.name, func(b *testing.B) {
			var points []experiments.ConfigPoint
			for i := 0; i < b.N; i++ {
				o := opts(i)
				o.Workers = v.workers
				o.Cache = v.cache
				if o.Cache == nil {
					o.Cache = parallel.NewCache()
				} else {
					// Warm variant: fixed seed so iterations hit the
					// same cache entries after the first pass.
					o.Seed = 1
				}
				var err error
				points, err = experiments.Fig4(o)
				if err != nil {
					b.Fatal(err)
				}
			}
			for _, p := range points {
				if p.Benchmark == "AthenaPK" && p.Parallel == 2 {
					b.ReportMetric(p.Rel.Throughput, "athena_2client_thpt_x")
				}
			}
		})
	}
}

// BenchmarkFig5Configuration regenerates Figure 5: constant-total-task
// scheduling configurations.
func BenchmarkFig5Configuration(b *testing.B) {
	var points []experiments.ConfigPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = experiments.Fig5(opts(i))
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		if p.Benchmark == "AthenaPK" && p.Parallel == 48 {
			b.ReportMetric(p.Rel.EnergyEfficiency, "athena_48client_eff_x")
		}
	}
}

// --- Ablation benches (DESIGN.md §6) ---

// comboPair runs the MHD+LAMMPS pair (combo 7's core) under a given
// engine configuration and returns relative throughput and capped
// fraction.
func comboPair(b *testing.B, cfg gpusim.Config) (thpt, capped float64) {
	b.Helper()
	dev := gpushare.MustLookupDevice("A100X")
	cfg.Device = dev
	mhd, err := workload.MustGet("Cholla-MHD").BuildTaskSpec("4x", dev)
	if err != nil {
		b.Fatal(err)
	}
	lam, err := workload.MustGet("LAMMPS").BuildTaskSpec("4x", dev)
	if err != nil {
		b.Fatal(err)
	}
	seqCfg := cfg
	seqCfg.Mode = gpusim.ShareMPS
	seq, err := gpusim.RunSequential(seqCfg, []*workload.TaskSpec{mhd, lam})
	if err != nil {
		b.Fatal(err)
	}
	cfg.Mode = gpusim.ShareMPS
	mps, err := gpusim.RunClients(cfg, []gpusim.Client{
		{ID: "mhd", Tasks: []*workload.TaskSpec{mhd}},
		{ID: "lam", Tasks: []*workload.TaskSpec{lam}},
	})
	if err != nil {
		b.Fatal(err)
	}
	return seq.Makespan.Seconds() / mps.Makespan.Seconds(), mps.CappedFraction
}

// BenchmarkAblationPowerCap compares the MHD+LAMMPS pair with the SW
// power-cap governor on vs off: the governor trades throughput for the
// 300 W envelope.
func BenchmarkAblationPowerCap(b *testing.B) {
	var onThpt, offThpt, onCapped float64
	for i := 0; i < b.N; i++ {
		onThpt, onCapped = comboPair(b, gpusim.Config{Seed: uint64(i)})
		offThpt, _ = comboPair(b, gpusim.Config{Seed: uint64(i), DisablePowerCap: true})
	}
	b.ReportMetric(onThpt, "thpt_capped_x")
	b.ReportMetric(offThpt, "thpt_uncapped_x")
	b.ReportMetric(onCapped*100, "capped_pct")
}

// BenchmarkAblationLatencyHiding compares the calibrated contention model
// against pure proportional sharing (no occupancy bonus, no overheads):
// without latency hiding the high-utilization pair loses its gain.
func BenchmarkAblationLatencyHiding(b *testing.B) {
	var withBonus, without float64
	for i := 0; i < b.N; i++ {
		withBonus, _ = comboPair(b, gpusim.Config{Seed: uint64(i)})
		without, _ = comboPair(b, gpusim.Config{
			Seed:            uint64(i),
			Contention:      gpusim.NoOverhead(),
			ExactContention: true,
		})
	}
	b.ReportMetric(withBonus, "thpt_latency_hiding_x")
	b.ReportMetric(without, "thpt_proportional_x")
}

// BenchmarkAblationRightSizing compares scheduler plans with and without
// MPS partition right-sizing on a mixed queue.
func BenchmarkAblationRightSizing(b *testing.B) {
	dev := gpushare.MustLookupDevice("A100X")
	pr := &gpushare.Profiler{Config: gpushare.SimConfig{Device: dev, Seed: 1}}
	store := gpushare.NewProfileStore()
	for _, name := range []string{"AthenaPK", "Kripke"} {
		w, _ := gpushare.GetWorkload(name)
		task, err := w.BuildTaskSpec("4x", dev)
		if err != nil {
			b.Fatal(err)
		}
		p, err := pr.ProfileTask(task)
		if err != nil {
			b.Fatal(err)
		}
		if err := store.Add(p); err != nil {
			b.Fatal(err)
		}
	}
	mkQueue := func() *workflow.Queue {
		q, err := workflow.NewQueue(
			workflow.Workflow{Name: "a", Tasks: []workflow.Task{{Benchmark: "AthenaPK", Size: "4x", Iterations: 2}}},
			workflow.Workflow{Name: "k", Tasks: []workflow.Task{{Benchmark: "Kripke", Size: "4x", Iterations: 1}}},
		)
		if err != nil {
			b.Fatal(err)
		}
		return q
	}
	run := func(rightsize bool, seed uint64) float64 {
		pol := gpushare.EnergyPolicy()
		pol.RightSizePartitions = rightsize
		s, err := gpushare.NewScheduler(dev, 1, store, pol)
		if err != nil {
			b.Fatal(err)
		}
		out, err := s.ScheduleAndRun(mkQueue(), gpushare.SimConfig{Device: dev, Seed: seed})
		if err != nil {
			b.Fatal(err)
		}
		return out.Relative.Throughput
	}
	var on, off float64
	for i := 0; i < b.N; i++ {
		on = run(true, uint64(i))
		off = run(false, uint64(i))
	}
	b.ReportMetric(on, "thpt_rightsized_x")
	b.ReportMetric(off, "thpt_full_partition_x")
}

// BenchmarkAblationInterferenceAwareness compares the paper's packing
// rules against the naive FIFO baseline across the full policy pipeline.
func BenchmarkAblationInterferenceAwareness(b *testing.B) {
	dev := gpushare.MustLookupDevice("A100X")
	pr := &gpushare.Profiler{Config: gpushare.SimConfig{Device: dev, Seed: 1}}
	store, err := pr.ProfileSuite([]string{"4x"})
	if err != nil {
		b.Fatal(err)
	}
	mkQueue := func() *workflow.Queue {
		q, err := workflow.NewQueue(
			workflow.Workflow{Name: "l1", Tasks: []workflow.Task{{Benchmark: "LAMMPS", Size: "4x", Iterations: 1}}},
			workflow.Workflow{Name: "m1", Tasks: []workflow.Task{{Benchmark: "MHD", Size: "4x", Iterations: 1}}},
			workflow.Workflow{Name: "a1", Tasks: []workflow.Task{{Benchmark: "Athena", Size: "4x", Iterations: 3}}},
			workflow.Workflow{Name: "g1", Tasks: []workflow.Task{{Benchmark: "Gravity", Size: "4x", Iterations: 2}}},
		)
		if err != nil {
			b.Fatal(err)
		}
		return q
	}
	var aware, naive float64
	for i := 0; i < b.N; i++ {
		s, err := gpushare.NewScheduler(dev, 1, store, gpushare.ThroughputPolicy())
		if err != nil {
			b.Fatal(err)
		}
		cfg := gpushare.SimConfig{Device: dev, Seed: uint64(i), Mode: gpushare.ShareMPS}
		out, err := s.ScheduleAndRun(mkQueue(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		aware = out.Relative.Throughput
		np, err := s.NaiveFIFOPlan(mkQueue(), 2)
		if err != nil {
			b.Fatal(err)
		}
		nout, err := s.Execute(np, cfg)
		if err != nil {
			b.Fatal(err)
		}
		naive = nout.Relative.Throughput
	}
	b.ReportMetric(aware, "thpt_interference_aware_x")
	b.ReportMetric(naive, "thpt_naive_fifo_x")
}

// --- Simulator micro-benches ---
//
// These exercise the engine end to end through the public API, so their
// allocs/op include per-run setup (client registration, result assembly).
// The steady-state hot path itself — pop, advance, dispatch, recompute —
// is measured in isolation by BenchmarkEngineSteadyState in
// internal/gpusim (white-box, step-driven), which must report 0 allocs/op;
// measured numbers are recorded in BENCH_engine.json.

// BenchmarkEngineSoloLAMMPS measures raw engine speed on one calibrated
// task (≈114 simulated seconds).
func BenchmarkEngineSoloLAMMPS(b *testing.B) {
	dev := gpushare.MustLookupDevice("A100X")
	ts, err := workload.MustGet("LAMMPS").BuildTaskSpec("4x", dev)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gpusim.RunSolo(gpusim.Config{Seed: uint64(i)}, ts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngine24Clients measures the engine under a high-cardinality
// MPS co-schedule (24 clients × 2 AthenaPK tasks).
func BenchmarkEngine24Clients(b *testing.B) {
	dev := gpushare.MustLookupDevice("A100X")
	ts, err := workload.MustGet("AthenaPK").BuildTaskSpec("1x", dev)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var clients []gpusim.Client
		for c := 0; c < 24; c++ {
			clients = append(clients, gpusim.Client{
				ID:    fmt.Sprintf("c%02d", c),
				Tasks: []*workload.TaskSpec{ts, ts},
			})
		}
		if _, err := gpusim.RunClients(gpusim.Config{Seed: uint64(i), Mode: gpusim.ShareMPS}, clients); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOccupancyCalculator measures the Table I primitive.
func BenchmarkOccupancyCalculator(b *testing.B) {
	dev := gpushare.MustLookupDevice("A100X")
	cfg := kernel.LaunchConfig{ThreadsPerBlock: 128, RegistersPerThread: 64, GridBlocks: 864}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := kernel.ComputeOccupancy(dev, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedulerBuildPlan measures plan construction over a 24-deep
// queue.
func BenchmarkSchedulerBuildPlan(b *testing.B) {
	dev := gpushare.MustLookupDevice("A100X")
	pr := &gpushare.Profiler{Config: gpushare.SimConfig{Device: dev, Seed: 1}}
	store, err := pr.ProfileSuite([]string{"1x"})
	if err != nil {
		b.Fatal(err)
	}
	names := []string{"AthenaPK", "Kripke", "LAMMPS", "Gravity", "MHD", "WarpX"}
	var wfs []workflow.Workflow
	for i := 0; i < 24; i++ {
		wfs = append(wfs, workflow.Workflow{
			Name:  fmt.Sprintf("wf-%02d", i),
			Tasks: []workflow.Task{{Benchmark: names[i%len(names)], Size: "1x", Iterations: 2}},
		})
	}
	s, err := gpushare.NewScheduler(dev, 2, store, gpushare.EnergyPolicy())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q, err := workflow.NewQueue(wfs...)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.BuildPlan(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOnlineScheduling measures the online dispatcher end to end
// (ext-online's configuration at quick scale).
func BenchmarkOnlineScheduling(b *testing.B) {
	dev := gpushare.MustLookupDevice("A100X")
	pr := &gpushare.Profiler{Config: gpushare.SimConfig{Device: dev, Seed: 1}}
	store, err := pr.ProfileSuite([]string{"1x"})
	if err != nil {
		b.Fatal(err)
	}
	sched, err := gpushare.NewScheduler(dev, 2, store, gpushare.EnergyPolicy())
	if err != nil {
		b.Fatal(err)
	}
	names := []string{"AthenaPK", "Kripke", "Gravity", "LAMMPS"}
	var thpt float64
	for i := 0; i < b.N; i++ {
		var arrivals []gpushare.WorkflowArrival
		for j := 0; j < 8; j++ {
			arrivals = append(arrivals, gpushare.WorkflowArrival{
				Workflow: gpushare.WorkflowSpec{
					Name: fmt.Sprintf("job-%d", j),
					Tasks: []gpushare.WorkflowTask{
						{Benchmark: names[j%len(names)], Size: "1x", Iterations: 3},
					},
				},
			})
		}
		out, err := sched.ScheduleOnline(arrivals, gpushare.SimConfig{Device: dev, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		thpt = out.Relative.Throughput
	}
	b.ReportMetric(thpt, "online_thpt_x")
}

// BenchmarkScheduleDAG measures dependency-aware level scheduling on a
// diamond DAG.
func BenchmarkScheduleDAG(b *testing.B) {
	dev := gpushare.MustLookupDevice("A100X")
	pr := &gpushare.Profiler{Config: gpushare.SimConfig{Device: dev, Seed: 1}}
	store, err := pr.ProfileSuite([]string{"1x"})
	if err != nil {
		b.Fatal(err)
	}
	sched, err := gpushare.NewScheduler(dev, 1, store, gpushare.EnergyPolicy())
	if err != nil {
		b.Fatal(err)
	}
	var thpt float64
	for i := 0; i < b.N; i++ {
		dag := gpushare.NewWorkflowDAG()
		mk := func(name, bench string) gpushare.WorkflowSpec {
			return gpushare.WorkflowSpec{Name: name, Tasks: []gpushare.WorkflowTask{
				{Benchmark: bench, Size: "1x", Iterations: 2}}}
		}
		for _, w := range []gpushare.WorkflowSpec{
			mk("pre", "Kripke"), mk("left", "AthenaPK"),
			mk("right", "Gravity"), mk("post", "Kripke"),
		} {
			if err := dag.AddWorkflow(w); err != nil {
				b.Fatal(err)
			}
		}
		for _, e := range [][2]string{{"left", "pre"}, {"right", "pre"}, {"post", "left"}, {"post", "right"}} {
			if err := dag.AddDependency(e[0], e[1]); err != nil {
				b.Fatal(err)
			}
		}
		out, err := sched.ScheduleDAG(dag, gpushare.SimConfig{Device: dev, Seed: uint64(i)})
		if err != nil {
			b.Fatal(err)
		}
		thpt = out.Relative.Throughput
	}
	b.ReportMetric(thpt, "dag_thpt_x")
}
