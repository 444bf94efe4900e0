package core

import (
	"fmt"

	"gpushare/internal/gpu"
	"gpushare/internal/gpusim"
	"gpushare/internal/metrics"
	"gpushare/internal/mps"
	"gpushare/internal/obs"
	"gpushare/internal/parallel"
	"gpushare/internal/workflow"
)

// GroupResult is the simulated outcome of one collocation group.
type GroupResult struct {
	GPU    int
	Wave   int
	Group  *Group
	Result *gpusim.Result
}

// Outcome is the full evaluation of a plan: the sharing execution, the
// sequential baseline on the same pool, and the paper's relative metrics.
type Outcome struct {
	Plan       *Plan
	Groups     []GroupResult
	Sharing    metrics.RunSummary
	Sequential metrics.RunSummary
	Relative   metrics.Relative
	// ProductValue is the policy's product metric when applicable.
	ProductValue float64
}

// Execute simulates the plan and its sequential baseline and compares
// them. The sharing mechanism comes from simCfg.Mode (MPS or
// time-slicing); the device is forced to the plan's device.
func (s *Scheduler) Execute(plan *Plan, simCfg gpusim.Config) (*Outcome, error) {
	if plan == nil || plan.WorkflowCount() == 0 {
		return nil, fmt.Errorf("core: empty plan")
	}
	hub := obs.Active()
	defer hub.StartWall("scheduler", "Execute").End()
	simCfg.Device = plan.Device

	// An MPS control daemon per pool, one server per GPU: exercised here
	// so plans respect real client-connection semantics (limits,
	// partition-at-connect). Servers are created up front — the daemon is
	// not safe for concurrent mutation — and each GPU's wave sequence then
	// runs on the worker pool. Waves within a GPU stay serial: they share
	// one MPS server, and a GPU's client-connection window is exactly one
	// wave wide.
	daemon := mps.NewControlDaemon(plan.Device.MaxMPSClients)
	defer daemon.StopAll()
	servers := make([]*mps.Server, len(plan.PerGPU))
	for gpuIdx := range plan.PerGPU {
		servers[gpuIdx] = daemon.ServerFor(fmt.Sprintf("gpu%d", gpuIdx))
	}

	type gpuOutcome struct {
		groups   []GroupResult
		makespan float64
		energyJ  float64
		cappedS  float64
		tasks    int
	}
	perGPU, err := parallel.Map(s.Workers, len(plan.PerGPU), func(gpuIdx int) (gpuOutcome, error) {
		var o gpuOutcome
		for waveIdx, g := range plan.PerGPU[gpuIdx] {
			res, err := s.runGroup(servers[gpuIdx], g, simCfg, gpuIdx, waveIdx)
			if err != nil {
				return gpuOutcome{}, err
			}
			o.groups = append(o.groups, GroupResult{
				GPU: gpuIdx, Wave: waveIdx, Group: g, Result: res,
			})
			o.makespan += res.Makespan.Seconds()
			o.energyJ += res.EnergyJ
			o.cappedS += res.CappedTime.Seconds()
			o.tasks += res.TasksCompleted()
		}
		return o, nil
	})
	if err != nil {
		return nil, err
	}

	out := &Outcome{Plan: plan}
	gpuMakespans := make([]float64, len(plan.PerGPU))
	var totalEnergy, totalCappedS float64
	totalTasks := 0
	for gpuIdx, o := range perGPU {
		out.Groups = append(out.Groups, o.groups...)
		gpuMakespans[gpuIdx] = o.makespan
		totalEnergy += o.energyJ
		totalCappedS += o.cappedS
		totalTasks += o.tasks
	}

	out.Sharing = poolSummary(plan.Device, gpuMakespans, totalEnergy, totalCappedS, totalTasks)

	seq, err := s.runSequentialBaseline(plan, simCfg)
	if err != nil {
		return nil, err
	}
	out.Sequential = seq

	rel, err := metrics.Compare(out.Sequential, out.Sharing)
	if err != nil {
		return nil, err
	}
	out.Relative = rel
	if plan.Policy.Objective == MaximizeProduct {
		out.ProductValue = plan.Policy.Product.Eval(rel)
	} else {
		out.ProductValue = metrics.EqualProduct().Eval(rel)
	}
	return out, nil
}

// runGroup executes one collocation group: each member workflow becomes
// one MPS client (or one time-sliced process).
func (s *Scheduler) runGroup(server *mps.Server, g *Group, simCfg gpusim.Config, gpuIdx, waveIdx int) (*gpusim.Result, error) {
	hub := obs.Active()
	hub.Counter("sched_waves_total").Inc()
	detail := ""
	if hub.SpansEnabled() {
		detail = fmt.Sprintf("gpu%d-wave%d", gpuIdx, waveIdx)
	}
	sp := hub.StartWall("scheduler", "runGroup")
	defer sp.EndDetail(detail)
	var mpsClients []*mps.Client
	var simClients []gpusim.Client
	for i, m := range g.Members {
		id := fmt.Sprintf("g%d-w%d-%s", gpuIdx, waveIdx, m.Workflow.Name)
		partition := 1.0
		if len(g.Partitions) == len(g.Members) {
			partition = g.Partitions[i]
		}
		if simCfg.Mode == gpusim.ShareMPS {
			mc, err := server.Connect(id, partition*100)
			if err != nil {
				for _, prev := range mpsClients {
					_ = server.Disconnect(prev)
				}
				return nil, fmt.Errorf("core: MPS connect %s: %w", id, err)
			}
			mpsClients = append(mpsClients, mc)
			partition = mc.Partition()
		}
		tasks, err := m.Workflow.BuildSpecs(s.Device)
		if err != nil {
			for _, prev := range mpsClients {
				_ = server.Disconnect(prev)
			}
			return nil, err
		}
		simClients = append(simClients, gpusim.Client{
			ID:        id,
			Partition: partition,
			Tasks:     tasks,
		})
	}
	res, err := s.Cache.RunClients(simCfg, simClients)
	for _, mc := range mpsClients {
		_ = server.Disconnect(mc)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// runSequentialBaseline executes the paper's baseline: the same workflows
// in queue order, one at a time per GPU with no overlap, workflows placed
// on the earliest-available GPU.
func (s *Scheduler) runSequentialBaseline(plan *Plan, simCfg gpusim.Config) (metrics.RunSummary, error) {
	// Recover the workflow multiset from the plan in deterministic
	// (gpu, wave, member) order.
	var wfs []workflow.Workflow
	for _, g := range plan.Groups() {
		for _, m := range g.Members {
			wfs = append(wfs, m.Workflow)
		}
	}
	seqCfg := simCfg
	seqCfg.Mode = gpusim.ShareMPS // single client; mode is irrelevant

	// Each workflow's solo run is independent: fan them out on the worker
	// pool, seeding run i by SplitMix64 stream split from the base seed —
	// a function of the run index alone, so the derived jitter streams are
	// identical at any worker count (and well-separated between runs,
	// unlike consecutive raw seeds).
	results, err := parallel.Map(s.Workers, len(wfs), func(i int) (*gpusim.Result, error) {
		tasks, err := wfs[i].BuildSpecs(s.Device)
		if err != nil {
			return nil, err
		}
		cfg := seqCfg
		cfg.Seed = parallel.SplitSeed(seqCfg.Seed, i)
		return s.Cache.RunSequential(cfg, tasks)
	})
	if err != nil {
		return metrics.RunSummary{}, err
	}

	// Greedy earliest-available-GPU packing is inherently sequential in
	// queue order; fold the in-order results serially.
	gpuMakespans := make([]float64, len(plan.PerGPU))
	var totalEnergy, totalCappedS float64
	totalTasks := 0
	for _, res := range results {
		// Earliest-available GPU; ties to lowest index.
		best := 0
		for g := 1; g < len(gpuMakespans); g++ {
			if gpuMakespans[g] < gpuMakespans[best] {
				best = g
			}
		}
		gpuMakespans[best] += res.Makespan.Seconds()
		totalEnergy += res.EnergyJ
		totalCappedS += res.CappedTime.Seconds()
		totalTasks += res.TasksCompleted()
	}
	return poolSummary(plan.Device, gpuMakespans, totalEnergy, totalCappedS, totalTasks), nil
}

// poolSummary folds per-GPU makespans into a cluster-level summary: the
// pool finishes when its slowest GPU does, and GPUs idling after their
// last wave still draw idle power until then.
func poolSummary(device gpu.DeviceSpec, gpuMakespans []float64, energyJ, cappedS float64, tasks int) metrics.RunSummary {
	var makespan float64
	for _, m := range gpuMakespans {
		if m > makespan {
			makespan = m
		}
	}
	for _, m := range gpuMakespans {
		energyJ += device.IdlePowerW * (makespan - m)
	}
	capped, avgPower := 0.0, 0.0
	if makespan > 0 {
		capped = cappedS / (makespan * float64(len(gpuMakespans)))
		avgPower = energyJ / makespan / float64(len(gpuMakespans))
	}
	return metrics.RunSummary{
		MakespanS:      makespan,
		EnergyJ:        energyJ,
		Tasks:          tasks,
		CappedFraction: capped,
		AvgPowerW:      avgPower,
	}
}

// ScheduleAndRun is the one-call convenience: build the plan for a queue,
// execute it under MPS, and return the outcome.
func (s *Scheduler) ScheduleAndRun(q *workflow.Queue, simCfg gpusim.Config) (*Outcome, error) {
	plan, err := s.BuildPlan(q)
	if err != nil {
		return nil, err
	}
	simCfg.Mode = gpusim.ShareMPS
	return s.Execute(plan, simCfg)
}
