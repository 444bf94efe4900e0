package main

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"time"

	"gpushare/internal/cluster"
	"gpushare/internal/core"
	"gpushare/internal/obs"
)

// clusterSpec is 64 nodes of 8 GPUs cycling MPS, MIG and time-slicing,
// shared fair-share by three tenants weighted 1/2/3, with preemption.
func clusterSpec(sz sizes) cluster.Spec {
	spec := cluster.Spec{Queue: cluster.FairShare, Preemption: true}
	modes := []cluster.Mode{cluster.ModeMPS, cluster.ModeMIG, cluster.ModeTimeSlice}
	for n := 0; n < sz.clusterNodes; n++ {
		spec.Nodes = append(spec.Nodes, cluster.NodeSpec{
			Name:   fmt.Sprintf("node-%03d", n),
			Device: device,
			GPUs:   sz.clusterGPUsPerNode,
			Mode:   modes[n%len(modes)],
		})
	}
	for i := 0; i < 3; i++ {
		spec.Tenants = append(spec.Tenants, cluster.TenantSpec{Name: fmt.Sprintf("tenant-%02d", i), Weight: 1 + i})
	}
	return spec
}

// clusterStream draws n seeded workflows bundled into submissions: 3
// priority levels, 15% gangs of 3.
func clusterStream(sz sizes, n int, seed uint64) ([]cluster.Submission, error) {
	subs, _, err := cluster.GenerateStream(device, cluster.StreamSpec{
		Fleet:          core.FleetSpec{Workflows: n, TargetGPUs: sz.clusterNodes * sz.clusterGPUsPerNode, Seed: seed},
		Tenants:        []string{"tenant-00", "tenant-01", "tenant-02"},
		PriorityLevels: 3,
		GangFraction:   0.15,
		GangSize:       3,
		Seed:           seed + 1,
	})
	return subs, err
}

// runCluster drives cluster.Planner.Plan, a batch decision over the whole
// submission stream: every timed call plans the same stream on a fresh
// planner and must produce the same dispatch log.
func runCluster(rc *runCtx) (*runResult, error) {
	sz := rc.sizes
	res := newResult()
	gpus := sz.clusterNodes * sz.clusterGPUsPerNode

	setup, err := newSetupSampler(sz.setupReps, timed(func() error {
		store, err := catalogue(gpus)
		if err != nil {
			return err
		}
		_, err = cluster.NewPlanner(clusterSpec(sz), store)
		return err
	}))
	if err != nil {
		return nil, err
	}

	store, err := catalogue(gpus)
	if err != nil {
		return nil, err
	}
	spec := clusterSpec(sz)
	subs, err := clusterStream(sz, sz.clusterWorkflows, rc.seed)
	if err != nil {
		return nil, err
	}
	warmSubs, err := clusterStream(sz, sz.clusterWarm, rc.seed)
	if err != nil {
		return nil, err
	}
	plan := func(subs []cluster.Submission) (*cluster.Outcome, time.Duration, error) {
		p, err := cluster.NewPlanner(spec, store)
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		out, err := p.Plan(subs)
		return out, time.Since(t0), err
	}
	if _, _, err := plan(warmSubs); err != nil {
		return nil, fmt.Errorf("warm-up Plan: %w", err)
	}

	var held *cluster.Outcome
	var ref string
	var plain, traced []float64
	var rtBefore, rtAfter rtStats
	deadline := time.Now().Add(rc.seconds)
	var last time.Duration
	for call := 0; call < 3 || time.Now().Add(last).Before(deadline); call++ {
		var tr *tracer
		if rc.traced && call%2 == 1 {
			tr = rc.tracer
		}
		measureRT := rc.traced && call == 0
		held = nil
		id := tr.begin("Plan", int64(call), -1)
		if measureRT {
			rtBefore = readRuntime()
		}
		out, d, err := plan(subs)
		if measureRT {
			rtAfter = readRuntime()
		}
		tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("Plan: %w", err)
		}
		last = d
		res.attempted += int64(len(subs))
		res.failed += int64(len(out.Failed))
		digest, err := checkOutcome(res, subs, out)
		if err != nil {
			return nil, err
		}
		if call == 0 {
			ref = digest
			checkPinned(rc, res, "cluster-mixed", digest)
		} else if digest != ref {
			res.fail("Plan call %d: dispatch digest %s differs from call 0's %s", call, digest, ref)
		}
		if tr != nil {
			traced = append(traced, d.Seconds())
		} else {
			plain = append(plain, d.Seconds())
		}
		held = out
		if err := setup.take(); err != nil {
			return nil, err
		}
	}
	if res.metrics["setup_s"], err = setup.median(); err != nil {
		return nil, err
	}
	if len(res.problems) > 0 {
		res.failed = res.attempted
	}
	nsubs := float64(len(subs))
	st := held.Stats
	res.detail["plan_calls"] = float64(len(plain) + len(traced))
	res.detail["cluster.probes_per_submission"] = float64(st.Probes) / nsubs
	res.detail["cluster.holds_per_submission"] = float64(st.GangHolds) / nsubs
	res.detail["cluster.submissions"] = nsubs
	var maxWait float64
	for _, t := range held.Tenants {
		maxWait = math.Max(maxWait, t.MaxWaitS)
	}
	res.detail["sim_tenant_wait_max_s"] = maxWait
	fmt.Fprintf(rc.out, "plan: %d submissions, %d calls, median %.3fs\n", len(subs), len(plain)+len(traced), median(plain))

	if !rc.traced {
		// A Plan call is one batch decision: its latency is its duration,
		// at the median and the tail alike.
		var win windows
		for _, d := range plain {
			win.rate(nsubs / d)
			win.latency(d*1e9, d*1e9)
		}
		win.setEndToEnd(res)
		// Live heap with the last outcome held; the input stream is dead.
		res.metrics["mem_mib"] = liveHeapMiB()
		runtime.KeepAlive(held)
		return res, nil
	}

	// Telemetry on the warm-up stream: the full stream's flight trail
	// (tens of millions of probe records) does not fit a traced run.
	nwarm := float64(len(warmSubs))
	var off, on []float64
	var flight int64
	for r := 0; r < 3; r++ {
		_, d, err := plan(warmSubs)
		if err != nil {
			return nil, err
		}
		off = append(off, d.Seconds())
		hub := obs.NewHub(func() int64 { return time.Now().UnixNano() })
		prev := obs.SetActive(hub)
		_, d, err = plan(warmSubs)
		obs.SetActive(prev)
		if err != nil {
			return nil, err
		}
		on = append(on, d.Seconds())
		flight = hub.Flight.Snapshot().Total
	}
	whatifs, err := countWhatIfs(plan, warmSubs)
	if err != nil {
		return nil, err
	}
	res.detail["cluster.warm_submissions"] = nwarm

	if err := admitNS(rc, res, store); err != nil {
		return nil, err
	}
	setDecisionLayers(res, median(plain)*1e9/nsubs, float64(st.Probes)/nsubs, float64(st.Waits)/nsubs,
		float64(st.Completions)/nsubs, float64(st.GangHolds)/nsubs, float64(st.Preemptions)/nsubs, float64(whatifs)/nwarm)
	res.metrics["frame.share"] = 0
	res.metrics["obs.telemetry_ratio"] = median(on) / median(off)
	res.metrics["obs.flight_records_per_op"] = float64(flight) / nwarm
	setNoHTTP(res)
	setRuntimeLayers(res, rtBefore, rtAfter, int64(len(subs)))
	res.metrics["trace.overhead_pct"] = traceOverheadPct(traced, plain)
	return res, nil
}

// checkOutcome verifies one plan and returns the sha256 of its dispatch
// log's JSON: every gang ends exactly once in Jobs or Failed, every
// eviction is re-dispatched, and the preemption counter matches the
// evictions.
func checkOutcome(res *runResult, subs []cluster.Submission, out *cluster.Outcome) (string, error) {
	ends := make(map[string]int, len(subs))
	for _, j := range out.Jobs {
		ends[j.Gang]++
	}
	failed := make(map[string]bool, len(out.Failed))
	for _, f := range out.Failed {
		ends[f.Gang]++
		failed[f.Gang] = true
	}
	members := 0
	for _, s := range subs {
		if ends[s.Gang.Name] != 1 {
			res.fail("gang %s ends %d times in Jobs/Failed, want 1", s.Gang.Name, ends[s.Gang.Name])
			break
		}
		if !failed[s.Gang.Name] {
			members += len(s.Gang.Members)
		}
	}
	if len(ends) != len(subs) {
		res.fail("outcome reports %d gangs for %d submissions", len(ends), len(subs))
	}
	if got, want := len(out.Dispatches), members+len(out.Evictions); got != want {
		res.fail("%d dispatches, want %d members + %d evictions", got, members, len(out.Evictions))
	}
	if int(out.Stats.Preemptions) != len(out.Evictions) {
		res.fail("stats count %d preemptions for %d evictions", out.Stats.Preemptions, len(out.Evictions))
	}
	return digestJSON(out.Dispatches)
}

// countWhatIfs plans subs with the flight recorder spilling every record
// it evicts into a counter of preemption what-if records.
func countWhatIfs(plan func([]cluster.Submission) (*cluster.Outcome, time.Duration, error), subs []cluster.Submission) (int64, error) {
	hub := obs.NewHub(nil)
	counter := &kindCounter{needle: []byte(fmt.Sprintf(`"kind":%d,`, obs.FlightWhatIf))}
	hub.Flight.SetSpill(counter)
	prev := obs.SetActive(hub)
	_, _, err := plan(subs)
	obs.SetActive(prev)
	if err != nil {
		return 0, err
	}
	if err := hub.Flight.SpillErr(); err != nil {
		return 0, err
	}
	n := counter.n
	for _, r := range hub.Flight.Snapshot().Records {
		if r.Kind == obs.FlightWhatIf {
			n++
		}
	}
	return n, nil
}

// kindCounter counts spilled flight records (one JSON object per write)
// that contain needle.
type kindCounter struct {
	needle []byte
	n      int64
}

func (k *kindCounter) Write(p []byte) (int, error) {
	if bytes.Contains(p, k.needle) {
		k.n++
	}
	return len(p), nil
}
