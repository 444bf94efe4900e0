package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"time"

	"gpushare/internal/core"
	"gpushare/internal/obs"
)

func runStreamEnergy(rc *runCtx) (*runResult, error) {
	return runStream(rc, "stream-energy", core.EnergyPolicy())
}

func runStreamThroughput(rc *runCtx) (*runResult, error) {
	return runStream(rc, "stream-throughput", core.ThroughputPolicy())
}

// runStream drives core.Streamer.Ingest on a 1024-GPU fleet with
// telemetry off. The window's first streamWarm arrivals bring the fleet
// to steady occupancy once; its state is saved, and every timed pass
// restores it and ingests the remaining streamPass arrivals, so each
// pass repeats the same steady-state decisions and must end on the same
// digest as PlanOnline over the whole window.
func runStream(rc *runCtx, name string, policy core.Policy) (*runResult, error) {
	sz := rc.sizes
	res := newResult()
	gpus := sz.streamGPUs
	window := sz.streamWarm + sz.streamPass

	newScheduler := func() (*core.Scheduler, error) {
		store, err := catalogue(gpus)
		if err != nil {
			return nil, err
		}
		return core.NewScheduler(device, gpus, store, policy)
	}
	setup, err := newSetupSampler(sz.setupReps, timed(func() error {
		s, err := newScheduler()
		if err != nil {
			return err
		}
		_, err = s.NewStreamer(core.StreamConfig{})
		return err
	}))
	if err != nil {
		return nil, err
	}
	sched, err := newScheduler()
	if err != nil {
		return nil, err
	}

	arrivals, err := fleetArrivals(window, gpus, rc.seed)
	if err != nil {
		return nil, err
	}

	// Reference decisions: the batch planner over the whole window.
	plan, err := sched.PlanOnline(arrivals)
	if err != nil {
		return nil, fmt.Errorf("PlanOnline: %w", err)
	}
	ref, err := digestJSON(plan.Dispatches)
	if err != nil {
		return nil, err
	}
	checkPinned(rc, res, name, ref)
	stats := plan.Stats
	var waited float64
	for _, d := range plan.Dispatches {
		waited += d.WaitedS
	}
	n := float64(window)
	res.detail["sim_wait_mean_s"] = waited / n
	res.detail["core.probes_per_arrival"] = float64(stats.Probes) / n

	// Steady-state snapshot every pass starts from.
	warm, err := sched.NewStreamer(core.StreamConfig{})
	if err != nil {
		return nil, err
	}
	for _, a := range arrivals[:sz.streamWarm] {
		if _, err := warm.Ingest(a); err != nil {
			return nil, fmt.Errorf("warm-up ingest: %w", err)
		}
	}
	id := rc.tracer.begin("SaveState", 0, -1)
	t0 := time.Now()
	state, err := warm.SaveState()
	saveTime := time.Since(t0)
	rc.tracer.end(id)
	if err != nil {
		return nil, fmt.Errorf("SaveState: %w", err)
	}
	stateJSON, err := json.Marshal(state)
	if err != nil {
		return nil, err
	}

	input := arrivals[sz.streamWarm:]
	lat, passLat := new(hist), new(hist)
	var win windows
	var plainTimes, tracedTimes []float64
	var rtBefore, rtSum rtStats
	var rtOps int64
	var st *core.Streamer
	deadline := time.Now().Add(rc.seconds)
	for pass := 0; pass < 3 || time.Now().Before(deadline); pass++ {
		// In a traced run every other pass records spans; the passes in
		// between measure the same work untraced, for trace.overhead_pct.
		var tr *tracer
		if rc.traced && pass%2 == 1 {
			tr = rc.tracer
		}
		var saved core.StreamState
		if err := json.Unmarshal(stateJSON, &saved); err != nil {
			return nil, fmt.Errorf("stream state: %w", err)
		}
		passID := tr.begin("pass", int64(pass), -1)
		rid := tr.begin("RestoreStreamer", int64(pass), passID)
		t0 := time.Now()
		st, err = sched.RestoreStreamer(core.StreamConfig{}, &saved)
		restoreTime := time.Since(t0)
		tr.end(rid)
		if err != nil {
			return nil, fmt.Errorf("RestoreStreamer: %w", err)
		}
		if pass == 0 {
			res.detail["core.restore_ms"] = float64(restoreTime.Nanoseconds()) / 1e6
		}
		if rc.traced && tr == nil {
			rtBefore = readRuntime()
		}

		start := time.Now()
		prev := start
		var ingestErr error
		for i := range input {
			_, err := st.Ingest(input[i])
			now := time.Now()
			if err != nil {
				ingestErr = err
				break
			}
			if tr != nil {
				if (sz.streamWarm+i)%64 == 0 {
					tr.add("Ingest", int64(pass), passID, tr.since(prev), tr.since(now))
				}
			} else {
				passLat.record(now.Sub(prev))
			}
			prev = now
		}
		elapsed := prev.Sub(start)
		if rc.traced && tr == nil {
			rtSum.add(rtBefore, readRuntime())
			rtOps += int64(len(input))
		}
		res.attempted += int64(len(input))
		if err := setup.take(); err != nil {
			return nil, err
		}
		if ingestErr != nil {
			tr.end(passID)
			res.failed += int64(len(input))
			res.fail("pass %d: Ingest: %v", pass, ingestErr)
			break
		}
		fid := tr.begin("Finish", int64(pass), passID)
		digest, err := st.Finish()
		tr.end(fid)
		tr.end(passID)
		if err != nil || digest != ref {
			res.failed += int64(len(input))
			res.fail("pass %d: stream digest %s (err %v) differs from PlanOnline's %s", pass, digest, err, ref)
		}
		if tr != nil {
			tracedTimes = append(tracedTimes, elapsed.Seconds())
		} else {
			plainTimes = append(plainTimes, elapsed.Seconds())
			win.rate(float64(len(input)) / elapsed.Seconds())
			win.latency(passLat.quantile(0.5), passLat.quantile(0.99))
			lat.merge(passLat)
			*passLat = hist{}
		}
	}
	if res.metrics["setup_s"], err = setup.median(); err != nil {
		return nil, err
	}
	res.detail["passes"] = float64(len(plainTimes) + len(tracedTimes))
	res.detail["core.save_state_ms"] = float64(saveTime.Nanoseconds()) / 1e6
	res.detail["core.state_bytes"] = float64(len(stateJSON))
	fmt.Fprintf(rc.out, "ingest latency: %s\n", lat.summary())

	if !rc.traced {
		win.setEndToEnd(res)
		// Live heap with the last streamer held and the benchmark's inputs
		// dropped; the compiler keeps them live without the explicit nil.
		arrivals, input, stateJSON = nil, nil, nil
		res.metrics["mem_mib"] = liveHeapMiB()
		runtime.KeepAlive(st)
		return res, nil
	}

	// Layer split over the whole window: the decision alone against the
	// streamer with telemetry off and with a spill sink, then the streamer
	// with telemetry and the flight recorder on.
	split, err := splitWindow(rc, res, sched, arrivals)
	if err != nil {
		return nil, err
	}
	if split.ref != ref {
		res.fail("PlanOnline digest %s differs from the first run's %s", split.ref, ref)
	}
	planNS, ingestNS := split.planNS, split.ingestNS
	hub := obs.NewHub(func() int64 { return time.Now().UnixNano() })
	prevHub := obs.SetActive(hub)
	telTime, err := ingestWindow(rc, res, sched, arrivals, core.StreamConfig{}, "Ingest window (telemetry)", ref)
	obs.SetActive(prevHub)
	if err != nil {
		return nil, err
	}
	flight := hub.Flight.Snapshot().Total

	res.detail["core.plan_ns_per_arrival"] = planNS
	res.detail["core.ingest_ns_per_arrival"] = ingestNS
	res.detail["core.frame_ns_per_arrival"] = ingestNS - planNS
	res.detail["core.spill_ns_per_arrival"] = split.spillNS - ingestNS
	if err := admitNS(rc, res, sched.Profiles); err != nil {
		return nil, err
	}
	setDecisionLayers(res, planNS, float64(stats.Probes)/n, float64(stats.Waits)/n, float64(stats.Completions)/n, 0, 0, 0)
	res.metrics["frame.share"] = (ingestNS - planNS) / ingestNS
	res.metrics["obs.telemetry_ratio"] = float64(telTime.Nanoseconds()) / n / ingestNS
	res.metrics["obs.flight_records_per_op"] = float64(flight) / n
	setNoHTTP(res)
	setRuntimeLayers(res, rtStats{}, rtSum, rtOps)
	res.metrics["trace.overhead_pct"] = traceOverheadPct(tracedTimes, plainTimes)
	return res, nil
}

// windowSplit is PlanOnline against a telemetry-off streamer, without
// and with a spill sink, over the same window.
type windowSplit struct {
	planNS, ingestNS, spillNS float64 // medians per arrival
	stats                     core.DispatchStats
	ref                       string // the plan's dispatch-log digest
}

// splitWindow times PlanOnline and a telemetry-off streamer without and
// with a spill sink over the same arrivals, in turn three times so that
// all three see the same host and heap conditions. Every streamer run
// must end on the plan's digest.
func splitWindow(rc *runCtx, res *runResult, sched *core.Scheduler, arrivals []core.Arrival) (windowSplit, error) {
	var w windowSplit
	var plans, ingests, spills []float64
	for r := 0; r < 3; r++ {
		id := rc.tracer.begin("PlanOnline", int64(r), -1)
		t0 := time.Now()
		plan, err := sched.PlanOnline(arrivals)
		d := time.Since(t0)
		rc.tracer.end(id)
		if err != nil {
			return w, fmt.Errorf("PlanOnline: %w", err)
		}
		plans = append(plans, float64(d.Nanoseconds()))
		if r == 0 {
			w.stats = plan.Stats
			if w.ref, err = digestJSON(plan.Dispatches); err != nil {
				return w, err
			}
		}
		d, err = ingestWindow(rc, res, sched, arrivals, core.StreamConfig{}, "Ingest window", w.ref)
		if err != nil {
			return w, err
		}
		ingests = append(ingests, float64(d.Nanoseconds()))
		d, err = ingestWindow(rc, res, sched, arrivals, core.StreamConfig{Spill: io.Discard}, "Ingest window (spill)", w.ref)
		if err != nil {
			return w, err
		}
		spills = append(spills, float64(d.Nanoseconds()))
	}
	n := float64(len(arrivals))
	w.planNS, w.ingestNS, w.spillNS = median(plans)/n, median(ingests)/n, median(spills)/n
	return w, nil
}

// ingestWindow streams arrivals through a fresh streamer and checks its
// digest against the reference.
func ingestWindow(rc *runCtx, res *runResult, sched *core.Scheduler, arrivals []core.Arrival, cfg core.StreamConfig, span, ref string) (time.Duration, error) {
	st, err := sched.NewStreamer(cfg)
	if err != nil {
		return 0, err
	}
	id := rc.tracer.begin(span, 0, -1)
	t0 := time.Now()
	for _, a := range arrivals {
		if _, err := st.Ingest(a); err != nil {
			return 0, fmt.Errorf("%s: %w", span, err)
		}
	}
	digest, err := st.Finish()
	elapsed := time.Since(t0)
	rc.tracer.end(id)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", span, err)
	}
	if digest != ref {
		res.fail("%s: digest %s differs from PlanOnline's %s", span, digest, ref)
	}
	return elapsed, nil
}

// setDecisionLayers fills the decision.* metrics from per-op figures.
func setDecisionLayers(res *runResult, ns, probes, waits, completions, holds, preemptions, whatifs float64) {
	res.metrics["decision.ns_per_op"] = ns
	res.metrics["decision.probes_per_op"] = probes
	res.metrics["decision.waits_per_op"] = waits
	res.metrics["decision.completions_per_op"] = completions
	res.metrics["decision.holds_per_op"] = holds
	res.metrics["decision.preemptions_per_op"] = preemptions
	res.metrics["decision.whatifs_per_op"] = whatifs
	res.metrics["decision.scan_share"] = probes * res.metrics["interference.admit_ns"] / ns
}

// setNoHTTP zeroes the HTTP layer for the in-process workloads, which do
// not cross it.
func setNoHTTP(res *runResult) {
	res.metrics["http.overhead_share"] = 0
	res.metrics["http.request_bytes_per_op"] = 0
	res.metrics["http.response_bytes_per_op"] = 0
}

// traceOverheadPct compares the median traced and untraced repetition of
// the same work.
func traceOverheadPct(traced, plain []float64) float64 {
	if len(traced) == 0 || len(plain) == 0 {
		return 0
	}
	return (median(traced)/median(plain) - 1) * 100
}
