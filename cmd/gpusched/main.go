// Command gpusched runs the granularity- and interference-aware scheduler
// over a workflow queue and reports the collocation plan plus simulated
// throughput/energy metrics against sequential scheduling and baselines.
//
// The queue comes from one of:
//
//	-combo N                 a Table III combination (1-10)
//	-uniform BENCH:SIZE:NxM  N sequential tasks × M parallel workflows
//	-queue FILE.json         a JSON queue (see -queue-schema)
//
// Examples:
//
//	gpusched -combo 6 -policy energy
//	gpusched -uniform AthenaPK:4x:2x8 -policy throughput -rightsize
//	gpusched -queue queue.json -profiles profiles.json -gpus 2
//
// The serve form runs the same pipeline with telemetry enabled and then
// keeps serving /metrics, /healthz and /debug/pprof for inspection:
//
//	gpusched serve -http 127.0.0.1:8378 -combo 6
//
// The bench-online form times the fleet-scale online decision path alone
// (no simulated execution): a synthetic arrival stream is generated and
// pushed through PlanOnline, reporting dispatch throughput and admission
// statistics (see BENCH_dispatcher.json for pinned numbers):
//
//	gpusched bench-online -fleet 50000x256 -policy energy
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gpushare/internal/cluster"
	"gpushare/internal/core"
	"gpushare/internal/gpu"
	"gpushare/internal/gpusim"
	"gpushare/internal/metrics"
	"gpushare/internal/obs"
	"gpushare/internal/parallel"
	"gpushare/internal/profile"
	"gpushare/internal/recommend"
	"gpushare/internal/report"
	"gpushare/internal/trace"
	"gpushare/internal/workflow"
	"gpushare/internal/workload"
)

const queueSchema = `[
  {"name": "wf-1", "tasks": [{"benchmark": "Kripke", "size": "4x", "iterations": 11}]},
  {"name": "wf-2", "tasks": [{"benchmark": "WarpX", "size": "2x", "iterations": 8}]}
]`

type queueFileTask struct {
	Benchmark  string `json:"benchmark"`
	Size       string `json:"size"`
	Iterations int    `json:"iterations"`
}

type queueFileWorkflow struct {
	Name  string          `json:"name"`
	Tasks []queueFileTask `json:"tasks"`
}

func main() {
	var (
		comboID   = flag.Int("combo", 0, "schedule a Table III combination (1-10)")
		uniform   = flag.String("uniform", "", "uniform set BENCH:SIZE:NxM")
		queueFile = flag.String("queue", "", "JSON workflow queue file")
		schema    = flag.Bool("queue-schema", false, "print the queue JSON schema and exit")
		profiles  = flag.String("profiles", "", "profile store JSON (default: profile on the fly)")
		policyStr = flag.String("policy", "throughput", "throughput | energy | product")
		rightsize = flag.Bool("rightsize", false, "right-size MPS partitions per workflow")
		gpus      = flag.Int("gpus", 1, "GPU pool size")
		device    = flag.String("device", "A100X", "device model")
		seed      = flag.Uint64("seed", 42, "simulation seed")
		baselines = flag.Bool("baselines", false, "also run naive-FIFO and time-slicing baselines")
		recFlag   = flag.Bool("recommend", false, "print the analytic pair recommendations for the queue's tasks")
		traceDir  = flag.String("trace-dir", "", "write Chrome traces (one per collocation group, plus a combined timeline.json with telemetry spans) into this directory")
		jobs      = flag.Int("j", 0, "worker pool size for independent simulation runs (0 = GOMAXPROCS); output is identical at any value")
		htaddr    = flag.String("http", "", "serve /metrics, /healthz and /debug/pprof on this address (serve mode defaults to 127.0.0.1:8378)")
		fleet     = flag.String("fleet", "10000x64", "bench-online fleet shape WORKFLOWSxGPUS")
		arrivals  = flag.Int("arrivals", 0, "bench-online: override the workflow count from -fleet")
		stream    = flag.Bool("stream", false, "bench-online: run the bounded-memory streaming ingest path; serve: expose POST /ingest and GET /stream/state")
		flightOut = flag.String("flight-out", "", "write the flight-recorder decision trail (explain's input) to this file after the run; implies telemetry")
		flightCap = flag.Int("flight-cap", 0, "flight recorder ring capacity (0 = default 4096)")

		// bench-cluster flags.
		clusterShape = flag.String("cluster", "4x2", "bench-cluster shape NODESxGPUS")
		clusterMode  = flag.String("cluster-mode", "mixed", "node sharing mode: mps | mig | time-slice | mixed")
		discipline   = flag.String("discipline", "fair-share", "cross-tenant queue: fair-share | fifo")
		tenants      = flag.Int("tenants", 3, "bench-cluster tenant count")
		preempt      = flag.Bool("preempt", true, "enable priority preemption in bench-cluster")
		workflows    = flag.Int("workflows", 20000, "bench-cluster submission count")
	)
	// "gpusched serve ..." is the inspection form: telemetry on, HTTP
	// endpoint up, process kept alive after the run. "gpusched
	// bench-online ..." times the decision path on a synthetic fleet;
	// "gpusched bench-cluster ..." times the multi-node tenant-queue
	// planner the same way.
	args := os.Args[1:]
	if len(args) > 0 && args[0] == "explain" {
		// "gpusched explain" reads a recorded flight dump; it never runs
		// the pipeline, so it parses its own flags and exits.
		if err := runExplain(args[1:], os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	serveMode := len(args) > 0 && args[0] == "serve"
	benchMode := len(args) > 0 && args[0] == "bench-online"
	clusterBench := len(args) > 0 && args[0] == "bench-cluster"
	if serveMode || benchMode || clusterBench {
		args = args[1:]
	}
	if err := flag.CommandLine.Parse(args); err != nil {
		os.Exit(2)
	}
	if serveMode && *htaddr == "" {
		*htaddr = "127.0.0.1:8378"
	}

	if *schema {
		fmt.Println(queueSchema)
		return
	}
	spec, err := gpu.Lookup(*device)
	if err != nil {
		fatal(err)
	}

	// Telemetry: on for serve mode, an HTTP endpoint, or trace export
	// (the combined timeline wants the recorded spans); otherwise the
	// instrumentation stays on its no-op path. The wall clock is injected
	// from here — cmd/ is outside the nodeterminism analyzer scope.
	var hub *obs.Hub
	if serveMode || *htaddr != "" || *traceDir != "" || *flightOut != "" {
		hub = obs.NewHub(func() int64 { return time.Now().UnixNano() })
		if *flightCap > 0 {
			hub.Flight = obs.NewFlight(*flightCap)
		}
		obs.SetActive(hub)
	}
	// flushFlight saves the decision trail on every exit path that ran
	// scheduling work; explain reads the file back.
	flushFlight := func() {
		if *flightOut == "" {
			return
		}
		if err := writeFlightDump(*flightOut, hub); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *flightOut)
	}
	// serve -stream exposes a live dispatcher over HTTP: the endpoint is
	// built before the listener so the mux can route to it from the
	// first request. It shares the fleet archetype profile store, so
	// ingested workflows must use those benchmarks.
	var streamSrv *streamServer
	if serveMode && *stream {
		policy, err := parsePolicy(*policyStr)
		if err != nil {
			fatal(err)
		}
		streamSrv, err = newStreamServer(spec, policy, *fleet, *seed)
		if err != nil {
			fatal(err)
		}
	}
	// Streaming serve mode runs until interrupted. Its handler goes in
	// before the listener answers a first request: a process started
	// with SIGINT ignored, as a background job of a non-interactive
	// shell is, would otherwise drop an interrupt that lands between
	// the first /healthz answer and signal.Notify, and keep serving.
	var sig chan os.Signal
	if streamSrv != nil {
		sig = make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	}
	var srv *http.Server
	serveErr := make(chan error, 1)
	if *htaddr != "" {
		ln, err := net.Listen("tcp", *htaddr)
		if err != nil {
			if errors.Is(err, syscall.EADDRINUSE) {
				fatal(fmt.Errorf("cannot listen on %s: address already in use (another gpusched serving? pass a different -http address)", *htaddr))
			}
			fatal(fmt.Errorf("cannot listen on %s: %w", *htaddr, err))
		}
		fmt.Printf("telemetry on http://%s/metrics\n", ln.Addr())
		handler := http.Handler(obs.Handler(hub))
		if streamSrv != nil {
			handler = streamSrv.wrap(handler)
		}
		// No WriteTimeout: /debug/pprof/profile streams for 30 s.
		srv = &http.Server{Handler: handler, ReadHeaderTimeout: 10 * time.Second, IdleTimeout: 2 * time.Minute}
		go func() {
			// ErrServerClosed is the orderly-shutdown sentinel, not a
			// failure; anything else is surfaced on exit or, mid-run,
			// fatally.
			if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
				serveErr <- err
				return
			}
			serveErr <- nil
		}()
	}

	if benchMode {
		policy, err := parsePolicy(*policyStr)
		if err != nil {
			fatal(err)
		}
		if err := runFleetBench(spec, policy, *fleet, *seed, *arrivals, *stream); err != nil {
			fatal(err)
		}
		flushFlight()
		shutdownServer(srv, serveErr)
		return
	}
	if streamSrv != nil {
		// Streaming-ingest serve mode: no batch pipeline to run, just
		// hold the endpoints open until interrupted.
		fmt.Println("streaming ingest on POST /ingest; snapshot on GET /stream/state")
		select {
		case err := <-serveErr:
			if err != nil {
				fatal(fmt.Errorf("http server: %w", err))
			}
			fatal(fmt.Errorf("http server exited unexpectedly"))
		case s := <-sig:
			fmt.Printf("received %v; shutting down\n", s)
		}
		flushFlight()
		shutdownServer(srv, serveErr)
		return
	}
	if clusterBench {
		if err := runClusterBench(spec, *clusterShape, *clusterMode, *discipline, *tenants, *preempt, *workflows, *seed); err != nil {
			fatal(err)
		}
		flushFlight()
		shutdownServer(srv, serveErr)
		return
	}

	queue, err := buildQueue(*comboID, *uniform, *queueFile)
	if err != nil {
		fatal(err)
	}

	store, err := loadOrProfile(*profiles, queue, spec, *seed)
	if err != nil {
		fatal(err)
	}

	policy, err := parsePolicy(*policyStr)
	if err != nil {
		fatal(err)
	}
	policy.RightSizePartitions = *rightsize

	sched, err := core.NewScheduler(spec, *gpus, store, policy)
	if err != nil {
		fatal(err)
	}
	sched.Workers = *jobs
	// One session-wide cache: with -baselines the naive-FIFO and
	// time-sliced executions revisit many of the plan's configurations.
	sched.Cache = parallel.NewCache()
	if *recFlag {
		if err := printRecommendations(spec, store); err != nil {
			fatal(err)
		}
	}

	plan, err := sched.BuildPlan(queue)
	if err != nil {
		fatal(err)
	}
	printPlan(plan)

	simCfg := gpusim.Config{Device: spec, Seed: *seed, Mode: gpusim.ShareMPS}
	outcome, err := sched.Execute(plan, simCfg)
	if err != nil {
		fatal(err)
	}
	printOutcome("interference-aware MPS", outcome)

	if *baselines {
		naive, err := sched.NaiveFIFOPlan(queue, policyClientCap(policy, spec))
		if err != nil {
			fatal(err)
		}
		nOut, err := sched.Execute(naive, simCfg)
		if err != nil {
			fatal(err)
		}
		printOutcome("naive FIFO MPS", nOut)

		tsOut, err := sched.ExecuteTimeSliced(plan, simCfg)
		if err != nil {
			fatal(err)
		}
		printOutcome("time-slicing", tsOut)
	}

	// Traces are written after the baselines so the combined timeline's
	// telemetry spans cover everything the process simulated.
	if *traceDir != "" {
		if err := writeTraces(*traceDir, outcome, hub); err != nil {
			fatal(err)
		}
	}

	if serveMode {
		hub.Gauge("gpusched_run_complete").Set(1)
		fmt.Println("run complete; serving telemetry until interrupted")
		sig := make(chan os.Signal, 1)
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		select {
		case err := <-serveErr:
			// The server died out from under us; that error is the exit
			// status, not a silent drop.
			if err != nil {
				fatal(fmt.Errorf("http server: %w", err))
			}
			fatal(fmt.Errorf("http server exited unexpectedly"))
		case s := <-sig:
			fmt.Printf("received %v; shutting down\n", s)
		}
	}
	flushFlight()
	shutdownServer(srv, serveErr)
}

// shutdownServer drains the telemetry endpoint and surfaces any error
// from either the shutdown itself or the server's run. A nil srv (no
// -http flag) is a no-op.
func shutdownServer(srv *http.Server, serveErr chan error) {
	if srv == nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		// Graceful drain failed (hung handler); force-close and report
		// both outcomes rather than leaking the listener.
		if cerr := srv.Close(); cerr != nil {
			fatal(fmt.Errorf("http shutdown: %w (force close also failed: %v)", err, cerr))
		}
		fatal(fmt.Errorf("http shutdown: %w", err))
	}
	if err := <-serveErr; err != nil {
		fatal(fmt.Errorf("http server: %w", err))
	}
}

// parseShape validates an AxB shape string, shared by every flag that
// takes one (-fleet, -cluster). Sscanf-style parsing is too forgiving
// here (it accepts trailing garbage and negative counts), so the two
// fields are cut and converted explicitly.
func parseShape(flagName, form, example, shape string) (int, int, error) {
	a, b, ok := strings.Cut(shape, "x")
	if ok {
		av, aerr := strconv.Atoi(a)
		bv, berr := strconv.Atoi(b)
		if aerr == nil && berr == nil {
			if av < 1 || bv < 1 {
				return 0, 0, fmt.Errorf("%s %q: both counts must be positive", flagName, shape)
			}
			return av, bv, nil
		}
	}
	return 0, 0, fmt.Errorf("%s wants %s (e.g. %s), got %q", flagName, form, example, shape)
}

// parseFleetShape validates a -fleet WORKFLOWSxGPUS shape string.
func parseFleetShape(shape string) (workflows, gpus int, err error) {
	return parseShape("-fleet", "WORKFLOWSxGPUS", "50000x256", shape)
}

// parseClusterShape validates a -cluster NODESxGPUS shape string.
func parseClusterShape(shape string) (nodes, gpusPerNode int, err error) {
	return parseShape("-cluster", "NODESxGPUS", "8x4", shape)
}

// runFleetBench times the online decision path alone at fleet scale: a
// deterministic synthetic arrival stream through PlanOnline (or the
// streaming ingest path with -stream), no simulated execution. Wall
// timing lives here because cmd/ sits outside the nodeterminism
// analyzer scope. The dispatch-log digest is printed so plan and stream
// runs can be diffed.
func runFleetBench(spec gpu.DeviceSpec, policy core.Policy, shape string, seed uint64, arrivalCount int, stream bool) error {
	workflows, gpus, err := parseFleetShape(shape)
	if err != nil {
		return err
	}
	if arrivalCount < 0 {
		return fmt.Errorf("-arrivals must be >= 0 (0 keeps the -fleet count), got %d", arrivalCount)
	}
	if arrivalCount > 0 {
		workflows = arrivalCount
	}
	fleetSpec := core.FleetSpec{Workflows: workflows, TargetGPUs: gpus, Seed: seed}

	var (
		dispatched int
		stats      core.DispatchStats
		digest     string
		meanWait   float64
		elapsed    time.Duration
	)
	if stream {
		src, store, err := core.NewFleetSource(spec, fleetSpec)
		if err != nil {
			return err
		}
		sched, err := core.NewScheduler(spec, gpus, store, policy)
		if err != nil {
			return err
		}
		st, err := sched.NewStreamer(core.StreamConfig{})
		if err != nil {
			return err
		}
		start := time.Now()
		if _, err := st.IngestAll(src); err != nil {
			return err
		}
		digest, err = st.Finish()
		if err != nil {
			return err
		}
		elapsed = time.Since(start)
		dispatched = int(st.Events())
		stats = st.Stats()
		// The full event log is gone (ring-bounded); the mean wait comes
		// from the streamer's running total instead.
		if dispatched > 0 {
			meanWait = st.WaitedS() / float64(dispatched)
		}
	} else {
		arrivals, store, err := core.GenerateFleet(spec, fleetSpec)
		if err != nil {
			return err
		}
		sched, err := core.NewScheduler(spec, gpus, store, policy)
		if err != nil {
			return err
		}
		start := time.Now()
		plan, err := sched.PlanOnline(arrivals)
		if err != nil {
			return err
		}
		elapsed = time.Since(start)
		dispatched = len(plan.Dispatches)
		stats = plan.Stats
		meanWait = meanWaitS(plan.Dispatches)
		digest, err = dispatchDigest(plan.Dispatches)
		if err != nil {
			return err
		}
	}
	fmt.Printf("fleet %dx%d (%s policy%s): planned %d dispatches in %v (%.0f ns/arrival)\n",
		workflows, gpus, policy.Objective, map[bool]string{true: ", streamed", false: ""}[stream],
		dispatched, elapsed.Round(time.Millisecond),
		float64(elapsed.Nanoseconds())/float64(dispatched))
	fmt.Printf("  admission probes %d  index nodes visited %d  wait events %d  retirements %d  mean wait %.1fs\n",
		stats.Probes, stats.Visits, stats.Waits, stats.Completions, meanWait)
	fmt.Printf("  dispatch digest sha256:%s\n", digest)
	return nil
}

// dispatchDigest hashes the canonical JSON encoding of a dispatch log —
// the same framing the streaming path folds incrementally, so plan and
// stream digests of identical decisions are equal.
func dispatchDigest(events []core.DispatchEvent) (string, error) {
	data, err := json.Marshal(events)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}

// runClusterBench times the multi-node tenant-queue planner at fleet
// scale: a synthetic multi-tenant submission stream (gangs, priorities)
// planned over a cluster of nodes, no simulated execution. Like
// runFleetBench, wall timing lives in cmd/ outside the nodeterminism
// analyzer scope.
func runClusterBench(device gpu.DeviceSpec, shape, modeStr, disciplineStr string, tenantCount int, preempt bool, workflows int, seed uint64) error {
	nodes, gpusPerNode, err := parseClusterShape(shape)
	if err != nil {
		return err
	}
	if tenantCount < 1 {
		return fmt.Errorf("-tenants must be positive, got %d", tenantCount)
	}

	spec := cluster.Spec{Preemption: preempt}
	switch disciplineStr {
	case "fair-share":
		spec.Queue = cluster.FairShare
	case "fifo":
		spec.Queue = cluster.FIFO
	default:
		return fmt.Errorf("-discipline wants fair-share|fifo, got %q", disciplineStr)
	}
	// "mixed" cycles the three sharing modes across nodes; a concrete
	// mode makes every node homogeneous.
	modes := []cluster.Mode{cluster.ModeMPS, cluster.ModeMIG, cluster.ModeTimeSlice}
	if modeStr != "mixed" {
		m, err := cluster.ParseMode(modeStr)
		if err != nil {
			return err
		}
		modes = []cluster.Mode{m}
	}
	for n := 0; n < nodes; n++ {
		spec.Nodes = append(spec.Nodes, cluster.NodeSpec{
			Name:   fmt.Sprintf("node-%03d", n),
			Device: device,
			GPUs:   gpusPerNode,
			Mode:   modes[n%len(modes)],
		})
	}
	var tenantNames []string
	for i := 0; i < tenantCount; i++ {
		name := fmt.Sprintf("tenant-%02d", i)
		tenantNames = append(tenantNames, name)
		spec.Tenants = append(spec.Tenants, cluster.TenantSpec{Name: name, Weight: 1 + i%3})
	}

	subs, store, err := cluster.GenerateStream(device, cluster.StreamSpec{
		Fleet:          core.FleetSpec{Workflows: workflows, TargetGPUs: nodes * gpusPerNode, Seed: seed},
		Tenants:        tenantNames,
		PriorityLevels: 3,
		GangFraction:   0.15,
		GangSize:       3,
		Seed:           seed + 1,
	})
	if err != nil {
		return err
	}
	planner, err := cluster.NewPlanner(spec, store)
	if err != nil {
		return err
	}
	start := time.Now()
	out, err := planner.Plan(subs)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Printf("cluster %dx%d (%s, %s, preempt=%v): planned %d submissions in %v (%.0f ns/submission)\n",
		nodes, gpusPerNode, modeStr, disciplineStr, preempt, len(subs),
		elapsed.Round(time.Millisecond), float64(elapsed.Nanoseconds())/float64(len(subs)))
	fmt.Printf("  dispatches %d  evictions %d  failed %d  probes %d  holds %d  skipped retries %d  makespan %.0fs\n",
		len(out.Dispatches), len(out.Evictions), len(out.Failed),
		out.Stats.Probes, out.Stats.GangHolds, out.Stats.HoldSkips, out.MakespanS)
	for _, ts := range out.Tenants {
		fmt.Printf("  %-10s w%d  jobs %5d  mean wait %8.1fs  service %10.0fs  preempted %d\n",
			ts.Tenant, ts.Weight, ts.Jobs, ts.MeanWaitS, ts.ServiceS, ts.Preemptions)
	}
	return nil
}

// meanWaitS averages the queueing delay over the dispatch log.
func meanWaitS(dispatches []core.DispatchEvent) float64 {
	if len(dispatches) == 0 {
		return 0
	}
	var total float64
	for _, d := range dispatches {
		total += d.WaitedS
	}
	return total / float64(len(dispatches))
}

// policyClientCap mirrors the policy's cap for the naive baseline so the
// comparison isolates interference-awareness, not cardinality.
func policyClientCap(p core.Policy, spec gpu.DeviceSpec) int {
	switch p.Objective {
	case core.MaximizeThroughput:
		return 2
	case core.MaximizeProduct:
		return 4
	default:
		return spec.MaxMPSClients
	}
}

func buildQueue(comboID int, uniform, queueFile string) (*workflow.Queue, error) {
	selected := 0
	if comboID > 0 {
		selected++
	}
	if uniform != "" {
		selected++
	}
	if queueFile != "" {
		selected++
	}
	if selected != 1 {
		return nil, fmt.Errorf("exactly one of -combo, -uniform, -queue is required")
	}
	switch {
	case comboID > 0:
		c, err := workflow.Combo(comboID)
		if err != nil {
			return nil, err
		}
		return workflow.NewQueue(c.Workflows...)
	case uniform != "":
		parts := strings.Split(uniform, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("-uniform wants BENCH:SIZE:NxM, got %q", uniform)
		}
		var n, m int
		if _, err := fmt.Sscanf(parts[2], "%dx%d", &n, &m); err != nil {
			return nil, fmt.Errorf("-uniform config %q: %w", parts[2], err)
		}
		wfs, err := workflow.Uniform(parts[0], parts[1], n, m)
		if err != nil {
			return nil, err
		}
		return workflow.NewQueue(wfs...)
	default:
		data, err := os.ReadFile(queueFile)
		if err != nil {
			return nil, err
		}
		var raw []queueFileWorkflow
		if err := json.Unmarshal(data, &raw); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", queueFile, err)
		}
		var wfs []workflow.Workflow
		for _, rw := range raw {
			w := workflow.Workflow{Name: rw.Name}
			for _, t := range rw.Tasks {
				w.Tasks = append(w.Tasks, workflow.Task{
					Benchmark: t.Benchmark, Size: t.Size, Iterations: t.Iterations,
				})
			}
			wfs = append(wfs, w)
		}
		return workflow.NewQueue(wfs...)
	}
}

func loadOrProfile(path string, q *workflow.Queue, spec gpu.DeviceSpec, seed uint64) (*profile.Store, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return profile.LoadStore(f)
	}
	// Profile exactly the tasks the queue needs.
	pr := &profile.Profiler{Config: gpusim.Config{Device: spec, Seed: seed}}
	store := profile.NewStore()
	for _, w := range q.Items() {
		for _, t := range w.UniqueTasks() {
			wl, err := workload.Get(t.Benchmark)
			if err != nil {
				return nil, err
			}
			if _, exists := store.Get(wl.Name, t.Size); exists {
				continue
			}
			ps, err := pr.ProfileWorkload(wl, []string{t.Size})
			if err != nil {
				return nil, err
			}
			for _, p := range ps {
				if err := store.Add(p); err != nil {
					return nil, err
				}
			}
		}
	}
	return store, nil
}

func parsePolicy(s string) (core.Policy, error) {
	switch s {
	case "throughput":
		return core.ThroughputPolicy(), nil
	case "energy":
		return core.EnergyPolicy(), nil
	case "product":
		return core.ProductPolicy(metrics.EqualProduct()), nil
	default:
		return core.Policy{}, fmt.Errorf("unknown policy %q (want throughput|energy|product)", s)
	}
}

func printPlan(plan *core.Plan) {
	t := report.NewTable(fmt.Sprintf("Plan (%s policy)", plan.Policy.Objective),
		"GPU", "Wave", "Workflows", "Partitions", "Interference")
	for g, waves := range plan.PerGPU {
		for w, grp := range waves {
			parts := make([]string, len(grp.Partitions))
			for i, p := range grp.Partitions {
				parts[i] = fmt.Sprintf("%.0f%%", p*100)
			}
			t.AddRowf(g, w, strings.Join(grp.Names(), " + "),
				strings.Join(parts, ","), grp.Estimate.String())
		}
	}
	if err := t.Render(os.Stdout); err != nil {
		fatal(err)
	}
	fmt.Println()
}

func printOutcome(label string, o *core.Outcome) {
	fmt.Printf("%-24s makespan %9.1fs  energy %12.0f J  thpt %5.2fx  eff %5.2fx  capped %+5.1f pp\n",
		label, o.Sharing.MakespanS, o.Sharing.EnergyJ,
		o.Relative.Throughput, o.Relative.EnergyEfficiency, o.Relative.CappingDeltaPct)
}

// printRecommendations runs the analytic recommendation model (the
// paper's §VI future work) over the profiled tasks.
func printRecommendations(spec gpu.DeviceSpec, store *profile.Store) error {
	recs, err := recommend.Recommend(spec, store.All(), recommend.ByProduct, false)
	if err != nil {
		return err
	}
	t := report.NewTable("Recommended collocations (analytic, TxE)",
		"Rank", "Pair", "Pred thpt x", "Pred eff x", "Pred capped")
	for i, r := range recs {
		if i >= 10 {
			break
		}
		t.AddRowf(i+1, r.Key(), r.Throughput, r.EnergyEfficiency, r.PredictedCapped)
	}
	if err := t.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Println()
	return nil
}

// writeTraces saves one Chrome trace JSON per executed collocation group,
// plus timeline.json: every group's device counters and task spans joined
// with the telemetry spans (engine bursts in sim time; scheduler, cache
// and worker-pool phases in wall time) in one chrome://tracing view.
func writeTraces(dir string, outcome *core.Outcome, hub *obs.Hub) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, gr := range outcome.Groups {
		path := filepath.Join(dir, fmt.Sprintf("gpu%d-wave%d.json", gr.GPU, gr.Wave))
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		err = trace.WriteChrome(f, gr.Result)
		cerr := f.Close()
		if err != nil {
			return err
		}
		if cerr != nil {
			return cerr
		}
		fmt.Printf("wrote %s\n", path)
	}

	path := filepath.Join(dir, "timeline.json")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	tw := trace.NewWriter(f)
	for i, gr := range outcome.Groups {
		if err := tw.Result(gr.Result, trace.PidResultBase+2*i,
			fmt.Sprintf("gpu%d-wave%d", gr.GPU, gr.Wave)); err != nil {
			break
		}
	}
	if hub != nil {
		tw.Spans(hub.Spans.Snapshot(), trace.PidObsSim, trace.PidObsWall)
	}
	err = tw.Close()
	cerr := f.Close()
	if err != nil {
		return err
	}
	if cerr != nil {
		return cerr
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gpusched:", err)
	os.Exit(1)
}
