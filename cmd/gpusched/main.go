// Command gpusched runs the granularity- and interference-aware scheduler
// over a workflow queue and reports the collocation plan plus simulated
// throughput/energy metrics against sequential scheduling and baselines.
// Each form reads only its own flags; any other flag, a stray argument
// or an unknown subcommand is an error.
//
//	gpusched [queue flags] [-queue-schema]   schedule and simulate a queue
//	gpusched serve [queue flags]             ...then serve /metrics, /healthz
//	                                         and /debug/pprof until interrupted
//	gpusched serve -stream [-fleet WxG] [-policy P]
//	        a live online dispatcher: POST /ingest, GET /stream/state
//	gpusched bench-online [-fleet WxG] [-policy P] [-stream]
//	        time the online decision path alone on a synthetic fleet
//	gpusched bench-cluster [-cluster NxG] [-cluster-mode M] [-discipline D]
//	        [-tenants N] [-preempt] [-workflows N]
//	        time the multi-node tenant-queue planner
//	gpusched explain -flight FILE [-seq N] [-tenant T] [-last N]
//	        query a recorded decision trail
//
// Every form but explain also takes -device, -seed, -http ADDR (serve
// defaults to 127.0.0.1:8378), -flight-out FILE and -flight-cap N. The
// queue flags are -policy, -profiles, -rightsize, -gpus, -baselines,
// -recommend, -trace-dir, -j, and exactly one of
//
//	-combo N                 a Table III combination (1-10)
//	-uniform BENCH:SIZE:NxM  N sequential tasks × M parallel workflows
//	-queue FILE.json         a JSON queue (see -queue-schema)
//
// for example `gpusched -uniform AthenaPK:4x:2x8 -policy energy -rightsize`.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
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

func main() {
	if err := command(os.Args[1:]); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "gpusched:", err)
		os.Exit(1)
	}
}

// forms maps each subcommand to the form it runs.
var forms = map[string]func(args []string) error{
	"serve":         serve,
	"bench-online":  benchOnline,
	"bench-cluster": benchCluster,
	"explain":       func(args []string) error { return runExplain(args, os.Stdout) },
}

// command runs a command line: the run form when it is empty or starts
// with a flag, else the form its subcommand names.
func command(args []string) error {
	if len(args) == 0 || strings.HasPrefix(args[0], "-") {
		return runQueue(args)
	}
	form, ok := forms[args[0]]
	if !ok {
		return fmt.Errorf("unknown subcommand %q (want serve, bench-online, bench-cluster or explain)", args[0])
	}
	return form(args[1:])
}

// session is what every form but explain shares: the flags they all
// read, and through run the lifecycle around the form's body.
type session struct {
	fs        *flag.FlagSet
	spec      gpu.DeviceSpec
	seed      uint64
	addr      string
	flightOut string
	flightCap int
	serve     bool     // keep serving after the body until SIGINT or SIGTERM
	traceDir  string   // -trace-dir, registered by the queue forms
	hub       *obs.Hub // set by run; nil while telemetry is off
}

// newSession starts a form's flag set with the shared flags.
func newSession(name, defaultAddr string) *session {
	s := &session{fs: flag.NewFlagSet(name, flag.ContinueOnError), spec: gpu.MustLookup("A100X")}
	s.fs.Func("device", "device `model` (default A100X)", func(v string) (err error) {
		s.spec, err = gpu.Lookup(v)
		return err
	})
	s.fs.Uint64Var(&s.seed, "seed", 42, "simulation seed")
	s.fs.StringVar(&s.addr, "http", defaultAddr, "serve /metrics, /healthz and /debug/pprof on this address")
	s.fs.StringVar(&s.flightOut, "flight-out", "", "write the flight-recorder decision trail (explain's input) to this file after the run; implies telemetry")
	s.fs.IntVar(&s.flightCap, "flight-cap", 0, "flight recorder ring capacity (0 = default 4096)")
	return s
}

// parse parses args, refusing a positional argument and a negative -flight-cap.
func (s *session) parse(args []string) error {
	if err := s.fs.Parse(args); err != nil {
		return err
	}
	if s.fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", s.fs.Arg(0))
	}
	if s.flightCap < 0 {
		return fmt.Errorf("-flight-cap must be >= 0 (0 keeps the default), got %d", s.flightCap)
	}
	return nil
}

// policyFlag registers -policy, checked as it is parsed.
func policyFlag(fs *flag.FlagSet) *core.Policy {
	policy := core.ThroughputPolicy()
	fs.Func("policy", "scheduling `objective`: throughput | energy | product (default throughput)", func(v string) (err error) {
		policy, err = parsePolicy(v)
		return err
	})
	return &policy
}

// run gives a form's body the shared lifecycle: it turns telemetry on
// when something reads it, serves -http (through route, if set), runs
// body, under serve waits for SIGINT or SIGTERM, then writes the flight
// dump and shuts the server down.
func (s *session) run(route func(http.Handler) (http.Handler, error), body func() error) (err error) {
	// Telemetry stays on its no-op path unless an endpoint, a flight dump
	// or a trace export (its timeline wants the spans) reads it. The wall
	// clock is injected from here — cmd/ is outside nodeterminism's scope.
	if s.addr != "" || s.flightOut != "" || s.traceDir != "" {
		s.hub = obs.NewHub(func() int64 { return time.Now().UnixNano() })
		if s.flightCap > 0 {
			s.hub.Flight = obs.NewFlight(s.flightCap)
		}
		prev := obs.SetActive(s.hub)
		defer obs.SetActive(prev)
	}
	// A serving process installs its signal handler before the listener
	// answers a first request: a process started with SIGINT ignored, as
	// a background job of a non-interactive shell is, would otherwise
	// drop an interrupt that lands between the first /healthz answer and
	// signal.Notify, and keep serving.
	sig := make(chan os.Signal, 1)
	if s.serve {
		signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
		defer signal.Stop(sig)
	}
	// served carries the error of a server that failed, then is closed.
	served := make(chan error, 1)
	if s.addr != "" {
		handler := http.Handler(obs.Handler(s.hub))
		if route != nil {
			if handler, err = route(handler); err != nil {
				return err
			}
		}
		ln, err := net.Listen("tcp", s.addr)
		if err != nil {
			if errors.Is(err, syscall.EADDRINUSE) {
				return fmt.Errorf("cannot listen on %s: address already in use (another gpusched serving? pass a different -http address)", s.addr)
			}
			return fmt.Errorf("cannot listen on %s: %w", s.addr, err)
		}
		fmt.Printf("telemetry on http://%s/metrics\n", ln.Addr())
		srv := httpServer(handler)
		go func() {
			// ErrServerClosed is the orderly-shutdown sentinel, not a failure.
			if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
				served <- err
			}
			close(served)
		}()
		defer func() {
			if serr := shutdownServer(srv, served); err == nil {
				err = serr
			}
		}()
	}

	if err := body(); err != nil {
		return err
	}
	if s.serve {
		select {
		case err := <-served:
			return fmt.Errorf("http server: %w", err)
		case got := <-sig:
			fmt.Printf("received %v; shutting down\n", got)
		}
	}
	// The decision trail is saved on every exit that ran the form's work;
	// explain reads the file back.
	if s.flightOut != "" {
		return writeFlightDump(s.flightOut, s.hub)
	}
	return nil
}

// readTimeout bounds how long a client may take to send one request,
// body included, so a stalled /ingest upload cannot hold its connection
// open. It also ends a request's context, which cuts a
// /debug/pprof/profile asking for more seconds than this.
const readTimeout = time.Minute

// httpServer is the server -http runs. No WriteTimeout:
// /debug/pprof/profile streams for 30 s by default.
func httpServer(h http.Handler) *http.Server {
	return &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second, ReadTimeout: readTimeout, IdleTimeout: 2 * time.Minute}
}

// shutdownServer drains the telemetry endpoint and reports an error from
// either the shutdown itself or the server's run.
func shutdownServer(srv *http.Server, served <-chan error) error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		// Graceful drain failed (hung handler); force-close and report
		// both outcomes rather than leaking the listener.
		if cerr := srv.Close(); cerr != nil {
			return fmt.Errorf("http shutdown: %w (force close also failed: %v)", err, cerr)
		}
		return fmt.Errorf("http shutdown: %w", err)
	}
	if err := <-served; err != nil {
		return fmt.Errorf("http server: %w", err)
	}
	return nil
}

// queueFlags registers the batch pipeline's flags, read by the run form
// and by serve without -stream, and returns the pipeline: schedule and
// simulate the queue, then the baselines, then write the traces.
func queueFlags(s *session, policy *core.Policy) func() error {
	comboID := s.fs.Int("combo", 0, "schedule a Table III combination (1-10)")
	uniform := s.fs.String("uniform", "", "uniform set BENCH:SIZE:NxM")
	queueFile := s.fs.String("queue", "", "JSON workflow queue file")
	profiles := s.fs.String("profiles", "", "profile store JSON (default: profile on the fly)")
	rightsize := s.fs.Bool("rightsize", false, "right-size MPS partitions per workflow")
	gpus := s.fs.Int("gpus", 1, "GPU pool size")
	baselines := s.fs.Bool("baselines", false, "also run naive-FIFO and time-slicing baselines")
	recFlag := s.fs.Bool("recommend", false, "print the analytic pair recommendations for the queue's tasks")
	s.fs.StringVar(&s.traceDir, "trace-dir", "", "write Chrome traces (one per collocation group, plus a combined timeline.json with telemetry spans) into this directory")
	jobs := s.fs.Int("j", 0, "worker pool size for independent simulation runs (0 = GOMAXPROCS); output is identical at any value")
	return func() error {
		queue, err := buildQueue(*comboID, *uniform, *queueFile)
		if err != nil {
			return err
		}
		store, err := loadOrProfile(*profiles, queue, s.spec, s.seed)
		if err != nil {
			return err
		}
		policy := *policy
		policy.RightSizePartitions = *rightsize
		sched, err := core.NewScheduler(s.spec, *gpus, store, policy)
		if err != nil {
			return err
		}
		sched.Workers = *jobs
		// One session-wide cache: with -baselines the naive-FIFO and
		// time-sliced executions revisit many of the plan's configurations.
		sched.Cache = parallel.NewCache()
		if *recFlag {
			if err := printRecommendations(s.spec, store); err != nil {
				return err
			}
		}

		plan, err := sched.BuildPlan(queue)
		if err != nil {
			return err
		}
		if err := printPlan(plan); err != nil {
			return err
		}

		simCfg := gpusim.Config{Device: s.spec, Seed: s.seed, Mode: gpusim.ShareMPS}
		outcome, err := sched.Execute(plan, simCfg)
		if err != nil {
			return err
		}
		printOutcome("interference-aware MPS", outcome)

		if *baselines {
			// The naive baseline gets the policy's client cap, so the
			// comparison isolates interference-awareness, not cardinality.
			naive, err := sched.NaiveFIFOPlan(queue, policy.ClientCap(s.spec.MaxMPSClients))
			if err != nil {
				return err
			}
			nOut, err := sched.Execute(naive, simCfg)
			if err != nil {
				return err
			}
			printOutcome("naive FIFO MPS", nOut)

			tsOut, err := sched.ExecuteTimeSliced(plan, simCfg)
			if err != nil {
				return err
			}
			printOutcome("time-slicing", tsOut)
		}

		// Traces are written after the baselines so the combined timeline's
		// telemetry spans cover everything the process simulated.
		if s.traceDir != "" {
			if err := writeTraces(s.traceDir, outcome, s.hub); err != nil {
				return err
			}
		}
		if s.serve {
			s.hub.Gauge("gpusched_run_complete").Set(1)
			fmt.Println("run complete; serving telemetry until interrupted")
		}
		return nil
	}
}

// runQueue is the run form: schedule and simulate one queue.
func runQueue(args []string) error {
	s := newSession("gpusched", "")
	policy := policyFlag(s.fs)
	pipeline := queueFlags(s, policy)
	schema := s.fs.Bool("queue-schema", false, "print the queue JSON schema and exit")
	if err := s.parse(args); err != nil {
		return err
	}
	if *schema {
		fmt.Println(queueSchema)
		return nil
	}
	return s.run(nil, pipeline)
}

// serve runs a queue as the run form does and keeps serving, or with
// -stream serves a live dispatcher and runs no queue.
func serve(args []string) error {
	s := newSession("serve", "127.0.0.1:8378")
	policy := policyFlag(s.fs)
	pipeline := queueFlags(s, policy)
	stream := s.fs.Bool("stream", false, "serve a live online dispatcher (POST /ingest, GET /stream/state) instead of running a queue")
	fleet := s.fs.String("fleet", "10000x64", "with -stream, the fleet shape WORKFLOWSxGPUS whose GPU count is served")
	if err := s.parse(args); err != nil {
		return err
	}
	// -stream runs no queue, and only -stream sizes a fleet.
	queue := &session{fs: flag.NewFlagSet("", flag.ContinueOnError)}
	queueFlags(queue, policy)
	var unread []string
	s.fs.Visit(func(f *flag.Flag) {
		if (*stream && queue.fs.Lookup(f.Name) != nil) || (!*stream && f.Name == "fleet") {
			unread = append(unread, "-"+f.Name)
		}
	})
	if len(unread) > 0 {
		return fmt.Errorf("serve -stream=%v does not read %s", *stream, strings.Join(unread, " "))
	}
	if s.addr == "" {
		return errors.New("serve needs an -http address")
	}
	s.serve = true
	if !*stream {
		return s.run(nil, pipeline)
	}
	// The stream endpoint is built before the listener, so the mux routes
	// to it from the first request. It shares the fleet archetype profile
	// store, so ingested workflows must use those benchmarks.
	route := func(telemetry http.Handler) (http.Handler, error) {
		ss, err := newStreamServer(s.spec, *policy, *fleet, s.seed)
		if err != nil {
			return nil, err
		}
		return ss.wrap(telemetry), nil
	}
	return s.run(route, func() error {
		fmt.Println("streaming ingest on POST /ingest; snapshot on GET /stream/state")
		return nil
	})
}

// benchOnline times the online decision path on a synthetic fleet.
func benchOnline(args []string) error {
	s := newSession("bench-online", "")
	fleet := s.fs.String("fleet", "10000x64", "fleet shape WORKFLOWSxGPUS")
	policy := policyFlag(s.fs)
	stream := s.fs.Bool("stream", false, "run the bounded-memory streaming ingest path")
	if err := s.parse(args); err != nil {
		return err
	}
	return s.run(nil, func() error { return runFleetBench(s.spec, *policy, *fleet, s.seed, *stream) })
}

// benchCluster times the multi-node tenant-queue planner.
func benchCluster(args []string) error {
	s := newSession("bench-cluster", "")
	shape := s.fs.String("cluster", "4x2", "cluster shape NODESxGPUS")
	mode := s.fs.String("cluster-mode", "mixed", "node sharing mode: mps | mig | time-slice | mixed")
	discipline := s.fs.String("discipline", "fair-share", "cross-tenant queue: fair-share | fifo")
	tenants := s.fs.Int("tenants", 3, "tenant count")
	preempt := s.fs.Bool("preempt", true, "enable priority preemption")
	workflows := s.fs.Int("workflows", 20000, "submission count")
	if err := s.parse(args); err != nil {
		return err
	}
	return s.run(nil, func() error {
		return runClusterBench(s.spec, *shape, *mode, *discipline, *tenants, *preempt, *workflows, s.seed)
	})
}

// parseShape validates an AxB shape string, shared by every flag that
// takes one (-fleet, -cluster, -uniform). Sscanf-style parsing is too forgiving
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
func runFleetBench(spec gpu.DeviceSpec, policy core.Policy, shape string, seed uint64, stream bool) error {
	workflows, gpus, err := parseFleetShape(shape)
	if err != nil {
		return err
	}
	fleetSpec := core.FleetSpec{Workflows: workflows, TargetGPUs: gpus, Seed: seed}

	var (
		dispatched int
		stats      core.DispatchStats
		digest     string
		waitedS    float64 // total queueing delay
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
		waitedS = st.WaitedS()
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
		for _, d := range plan.Dispatches {
			waitedS += d.WaitedS
		}
		// json.Marshal of the log is the framing the streaming path folds
		// incrementally, so plan and stream digests of identical decisions
		// are equal.
		data, err := json.Marshal(plan.Dispatches)
		if err != nil {
			return err
		}
		sum := sha256.Sum256(data)
		digest = hex.EncodeToString(sum[:])
	}
	fmt.Printf("fleet %dx%d (%s policy%s): planned %d dispatches in %v (%.0f ns/arrival)\n",
		workflows, gpus, policy.Objective, map[bool]string{true: ", streamed", false: ""}[stream],
		dispatched, elapsed.Round(time.Millisecond),
		float64(elapsed.Nanoseconds())/float64(dispatched))
	fmt.Printf("  admission probes %d  index nodes visited %d  wait events %d  retirements %d  mean wait %.1fs\n",
		stats.Probes, stats.Visits, stats.Waits, stats.Completions, waitedS/float64(dispatched))
	fmt.Printf("  dispatch digest sha256:%s\n", digest)
	return nil
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
	fmt.Printf("  dispatches %d  evictions %d  failed %d  probes %d  what-ifs %d  holds %d  skipped retries %d  makespan %.0fs\n",
		len(out.Dispatches), len(out.Evictions), len(out.Failed),
		out.Stats.Probes, out.Stats.WhatIfs, out.Stats.GangHolds, out.Stats.HoldSkips, out.MakespanS)
	for _, ts := range out.Tenants {
		fmt.Printf("  %-10s w%d  jobs %5d  mean wait %8.1fs  service %10.0fs  preempted %d\n",
			ts.Tenant, ts.Weight, ts.Jobs, ts.MeanWaitS, ts.ServiceS, ts.Preemptions)
	}
	return nil
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
		n, m, err := parseShape("-uniform", "NxM", "2x8", parts[2])
		if err != nil {
			return nil, err
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
		// The schema's keys are workflow.Workflow's and workflow.Task's
		// field names, which encoding/json matches case-insensitively.
		var wfs []workflow.Workflow
		if err := json.Unmarshal(data, &wfs); err != nil {
			return nil, fmt.Errorf("parsing %s: %w", queueFile, err)
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

func printPlan(plan *core.Plan) error {
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
		return err
	}
	fmt.Println()
	return nil
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
		if err := writeFile(path, func(w io.Writer) error { return trace.WriteChrome(w, gr.Result) }); err != nil {
			return err
		}
	}
	return writeFile(filepath.Join(dir, "timeline.json"), func(w io.Writer) error {
		tw := trace.NewWriter(w)
		for i, gr := range outcome.Groups {
			if err := tw.Result(gr.Result, trace.PidResultBase+2*i,
				fmt.Sprintf("gpu%d-wave%d", gr.GPU, gr.Wave)); err != nil {
				break
			}
		}
		if hub != nil {
			tw.Spans(hub.Spans.Snapshot(), trace.PidObsSim, trace.PidObsWall)
		}
		return tw.Close()
	})
}

// writeFile creates path, fills it with write and reports it written.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		fmt.Printf("wrote %s\n", path)
	}
	return err
}
