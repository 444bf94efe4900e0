// Command bench measures gpushare's decision plane on the paths a user
// drives: core.Streamer.Ingest under the energy and the throughput
// policy, cluster.Planner.Plan, and `gpusched serve -stream` over HTTP.
// Each run prints every end-to-end metric by name with its unit, checks
// the outputs against reference digests, and ends with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 1 it instead splits each workload across its layers by
// timing calls into each layer's public functions from this package, and
// writes the spans as a Chrome trace. See README.md for the workloads,
// the metrics and how to compare two commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricSpec names one reported metric; the lists below match
// BENCHMARK.json (pinned by TestMetricsMatchBenchmarkJSON).
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p99_us", "us"},
	{"mem_mib", "MiB"},
}

var perLayer = []metricSpec{
	{"decision.ns_per_op", "ns"},
	{"decision.probes_per_op", "count"},
	{"decision.waits_per_op", "count"},
	{"decision.completions_per_op", "count"},
	{"decision.holds_per_op", "count"},
	{"decision.preemptions_per_op", "count"},
	{"decision.whatifs_per_op", "count"},
	{"decision.scan_share", "ratio"},
	{"interference.admit_ns", "ns"},
	{"frame.share", "ratio"},
	{"obs.telemetry_ratio", "ratio"},
	{"obs.flight_records_per_op", "count"},
	{"http.overhead_share", "ratio"},
	{"http.request_bytes_per_op", "B"},
	{"http.response_bytes_per_op", "B"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"trace.overhead_pct", "%"},
}

// workloads in the order `--workload all` runs them.
var workloads = []struct {
	name string
	run  func(*runCtx) (*runResult, error)
}{
	{"stream-energy", runStreamEnergy},
	{"stream-throughput", runStreamThroughput},
	{"cluster-mixed", runCluster},
	{"serve-http", runServe},
}

// runCtx is what every workload receives.
type runCtx struct {
	seed     uint64
	seconds  time.Duration
	traced   bool
	tracer   *tracer
	sizes    sizes
	gpusched string
	out      io.Writer // human-readable report
}

// runResult is one workload run's outcome.
type runResult struct {
	attempted, failed int64
	// problems lists every failed correctness check; any problem makes
	// the run incorrect.
	problems []string
	// metrics holds the end-to-end metrics (untraced) or the per-layer
	// metrics (traced); detail holds further numbers the report prints
	// and the result file keeps.
	metrics map[string]float64
	detail  map[string]float64
}

func newResult() *runResult {
	return &runResult{metrics: map[string]float64{}, detail: map[string]float64{}}
}

// fail records a failed check.
func (r *runResult) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the run's final stdout line, the one tools read.
type line struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run in a --out results file (JSON lines).
type record struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Seconds   int                    `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	Detail    map[string]float64     `json:"detail,omitempty"`
	Problems  []string               `json:"problems,omitempty"`
	GoVersion string                 `json:"go"`
	NumCPU    int                    `json:"nproc"`
	Started   string                 `json:"started"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	workload := fs.String("workload", "", "workload to run: "+strings.Join(names, " | ")+" | all")
	seed := fs.Uint64("seed", 42, "input seed (42 is the pinned default; 7 is held out for claims)")
	seconds := fs.Int("seconds", 15, "seconds each workload measures")
	trace := fs.Int("trace", 0, "1: traced run reporting per-layer metrics instead of end-to-end ones")
	outPath := fs.String("out", "", "append each run's result as one JSON line to this file")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "directory for the Chrome traces of --trace 1")
	gpusched := fs.String("gpusched", ".bench_build/bin/gpusched", "gpusched binary serve-http starts")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "bench: --seconds must be >= 1, --trace 0 or 1, and no positional arguments")
		return 2
	}
	var selected []int
	for i, w := range workloads {
		if *workload == "all" || *workload == w.name {
			selected = append(selected, i)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(stderr, "bench: unknown --workload %q\n", *workload)
		return 2
	}
	for _, i := range selected {
		w := workloads[i]
		rc := &runCtx{
			seed:     *seed,
			seconds:  time.Duration(*seconds) * time.Second,
			traced:   *trace == 1,
			sizes:    fullSizes,
			gpusched: *gpusched,
			out:      stdout,
		}
		if rc.traced {
			rc.tracer = newTracer(w.name, 1<<18)
		}
		started := time.Now().UTC().Format(time.RFC3339)
		fmt.Fprintf(stdout, "== %s  seed %d  %ds  trace %d  (%s, GOMAXPROCS %d, %d CPUs)\n",
			w.name, *seed, *seconds, *trace, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
		res, err := w.run(rc)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		if rc.traced {
			rc.tracer.report(stdout)
			path := filepath.Join(*traceDir, fmt.Sprintf("%s-seed%d.json", w.name, *seed))
			if err := rc.tracer.writeChrome(path); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "trace written to %s\n", path)
		}
		specs := endToEnd
		if rc.traced {
			specs = perLayer
		}
		l, err := finalLine(res, specs)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		printReport(stdout, res, specs)
		if *outPath != "" {
			rec := record{
				Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: rc.traced,
				Correct: l.Correct, Attempted: l.Attempted, Failed: l.Failed,
				Metrics: l.Metrics, Detail: res.detail, Problems: res.problems,
				GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), Started: started,
			}
			if err := appendJSONLine(*outPath, rec); err != nil {
				fmt.Fprintf(stderr, "bench: %v\n", err)
				return 1
			}
		}
		data, err := json.Marshal(l)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Fprintln(stdout, string(data))
	}
	return 0
}

// finalLine builds the final line from a workload's result; every
// metric in specs must be present.
func finalLine(res *runResult, specs []metricSpec) (line, error) {
	l := line{
		Correct:   len(res.problems) == 0 && res.failed == 0 && res.attempted > 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, s := range specs {
		v, ok := res.metrics[s.name]
		if !ok {
			return l, fmt.Errorf("metric %s was not measured", s.name)
		}
		l.Metrics[s.name] = metricValue{Value: v, Unit: s.unit}
	}
	return l, nil
}

func printReport(w io.Writer, res *runResult, specs []metricSpec) {
	for _, p := range res.problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	if len(res.detail) > 0 {
		keys := make([]string, 0, len(res.detail))
		for k := range res.detail {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintln(w, "detail:")
		for _, k := range keys {
			fmt.Fprintf(w, "  %-40s %.6g\n", k, res.detail[k])
		}
	}
	fmt.Fprintf(w, "ops attempted %d, failed %d\n", res.attempted, res.failed)
	for _, s := range specs {
		fmt.Fprintf(w, "  %-30s %14.6g %s\n", s.name, res.metrics[s.name], s.unit)
	}
}

func appendJSONLine(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(data, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("append %s: %w", path, err)
	}
	return f.Close()
}
