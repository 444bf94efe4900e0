package main

import (
	"errors"
	"flag"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"gpushare/internal/core"
	"gpushare/internal/gpu"
)

func TestParsePolicy(t *testing.T) {
	cases := map[string]core.Objective{
		"throughput": core.MaximizeThroughput,
		"energy":     core.MaximizeEnergyEfficiency,
		"product":    core.MaximizeProduct,
	}
	for in, want := range cases {
		p, err := parsePolicy(in)
		if err != nil || p.Objective != want {
			t.Errorf("parsePolicy(%q) = %v, %v", in, p.Objective, err)
		}
	}
	if _, err := parsePolicy("fastest"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

func TestBuildQueueSelectors(t *testing.T) {
	// Exactly one selector is required.
	if _, err := buildQueue(0, "", ""); err == nil {
		t.Fatal("no selector accepted")
	}
	if _, err := buildQueue(1, "AthenaPK:4x:2x2", ""); err == nil {
		t.Fatal("two selectors accepted")
	}

	q, err := buildQueue(6, "", "")
	if err != nil {
		t.Fatal(err)
	}
	if q.Len() != 2 {
		t.Fatalf("combo 6 queue length = %d", q.Len())
	}

	q, err = buildQueue(0, "AthenaPK:4x:2x3", "")
	if err != nil {
		t.Fatal(err)
	}
	if q.Len() != 3 {
		t.Fatalf("uniform queue length = %d", q.Len())
	}
	if _, err := buildQueue(0, "AthenaPK:4x", ""); err == nil {
		t.Fatal("malformed uniform spec accepted")
	}
	for _, nxm := range []string{"banana", "2x8junk", "2x8x9"} {
		if _, err := buildQueue(0, "AthenaPK:4x:"+nxm, ""); err == nil {
			t.Fatalf("malformed NxM %q accepted", nxm)
		}
	}
	if _, err := buildQueue(99, "", ""); err == nil {
		t.Fatal("out-of-range combo accepted")
	}
}

func TestBuildQueueFromFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "queue.json")
	content := `[
	  {"name": "wf-1", "tasks": [{"benchmark": "Kripke", "size": "1x", "iterations": 2}]},
	  {"name": "wf-2", "tasks": [{"benchmark": "MHD", "size": "1x", "iterations": 1}]}
	]`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	q, err := buildQueue(0, "", path)
	if err != nil {
		t.Fatal(err)
	}
	if q.Len() != 2 {
		t.Fatalf("queue length = %d", q.Len())
	}
	items := q.Items()
	if items[0].Name != "wf-1" || items[0].Tasks[0].Iterations != 2 {
		t.Fatalf("parsed queue wrong: %+v", items)
	}

	bad := filepath.Join(dir, "bad.json")
	os.WriteFile(bad, []byte("{not json"), 0o644)
	if _, err := buildQueue(0, "", bad); err == nil {
		t.Fatal("bad JSON accepted")
	}
	if _, err := buildQueue(0, "", filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing file accepted")
	}
	// Invalid workflow content (unknown benchmark).
	unknown := filepath.Join(dir, "unknown.json")
	os.WriteFile(unknown, []byte(`[{"name":"x","tasks":[{"benchmark":"Nope","size":"1x","iterations":1}]}]`), 0o644)
	if _, err := buildQueue(0, "", unknown); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

func TestLoadOrProfileOnTheFly(t *testing.T) {
	spec := gpu.MustLookup("A100X")
	q, err := buildQueue(0, "Kripke:1x:1x2", "")
	if err != nil {
		t.Fatal(err)
	}
	store, err := loadOrProfile("", q, spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Get("Kripke", "1x"); !ok {
		t.Fatal("on-the-fly profiling missed the queue's task")
	}
	if store.Len() != 1 {
		t.Fatalf("store has %d profiles, want 1 (deduplicated)", store.Len())
	}
}

// TestFormsRefuseWhatTheyDoNotRead pins each form to its own flag set:
// a flag the form does not read, a stray argument, an unknown
// subcommand and a flag combination serve cannot honour are errors
// naming the offender, and nothing runs.
func TestFormsRefuseWhatTheyDoNotRead(t *testing.T) {
	traceDir := filepath.Join(t.TempDir(), "tr")
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-fleet", "10x2", "-combo", "6"}, "-fleet"},
		{[]string{"-combo", "6", "-stream"}, "-stream"},
		{[]string{"-combo", "6", "-workflows", "5"}, "-workflows"},
		{[]string{"-combo", "6", "extra"}, `unexpected argument "extra"`},
		{[]string{"-policy", "fastest", "-combo", "6"}, "fastest"},
		{[]string{"-device", "H900", "-combo", "6"}, "H900"},
		{[]string{"bogus", "-combo", "6"}, `unknown subcommand "bogus"`},
		{[]string{"serve", "-combo", "6", "-workflows", "5"}, "-workflows"},
		{[]string{"serve", "-queue-schema"}, "-queue-schema"},
		{[]string{"serve", "-stream", "-combo", "6"}, "-combo"},
		{[]string{"serve", "-stream", "-trace-dir", traceDir}, "-trace-dir"},
		{[]string{"serve", "-combo", "6", "-fleet", "1x4"}, "-fleet"},
		{[]string{"serve", "-stream", "-http", ""}, "-http"},
		{[]string{"bench-online", "-fleet", "2000x16", "-workflows", "5", "-cluster", "9x9", "-discipline", "fifo"}, "-workflows"},
		{[]string{"bench-online", "-fleet", "20x2", "-combo", "6"}, "-combo"},
		{[]string{"bench-online", "-fleet", "20x2", "-trace-dir", traceDir}, "-trace-dir"},
		{[]string{"bench-online", "-arrivals", "500", "-fleet", "2000x16"}, "-arrivals"},
		{[]string{"bench-online", "-fleet", "20x2", "-flight-cap", "-1"}, "-flight-cap"},
		{[]string{"bench-online", "-fleet", "20x2", "extra"}, `unexpected argument "extra"`},
		{[]string{"bench-cluster", "-cluster", "2x2", "-policy", "energy"}, "-policy"},
		{[]string{"bench-cluster", "-cluster", "2x2", "-fleet", "10x2"}, "-fleet"},
		{[]string{"bench-cluster", "-cluster", "2x2", "-stream"}, "-stream"},
		{[]string{"explain", "-flight", "f.json", "-seed", "1"}, "-seed"},
	} {
		err := command(c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("gpusched %s: err = %v, want one naming %s", strings.Join(c.args, " "), err, c.want)
		}
	}
	if _, err := os.Stat(traceDir); !os.IsNotExist(err) {
		t.Fatalf("a refused command wrote %s (stat: %v)", traceDir, err)
	}
	if err := command([]string{"bench-online", "-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("bench-online -h: err = %v, want flag.ErrHelp", err)
	}
}

// TestFormsRunTheirFlags runs each form in-process with every flag it
// reads set: serve until an interrupt, the benches and explain to the
// end, and the run form through -queue-schema, which parses the rest
// and prints the schema instead of running.
func TestFormsRunTheirFlags(t *testing.T) {
	dir := t.TempDir()
	flight := filepath.Join(dir, "flight.json")
	common := func(addr, out string) []string {
		return []string{"-device", "A100X", "-seed", "3", "-http", addr, "-flight-out", out, "-flight-cap", "64"}
	}
	queue := []string{"-profiles=", "-policy", "energy", "-rightsize", "-gpus", "2", "-baselines",
		"-recommend", "-trace-dir", filepath.Join(dir, "traces"), "-j", "1"}
	for _, args := range [][]string{
		append([]string{"-combo", "6", "-uniform", "Kripke:1x:1x2", "-queue", "q.json", "-queue-schema"},
			append(queue, common("", filepath.Join(dir, "unused.json"))...)...),
		append([]string{"bench-online", "-fleet", "20x2", "-policy", "energy", "-stream"}, common("127.0.0.1:0", flight)...),
		append([]string{"bench-cluster", "-cluster", "2x2", "-cluster-mode", "mps", "-discipline", "fifo",
			"-tenants", "2", "-preempt=false", "-workflows", "20"}, common("127.0.0.1:0", filepath.Join(dir, "cluster.json"))...),
		{"explain", "-flight", flight, "-seq", "19", "-tenant=", "-last", "2"},
	} {
		if err := command(args); err != nil {
			t.Fatalf("gpusched %s: %v", strings.Join(args, " "), err)
		}
	}
	addr := freeAddr(t)
	serveUntilInterrupted(t, addr, append([]string{"serve", "-uniform", "Kripke:1x:1x2"},
		append(queue, common(addr, filepath.Join(dir, "serve.json"))...)...))
	addr = freeAddr(t)
	serveUntilInterrupted(t, addr, append([]string{"serve", "-stream", "-fleet", "1x4", "-policy", "energy"},
		common(addr, filepath.Join(dir, "stream.json"))...))
	for _, name := range []string{"flight.json", "cluster.json", "serve.json", "stream.json", "traces/timeline.json"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("%s not written: %v", name, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "unused.json")); !os.IsNotExist(err) {
		t.Errorf("-queue-schema ran the pipeline (stat: %v)", err)
	}
}

// freeAddr returns a loopback address with a port nothing listens on.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

// serveUntilInterrupted runs a serve command line listening on addr
// in-process until /healthz answers, then interrupts the process and
// expects a clean shutdown.
func serveUntilInterrupted(t *testing.T, addr string, args []string) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- command(args) }()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		select {
		case err := <-done:
			t.Fatalf("gpusched %s exited before serving: %v", strings.Join(args, " "), err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("gpusched %s: /healthz never answered: %v", strings.Join(args, " "), err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGINT); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("gpusched %s: %v", strings.Join(args, " "), err)
	}
}
