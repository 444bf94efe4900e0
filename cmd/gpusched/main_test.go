package main

import (
	"os"
	"path/filepath"
	"testing"

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

func TestPolicyClientCapHelper(t *testing.T) {
	spec := gpu.MustLookup("A100X")
	if got := policyClientCap(core.ThroughputPolicy(), spec); got != 2 {
		t.Fatalf("throughput cap = %d", got)
	}
	if got := policyClientCap(core.EnergyPolicy(), spec); got != 48 {
		t.Fatalf("energy cap = %d", got)
	}
}
