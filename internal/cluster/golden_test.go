package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"gpushare/internal/core"
)

// Golden pins for the cluster decision path: small scenarios embed the
// full dispatch and eviction logs; fleet-scale scenarios pin counts, the
// work counters in the clear, and a SHA-256 over the marshalled outcome
// with its Stats zeroed, keeping testdata reviewable: a change to the
// planner's work (probes) shows as a readable counter diff, while the
// digest still pins every decision.
// Every admission, preemption, and fair-share decision is a pure
// function of (spec, stream), so these files also double as the
// byte-identity contract the determinism suite re-checks at every -j.
//
// Regenerate (only when intentionally changing decision semantics) with:
//
//	GOLDEN_UPDATE=1 go test -run TestGolden ./internal/cluster

type goldenClusterCase struct {
	Name    string   `json:"name"`
	Outcome *Outcome `json:"outcome,omitempty"`
	// Fleet-scale digest form.
	Dispatches int    `json:"dispatches,omitempty"`
	Evictions  int    `json:"evictions,omitempty"`
	Failed     int    `json:"failed,omitempty"`
	Stats      *Stats `json:"stats,omitempty"`
	SHA256     string `json:"sha256,omitempty"`
}

func goldenCompare(t *testing.T, file string, got any) {
	t.Helper()
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	path := filepath.Join("testdata", file)
	if os.Getenv("GOLDEN_UPDATE") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden %s (run with GOLDEN_UPDATE=1 to create): %v", path, err)
	}
	if !bytes.Equal(want, data) {
		t.Fatalf("%s diverged from the pinned decision path:\n--- want\n%s\n--- got\n%s",
			path, want, data)
	}
}

// goldenStream builds the shared mid-size scenario stream.
func goldenStream(t *testing.T, workflows int, gangFraction float64, seed uint64) ([]Submission, func(Spec) *Planner) {
	t.Helper()
	device := a100x()
	subs, store, err := GenerateStream(device, StreamSpec{
		Fleet:          core.FleetSpec{Workflows: workflows, TargetGPUs: 8, Seed: seed},
		Tenants:        []string{"ares", "boreas", "chronos"},
		PriorityLevels: 3,
		GangFraction:   gangFraction,
		GangSize:       3,
		Seed:           seed + 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(spec Spec) *Planner {
		p, err := NewPlanner(spec, store)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	return subs, mk
}

// goldenSpec is the shared mixed-mode cluster: MPS, MIG, and time-slice
// nodes side by side.
func goldenSpec(q Discipline, preempt bool) Spec {
	device := a100x()
	return Spec{
		Nodes: []NodeSpec{
			{Name: "mps-a", Device: device, GPUs: 2, Mode: ModeMPS, ClientCap: 5},
			{Name: "mps-capped", Device: device, GPUs: 1, Mode: ModeMPS, ClientCap: 4, MPSActiveThreadPct: 40},
			{Name: "mig-b", Device: device, GPUs: 1, Mode: ModeMIG, MIGInstances: 4},
			{Name: "ts-c", Device: device, GPUs: 1, Mode: ModeTimeSlice, TimeSliceCap: 3},
		},
		Tenants: []TenantSpec{
			{Name: "ares", Weight: 1},
			{Name: "boreas", Weight: 2},
			{Name: "chronos", Weight: 1},
		},
		Queue:      q,
		Preemption: preempt,
	}
}

// TestGoldenClusterLogs pins the full decision history of small
// scenarios and a digest of a fleet-scale run.
func TestGoldenClusterLogs(t *testing.T) {
	var got []goldenClusterCase

	smallCases := []struct {
		name     string
		spec     Spec
		count    int
		gangFrac float64
		seed     uint64
	}{
		{"fairshare-preempt", goldenSpec(FairShare, true), 60, 0.2, 41},
		{"fifo-no-preempt", goldenSpec(FIFO, false), 60, 0.2, 41},
		{"fairshare-gang-heavy", goldenSpec(FairShare, true), 48, 0.5, 42},
	}
	for _, c := range smallCases {
		subs, mk := goldenStream(t, c.count, c.gangFrac, c.seed)
		out, err := mk(c.spec).Plan(subs)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, goldenClusterCase{Name: c.name, Outcome: out})
	}

	// Fleet scale: thousands of submissions; pin the counters and a
	// digest of the decisions.
	subs, mk := goldenStream(t, 3000, 0.15, 51)
	out, err := mk(goldenSpec(FairShare, true)).Plan(subs)
	if err != nil {
		t.Fatal(err)
	}
	stats := out.Stats
	out.Stats = Stats{}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	got = append(got, goldenClusterCase{
		Name:       "fleet-fairshare-3000x5gpu",
		Dispatches: len(out.Dispatches),
		Evictions:  len(out.Evictions),
		Failed:     len(out.Failed),
		Stats:      &stats,
		SHA256:     hex.EncodeToString(sum[:]),
	})

	goldenCompare(t, "golden_cluster.json", got)
}
