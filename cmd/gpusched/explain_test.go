package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"gpushare/internal/core"
	"gpushare/internal/gpu"
	"gpushare/internal/interference"
	"gpushare/internal/obs"
)

// explainGoldenSnapshot covers every record kind and field combination
// the renderer handles, with fixed values so the output is pinnable.
func explainGoldenSnapshot() *obs.FlightSnapshot {
	return &obs.FlightSnapshot{
		Capacity: 16, Total: 10, Spilled: 1, Dropped: 0,
		Records: []obs.FlightRecord{
			{Seq: 3, Kind: obs.FlightArrival, AtNS: 1_500_000_000, Workflow: "wf-3", GPU: -1},
			{Seq: 3, Kind: obs.FlightScan, AtNS: 1_500_000_000, GPU: -1, Clients: 2,
				Rules:         uint8(interference.MaskClientCap | interference.MaskCompute | interference.MaskBandwidth),
				SMExcessMilli: 1, BWExcessMilli: 1, CapSkips: 1},
			{Seq: 3, Kind: obs.FlightWait, AtNS: 1_500_000_000, GPU: -1, WaitNS: 2_250_000_000},
			{Seq: 3, Kind: obs.FlightScan, AtNS: 3_750_000_000, GPU: 1, Clients: 1},
			{Seq: 3, Kind: obs.FlightDispatch, AtNS: 3_750_000_000, Workflow: "wf-3", GPU: 1, Clients: 2, WaitNS: 2_250_000_000},
			{Seq: 7, Kind: obs.FlightScan, AtNS: 9_000_000_000, Tenant: "prod", Workflow: "urgent", GPU: -1, Clients: 1,
				Rules: uint8(interference.MaskClientCap), CapSkips: 1},
			{Seq: 7, Kind: obs.FlightWhatIf, AtNS: 9_000_000_000, Tenant: "prod", Workflow: "urgent", Node: "n0", GPU: 0,
				Clients: 1, Detail: "fit=true"},
			{Seq: 2, Kind: obs.FlightEvict, AtNS: 9_000_000_000, Tenant: "batch", Workflow: "victim", Node: "n0", GPU: 0,
				Detail: "preempted by urgent"},
			{Seq: 8, Kind: obs.FlightHold, AtNS: 9_000_000_000, Tenant: "batch", Workflow: "stalled", GPU: -1},
			{Seq: 8, Kind: obs.FlightHold, AtNS: 12_000_000_000, Tenant: "batch", Workflow: "stalled", GPU: -1,
				Clients: 2, Detail: "unchanged"},
		},
	}
}

// TestExplainGolden pins the rendered decision trail, rule names and
// per-rule counts included. Regenerate with GOLDEN_UPDATE=1.
func TestExplainGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := explainDump(&buf, explainGoldenSnapshot(), -1, "", 0); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "explain_golden.txt")
	if os.Getenv("GOLDEN_UPDATE") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("explain output diverged from %s:\n--- got ---\n%s--- want ---\n%s", golden, buf.Bytes(), want)
	}
}

// TestExplainFilters exercises -seq, -tenant and -last selection plus
// the out-of-window error.
func TestExplainFilters(t *testing.T) {
	snap := explainGoldenSnapshot()

	var buf bytes.Buffer
	if err := explainDump(&buf, snap, 3, "", 0); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 6 { // header + 5 seq-3 records
		t.Fatalf("seq filter printed %d lines, want 6:\n%s", got, buf.String())
	}

	buf.Reset()
	if err := explainDump(&buf, snap, -1, "batch", 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "victim") || !strings.Contains(buf.String(), "stalled") ||
		strings.Contains(buf.String(), "tenant=prod") {
		t.Fatalf("tenant filter selected the wrong records:\n%s", buf.String())
	}

	buf.Reset()
	if err := explainDump(&buf, snap, -1, "", 2); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "\n"); got != 3 { // header + last 2
		t.Fatalf("-last 2 printed %d lines, want 3", got)
	}

	if err := explainDump(&buf, snap, 999, "", 0); err == nil {
		t.Fatal("out-of-window seq did not error")
	}
}

// TestExplainRunFromFile drives the subcommand end to end: a dump file
// written with writeFlightDump reads back and renders.
func TestExplainRunFromFile(t *testing.T) {
	hub := obs.NewHub(nil)
	for _, r := range explainGoldenSnapshot().Records {
		hub.Flight.Record(r)
	}
	path := filepath.Join(t.TempDir(), "flight.json")
	if err := writeFlightDump(path, hub); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runExplain([]string{"-flight", path, "-seq", "3"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "no-fit  visited=2  rejected compute=1 bandwidth=1 client-cap=1") {
		t.Fatalf("explain lost the typed rule trail:\n%s", buf.String())
	}
	if err := runExplain([]string{"-flight", path}, &buf); err != nil {
		t.Fatal(err)
	}
	if err := runExplain([]string{}, &buf); err == nil {
		t.Fatal("missing -flight accepted")
	}
	if err := runExplain([]string{"-flight", filepath.Join(t.TempDir(), "nope.json")}, &buf); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestExplainUsageToStderr pins where explain's flag errors and usage
// land: on stderr, as every other form's do, never in the trail it
// writes for a script to read.
func TestExplainUsageToStderr(t *testing.T) {
	stderr, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	defer stderr.Close()
	prev := os.Stderr
	os.Stderr = stderr
	defer func() { os.Stderr = prev }()

	var buf bytes.Buffer
	if err := runExplain([]string{"-no-such-flag"}, &buf); err == nil {
		t.Fatal("unknown flag accepted")
	}
	if err := runExplain([]string{"-h"}, &buf); err == nil {
		t.Fatal("-h ran the query")
	}
	if buf.Len() != 0 {
		t.Fatalf("explain wrote usage into its trail:\n%s", buf.String())
	}
	got, err := os.ReadFile(stderr.Name())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(got), "-no-such-flag") || !strings.Contains(string(got), "-flight") {
		t.Fatalf("stderr lacks the flag error and usage:\n%s", got)
	}
}

// trailShape matches one arrival's whole decision trail as explain
// prints its kinds: the arrival, a scan per round with a wait between
// rounds, and the dispatch.
var trailShape = regexp.MustCompile(`^arrival scan (wait scan )*dispatch $`)

// explainKind extracts the record kind from one rendered trail line.
var explainKind = regexp.MustCompile(`^seq +\d+ +@ *[0-9.]+s +(\S+)`)

// TestExplainRecentArrivalsWhole pins what a default-capacity recorder
// keeps: after a bench-online-style run (2,000 arrivals on 16 GPUs,
// throughput policy, seed 42), explain returns the whole trail of each
// of the last 500 arrivals.
func TestExplainRecentArrivalsWhole(t *testing.T) {
	prev := obs.Active()
	defer obs.SetActive(prev)
	hub := obs.NewHub(nil)
	obs.SetActive(hub)

	spec := gpu.MustLookup("A100X")
	arrivals, store, err := core.GenerateFleet(spec, core.FleetSpec{Workflows: 2000, TargetGPUs: 16, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.NewScheduler(spec, 16, store, core.ThroughputPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.PlanOnline(arrivals); err != nil {
		t.Fatal(err)
	}
	snap := hub.Flight.Snapshot()
	if snap.Capacity != obs.DefaultFlightCapacity || snap.Total <= int64(snap.Capacity) {
		t.Fatalf("window %d of %d records, want a full default-capacity ring", len(snap.Records), snap.Total)
	}
	for seq := int64(len(arrivals) - 500); seq < int64(len(arrivals)); seq++ {
		var buf bytes.Buffer
		if err := explainDump(&buf, &snap, seq, "", 0); err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")[1:]
		var kinds strings.Builder
		for _, line := range lines {
			m := explainKind.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("seq %d: unparsable trail line %q", seq, line)
			}
			kinds.WriteString(m[1] + " ")
		}
		if !trailShape.MatchString(kinds.String()) {
			t.Fatalf("seq %d: trail %q is not whole:\n%s", seq, kinds.String(), buf.String())
		}
	}
}
