package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gpushare/internal/interference"
	"gpushare/internal/obs"
)

// explainGoldenSnapshot covers every record kind and field combination
// the renderer handles, with fixed values so the output is pinnable.
func explainGoldenSnapshot() *obs.FlightSnapshot {
	return &obs.FlightSnapshot{
		Capacity: 16, Total: 9, Spilled: 1, Dropped: 0,
		Records: []obs.FlightRecord{
			{Seq: 3, Kind: obs.FlightArrival, AtNS: 1_500_000_000, Workflow: "wf-3", GPU: -1},
			{Seq: 3, Kind: obs.FlightProbe, AtNS: 1_500_000_000, GPU: 0, Clients: 8, Rules: uint8(interference.MaskClientCap)},
			{Seq: 3, Kind: obs.FlightProbe, AtNS: 1_500_000_000, GPU: 1, Clients: 2,
				Rules: uint8(interference.MaskCompute | interference.MaskBandwidth), SMExcessMilli: 32500, BWExcessMilli: 10250},
			{Seq: 3, Kind: obs.FlightWait, AtNS: 1_500_000_000, GPU: -1, WaitNS: 2_250_000_000},
			{Seq: 3, Kind: obs.FlightProbe, AtNS: 3_750_000_000, GPU: 1, Clients: 1},
			{Seq: 3, Kind: obs.FlightDispatch, AtNS: 3_750_000_000, Workflow: "wf-3", GPU: 1, Clients: 2, WaitNS: 2_250_000_000},
			{Seq: 7, Kind: obs.FlightWhatIf, AtNS: 9_000_000_000, Tenant: "prod", Workflow: "urgent", Node: "n0", GPU: 0,
				Clients: 1, Detail: "fit=true digest=00000000deadbeef restored=00000000deadbeef"},
			{Seq: 2, Kind: obs.FlightEvict, AtNS: 9_000_000_000, Tenant: "batch", Workflow: "victim", Node: "n0", GPU: 0,
				Detail: "preempted by urgent"},
			{Seq: 8, Kind: obs.FlightHold, AtNS: 9_000_000_000, Tenant: "batch", Workflow: "stalled", GPU: -1},
		},
	}
}

// TestExplainGolden pins the rendered decision trail, rule names and
// magnitudes included. Regenerate with GOLDEN_UPDATE=1.
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
	if got := strings.Count(buf.String(), "\n"); got != 7 { // header + 6 seq-3 records
		t.Fatalf("seq filter printed %d lines, want 7:\n%s", got, buf.String())
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
	if !strings.Contains(buf.String(), "reject[compute,bandwidth] sm+32500m bw+10250m") {
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
