package main

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"gpushare/internal/core"
	"gpushare/internal/gpu"
)

func TestParseFleetShape(t *testing.T) {
	w, g, err := parseFleetShape("50000x256")
	if err != nil || w != 50000 || g != 256 {
		t.Fatalf("parseFleetShape = %d, %d, %v", w, g, err)
	}
	for _, bad := range []string{
		"", "x", "10x", "x10", "10x8junk", "junk10x8", "10", "10x8x2",
		"0x8", "10x0", "-1x8", "10x-8", "1.5x8",
	} {
		if _, _, err := parseFleetShape(bad); err == nil {
			t.Errorf("parseFleetShape(%q) accepted", bad)
		}
	}
	// The errors should name the flag and the offending value.
	_, _, err = parseFleetShape("0x8")
	if err == nil || !strings.Contains(err.Error(), "positive") {
		t.Fatalf("zero-count error = %v", err)
	}
	_, _, err = parseFleetShape("banana")
	if err == nil || !strings.Contains(err.Error(), "WORKFLOWSxGPUS") {
		t.Fatalf("garbage error = %v", err)
	}
}

// TestParseClusterShape pins the shared shape parser's -cluster face:
// the same strictness -fleet has (no trailing garbage, no zero or
// negative counts), with errors naming the right flag and form.
func TestParseClusterShape(t *testing.T) {
	n, g, err := parseClusterShape("8x4")
	if err != nil || n != 8 || g != 4 {
		t.Fatalf("parseClusterShape = %d, %d, %v", n, g, err)
	}
	for _, bad := range []string{
		"", "x", "8x", "x4", "8x4junk", "junk8x4", "8", "8x4x2",
		"0x4", "8x0", "-1x4", "8x-4", "1.5x4",
	} {
		if _, _, err := parseClusterShape(bad); err == nil {
			t.Errorf("parseClusterShape(%q) accepted", bad)
		}
	}
	_, _, err = parseClusterShape("0x4")
	if err == nil || !strings.Contains(err.Error(), "positive") || !strings.Contains(err.Error(), "-cluster") {
		t.Fatalf("zero-count error = %v", err)
	}
	_, _, err = parseClusterShape("banana")
	if err == nil || !strings.Contains(err.Error(), "NODESxGPUS") {
		t.Fatalf("garbage error = %v", err)
	}
}

func TestRunClusterBenchValidation(t *testing.T) {
	spec := gpu.MustLookup("A100X")
	if err := runClusterBench(spec, "4x2junk", "mixed", "fair-share", 2, false, 10, 1); err == nil {
		t.Fatal("malformed -cluster accepted")
	}
	if err := runClusterBench(spec, "4x2", "mixed", "fair-share", 0, false, 10, 1); err == nil {
		t.Fatal("zero -tenants accepted")
	}
	if err := runClusterBench(spec, "4x2", "mixed", "round-robin", 2, false, 10, 1); err == nil {
		t.Fatal("unknown -discipline accepted")
	}
	if err := runClusterBench(spec, "4x2", "mixed", "fair-share", 2, true, 200, 1); err != nil {
		t.Fatalf("cluster bench: %v", err)
	}
}

func TestRunFleetBenchValidation(t *testing.T) {
	spec := gpu.MustLookup("A100X")
	policy := core.ThroughputPolicy()
	if err := runFleetBench(spec, policy, "10x8junk", 1, 0, false); err == nil {
		t.Fatal("malformed -fleet accepted")
	}
	if err := runFleetBench(spec, policy, "10x8", 1, -5, false); err == nil {
		t.Fatal("negative -arrivals accepted")
	}
	if err := runFleetBench(spec, policy, "200x8", 1, 50, true); err != nil {
		t.Fatalf("streamed bench: %v", err)
	}
}

// TestStreamServerRoundTrip drives the serve -stream endpoints the way
// a client would: ingest a batch, snapshot the state, and check the
// snapshot resumes to the same dispatcher elsewhere.
func TestStreamServerRoundTrip(t *testing.T) {
	spec := gpu.MustLookup("A100X")
	ss, err := newStreamServer(spec, core.ThroughputPolicy(), "100x8", 7)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(ss.wrap(http.NotFoundHandler()))
	defer srv.Close()

	batch := `[
	  {"at_s": 0, "name": "wf-a", "tasks": [{"benchmark": "fleet-a000", "size": "1x", "iterations": 1}]},
	  {"at_s": 2, "name": "wf-b", "tasks": [{"benchmark": "fleet-a003", "size": "1x", "iterations": 1}]}
	]`
	resp, err := http.Post(srv.URL+"/ingest", "application/json", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/ingest status = %d", resp.StatusCode)
	}
	var events []core.DispatchEvent
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Workflow != "wf-a" || events[1].Workflow != "wf-b" {
		t.Fatalf("ingest events = %+v", events)
	}

	resp, err = http.Get(srv.URL + "/stream/state")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/stream/state status = %d", resp.StatusCode)
	}
	var state core.StreamState
	if err := json.NewDecoder(resp.Body).Decode(&state); err != nil {
		t.Fatal(err)
	}
	if state.Events != 2 || state.GPUs != 8 {
		t.Fatalf("snapshot = events %d gpus %d", state.Events, state.GPUs)
	}
	// The snapshot must restore onto an equivalent scheduler.
	_, store, err := core.NewFleetSource(spec, core.FleetSpec{Workflows: 1, TargetGPUs: 8, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.NewScheduler(spec, 8, store, core.ThroughputPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.RestoreStreamer(core.StreamConfig{}, &state); err != nil {
		t.Fatalf("restore from HTTP snapshot: %v", err)
	}
}

func TestStreamServerRejections(t *testing.T) {
	spec := gpu.MustLookup("A100X")
	ss, err := newStreamServer(spec, core.ThroughputPolicy(), "100x8", 7)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(ss.wrap(http.NotFoundHandler()))
	defer srv.Close()

	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}
	if resp := post("not json"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("garbage body status = %d", resp.StatusCode)
	}
	// Unknown benchmark: no profile in the archetype store.
	if resp := post(`[{"at_s":0,"name":"x","tasks":[{"benchmark":"nope","size":"1x","iterations":1}]}]`); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("unknown benchmark status = %d", resp.StatusCode)
	}
	// Out-of-order arrival after a successful one.
	if resp := post(`[{"at_s":5,"name":"a","tasks":[{"benchmark":"fleet-a000","size":"1x","iterations":1}]}]`); resp.StatusCode != http.StatusOK {
		t.Fatalf("first arrival status = %d", resp.StatusCode)
	}
	if resp := post(`[{"at_s":1,"name":"b","tasks":[{"benchmark":"fleet-a000","size":"1x","iterations":1}]}]`); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("out-of-order status = %d", resp.StatusCode)
	}
	resp, err := http.Get(srv.URL + "/ingest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /ingest status = %d", resp.StatusCode)
	}

	if _, err := newStreamServer(spec, core.ThroughputPolicy(), "bad-shape", 7); err == nil {
		t.Fatal("malformed shape accepted")
	}
}

// wireBatch encodes arrivals in the /ingest wire form.
func wireBatch(t *testing.T, arrivals []core.Arrival) string {
	t.Helper()
	type wireTask struct {
		Benchmark  string `json:"benchmark"`
		Size       string `json:"size"`
		Iterations int    `json:"iterations"`
	}
	type wireArrival struct {
		AtS   float64    `json:"at_s"`
		Name  string     `json:"name"`
		Tasks []wireTask `json:"tasks"`
	}
	wire := make([]wireArrival, len(arrivals))
	for i, a := range arrivals {
		wire[i] = wireArrival{AtS: a.At.Seconds(), Name: a.Workflow.Name}
		for _, task := range a.Workflow.Tasks {
			wire[i].Tasks = append(wire[i].Tasks, wireTask{task.Benchmark, task.Size, task.Iterations})
		}
	}
	data, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// TestIngestBatchMatchesPlan pins /ingest's events to PlanOnline's for
// the same arrivals, co-resident lists included: a multi-arrival batch
// on a two-GPU fleet where arrivals share GPUs, so an event whose
// RunningAlongside still pointed into the streamer's reused name scratch
// would name another event's co-residents.
func TestIngestBatchMatchesPlan(t *testing.T) {
	device := gpu.MustLookup("A100X")
	const seed = 7
	arrivals, store, err := core.GenerateFleet(device, core.FleetSpec{Workflows: 32, TargetGPUs: 2, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.NewScheduler(device, 2, store, core.EnergyPolicy())
	if err != nil {
		t.Fatal(err)
	}
	plan, err := sched.PlanOnline(arrivals)
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	for _, ev := range plan.Dispatches {
		if len(ev.RunningAlongside) > 0 {
			shared++
		}
	}
	if shared < 2 {
		t.Fatalf("only %d dispatches share a GPU; the batch cannot expose aliasing", shared)
	}

	ss, err := newStreamServer(device, core.EnergyPolicy(), "32x2", seed)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(ss.wrap(http.NotFoundHandler()))
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/ingest", "application/json", strings.NewReader(wireBatch(t, arrivals)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/ingest status = %d", resp.StatusCode)
	}
	var got []core.DispatchEvent
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(plan.Dispatches) {
		t.Fatalf("/ingest returned %d events, want %d", len(got), len(plan.Dispatches))
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], plan.Dispatches[i]) {
			t.Fatalf("event %d = %+v, want %+v", i, got[i], plan.Dispatches[i])
		}
	}
}

// TestIngestRejectsUnrepresentableTimestamps pins the /ingest boundary:
// a negative timestamp, or one whose nanosecond count overflows int64,
// fails the whole batch with 400 before anything is dispatched, and the
// stream still accepts a following valid in-order batch.
func TestIngestRejectsUnrepresentableTimestamps(t *testing.T) {
	spec := gpu.MustLookup("A100X")
	ss, err := newStreamServer(spec, core.ThroughputPolicy(), "100x8", 7)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(ss.wrap(http.NotFoundHandler()))
	defer srv.Close()

	arrival := func(atS string, name string) string {
		return `{"at_s":` + atS + `,"name":"` + name + `","tasks":[{"benchmark":"fleet-a000","size":"1x","iterations":1}]}`
	}
	post := func(body string) *http.Response {
		t.Helper()
		resp, err := http.Post(srv.URL+"/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for _, bad := range []string{"1e300", "-1"} {
		// A valid arrival ahead of the bad one must not be dispatched.
		resp := post("[" + arrival("0", "ok") + "," + arrival(bad, "bad") + "]")
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("at_s %s: status = %d, want %d", bad, resp.StatusCode, http.StatusBadRequest)
		}
		if n := ss.st.Events(); n != 0 {
			t.Fatalf("at_s %s: %d arrivals dispatched from a rejected batch", bad, n)
		}
	}
	resp := post("[" + arrival("3", "a") + "," + arrival("4", "b") + "]")
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid batch after rejections: status = %d", resp.StatusCode)
	}
	var events []core.DispatchEvent
	if err := json.NewDecoder(resp.Body).Decode(&events); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Workflow != "a" || events[1].At.Seconds() != 4 {
		t.Fatalf("valid batch events = %+v", events)
	}
}
