package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"gpushare/internal/core"
	"gpushare/internal/gpu"
	"gpushare/internal/simtime"
	"gpushare/internal/workflow"
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
	if err := runFleetBench(spec, policy, "10x8junk", 1, false); err == nil {
		t.Fatal("malformed -fleet accepted")
	}
	if err := runFleetBench(spec, policy, "50x8", 1, true); err != nil {
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
	// Bytes after the array, and a misspelled field that would leave
	// at_s at 0, are refused before anything is dispatched.
	for _, bad := range []string{
		`[{"at_s":0,"name":"x","tasks":[{"benchmark":"fleet-a000","size":"1x","iterations":1}]}] junk`,
		`[{"at":3,"name":"x","tasks":[{"benchmark":"fleet-a000","size":"1x","iterations":1}]}]`,
	} {
		if resp := post(bad); resp.StatusCode != http.StatusBadRequest || ss.st.Events() != 0 {
			t.Fatalf("%s: status = %d, %d dispatched", bad, resp.StatusCode, ss.st.Events())
		}
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

// TestIngestRejectsOversizedBatch pins the /ingest body bound: a batch
// of well-formed arrivals whose body exceeds maxIngestBytes gets 413 and
// nothing is dispatched, while a small batch still goes through.
func TestIngestRejectsOversizedBatch(t *testing.T) {
	spec := gpu.MustLookup("A100X")
	ss, err := newStreamServer(spec, core.ThroughputPolicy(), "100x8", 7)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(ss.wrap(http.NotFoundHandler()))
	defer srv.Close()

	const arrival = `{"at_s":0,"name":"x","tasks":[{"benchmark":"fleet-a000","size":"1x","iterations":1}]}`
	var body strings.Builder
	body.WriteString("[" + arrival)
	for body.Len() <= maxIngestBytes {
		body.WriteString("," + arrival)
	}
	body.WriteString("]")
	resp, err := http.Post(srv.URL+"/ingest", "application/json", strings.NewReader(body.String()))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("%d-byte batch: status = %d, want %d", body.Len(), resp.StatusCode, http.StatusRequestEntityTooLarge)
	}
	if n := ss.st.Events(); n != 0 {
		t.Fatalf("%d arrivals dispatched from an oversized batch", n)
	}
	resp, err = http.Post(srv.URL+"/ingest", "application/json", strings.NewReader("["+arrival+"]"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || ss.st.Events() != 1 {
		t.Fatalf("small batch after the oversized one: status %d, %d dispatched", resp.StatusCode, ss.st.Events())
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

// TestIngestBatchMatchesPlan pins /ingest's response to the bytes
// json.Encoder writes for PlanOnline's events over the same arrivals,
// co-resident lists included: a multi-arrival batch on a two-GPU fleet
// where arrivals share GPUs, so an event whose RunningAlongside still
// pointed into the streamer's reused name scratch would name another
// event's co-residents. The same batch with names JSON must escape, and
// an empty batch, pin the framing.
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
	escaped := slices.Clone(arrivals)
	for i := range escaped {
		escaped[i].Workflow.Name = fmt.Sprintf("wf\n<%d>&\u2028", i)
	}
	escapedPlan, err := sched.PlanOnline(escaped)
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name     string
		arrivals []core.Arrival
		want     []core.DispatchEvent
	}{
		{"fleet", arrivals, plan.Dispatches},
		{"escaped names", escaped, escapedPlan.Dispatches},
		{"empty", nil, []core.DispatchEvent{}},
	} {
		ss, err := newStreamServer(device, core.EnergyPolicy(), "32x2", seed)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(c.want); err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		ss.wrap(http.NotFoundHandler()).ServeHTTP(rec,
			httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(wireBatch(t, c.arrivals))))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: /ingest status = %d: %s", c.name, rec.Code, rec.Body)
		}
		if got := rec.Body.Bytes(); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("%s: /ingest body differs from json.Encoder's at byte %d:\n%s\nwant\n%s",
				c.name, firstDiff(got, want.Bytes()), got, want.Bytes())
		}
	}
}

// FuzzIngestResponse pins /ingest's body to a replay: arrivals with
// fuzzed workflow names, posted in batches of a fuzzed size, each get a
// body equal to json.Marshal of the events a separate Streamer returns
// for the same arrivals, plus a newline.
func FuzzIngestResponse(f *testing.F) {
	f.Add("wf", uint8(12), uint8(5))
	f.Add("a\nb<c>&\u2028\"\\", uint8(9), uint8(0))
	f.Add("", uint8(0), uint8(3))
	f.Add("\xff\xfe", uint8(63), uint8(15))
	f.Fuzz(func(t *testing.T, name string, total, batch uint8) {
		ss, err := newStreamServer(gpu.MustLookup("A100X"), core.EnergyPolicy(), "1x2", 7)
		if err != nil {
			t.Fatal(err)
		}
		handler := ss.wrap(http.NotFoundHandler())
		replay := newReplay(t, core.EnergyPolicy(), 2, 7)
		// The wire carries UTF-8: the server sees invalid bytes replaced.
		name = strings.ToValidUTF8(name, "\uFFFD")
		arrivals := make([]core.Arrival, total%64)
		for i := range arrivals {
			arrivals[i] = core.Arrival{
				At: simtime.Zero.Add(simtime.FromSeconds(float64(i) / 4)),
				Workflow: workflow.Workflow{Name: fmt.Sprintf("%s%d", name, i), Tasks: []workflow.Task{
					{Benchmark: fmt.Sprintf("fleet-a%03d", i%16), Size: "1x", Iterations: 1},
				}},
			}
		}
		size := int(batch%16) + 1
		for lo := 0; lo == 0 || lo < len(arrivals); lo += size {
			part := arrivals[lo:min(lo+size, len(arrivals))]
			want := replayBody(t, replay, part)
			rec := postIngest(handler, []byte(wireBatch(t, part)))
			if rec.Code != http.StatusOK {
				t.Fatalf("batch at %d: /ingest status = %d: %s", lo, rec.Code, rec.Body)
			}
			if got := rec.Body.Bytes(); !bytes.Equal(got, want) {
				t.Fatalf("batch at %d: body differs from the replay at byte %d:\n%s\nwant\n%s",
					lo, firstDiff(got, want), got, want)
			}
		}
	})
}

// firstDiff returns the first index at which a and b differ.
func firstDiff(a, b []byte) int {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	return i
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

// postIngest serves one /ingest request in-process.
func postIngest(handler http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/ingest", bytes.NewReader(body)))
	return rec
}

// savedState is the stream snapshot /stream/state would serve.
func savedState(t *testing.T, ss *streamServer) string {
	t.Helper()
	state, err := ss.st.SaveState()
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(state)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// replayBody is the /ingest body a fresh batch should get: json.Marshal
// of the events replay returns for arrivals, plus a newline.
func replayBody(t *testing.T, replay *core.Streamer, arrivals []core.Arrival) []byte {
	t.Helper()
	events := []core.DispatchEvent{}
	for _, a := range arrivals {
		ev, err := replay.Ingest(a)
		if err != nil {
			t.Fatalf("replay refused %s: %v", a.Workflow.Name, err)
		}
		ev.RunningAlongside = slices.Clone(ev.RunningAlongside)
		events = append(events, ev)
	}
	want, err := json.Marshal(events)
	if err != nil {
		t.Fatal(err)
	}
	return append(want, '\n')
}

// newReplay is a Streamer over the same fleet archetypes as
// newStreamServer(device, policy, shape, seed), which never saw a
// refused batch.
func newReplay(t testing.TB, policy core.Policy, gpus int, seed uint64) *core.Streamer {
	t.Helper()
	device := gpu.MustLookup("A100X")
	_, store, err := core.NewFleetSource(device, core.FleetSpec{Workflows: 1, TargetGPUs: gpus, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sched, err := core.NewScheduler(device, gpus, store, policy)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := sched.NewStreamer(core.StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return replay
}

// TestIngestBatchIsAtomic pins the all-or-nothing /ingest: a batch whose
// third arrival names an unknown benchmark, and one out of order within
// itself, each get 422 saying nothing was dispatched and leave the
// snapshot unchanged, and the next valid batch is answered exactly as in
// a replay that never saw them.
func TestIngestBatchIsAtomic(t *testing.T) {
	ss, err := newStreamServer(gpu.MustLookup("A100X"), core.ThroughputPolicy(), "100x8", 7)
	if err != nil {
		t.Fatal(err)
	}
	handler := ss.wrap(http.NotFoundHandler())
	replay := newReplay(t, core.ThroughputPolicy(), 8, 7)
	arrival := func(atS float64, name, bench string) core.Arrival {
		return core.Arrival{At: simtime.Zero.Add(simtime.FromSeconds(atS)), Workflow: workflow.Workflow{
			Name: name, Tasks: []workflow.Task{{Benchmark: bench, Size: "1x", Iterations: 1}},
		}}
	}
	first := []core.Arrival{arrival(0, "a", "fleet-a000"), arrival(1, "b", "fleet-a003")}
	if rec := postIngest(handler, []byte(wireBatch(t, first))); rec.Code != http.StatusOK ||
		!bytes.Equal(rec.Body.Bytes(), replayBody(t, replay, first)) {
		t.Fatalf("first batch: %d %s", rec.Code, rec.Body)
	}
	before := savedState(t, ss)
	for _, bad := range [][]core.Arrival{
		{arrival(2, "c", "fleet-a001"), arrival(3, "d", "fleet-a002"), arrival(4, "e", "nope")},
		{arrival(5, "f", "fleet-a001"), arrival(3, "g", "fleet-a002")},
	} {
		rec := postIngest(handler, []byte(wireBatch(t, bad)))
		if rec.Code != http.StatusUnprocessableEntity || !strings.Contains(rec.Body.String(), "nothing dispatched") {
			t.Fatalf("bad batch: %d %s", rec.Code, rec.Body)
		}
		if after := savedState(t, ss); after != before {
			t.Fatalf("refused batch changed the snapshot:\n%s\nto\n%s", before, after)
		}
	}
	next := []core.Arrival{arrival(2, "h", "fleet-a001"), arrival(6, "i", "fleet-a002")}
	rec := postIngest(handler, []byte(wireBatch(t, next)))
	if want := replayBody(t, replay, next); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		t.Fatalf("batch after the refusals: %d\n%s\nwant\n%s", rec.Code, rec.Body, want)
	}
}

// FuzzIngestHTTP posts arbitrary bytes to /ingest, twice, after one
// valid arrival: a refused post leaves the snapshot byte-identical, and
// an accepted one is answered with json.Marshal of the events a replay
// Streamer returns for the decoded batch, plus a newline.
func FuzzIngestHTTP(f *testing.F) {
	const arrival = `{"at_s":%v,"name":"%s","tasks":[{"benchmark":"%s","size":"1x","iterations":1}]}`
	for _, seed := range []string{
		"[" + fmt.Sprintf(arrival, 2, "a", "fleet-a000") + "," + fmt.Sprintf(arrival, 2.5, "b", "fleet-a007") + "]",
		"[" + fmt.Sprintf(arrival, 2, "a", "fleet-a000") + "," + fmt.Sprintf(arrival, 3, "b", "fleet-a001") +
			"," + fmt.Sprintf(arrival, 4, "c", "nope") + "]",
		"[" + fmt.Sprintf(arrival, 3, "a", "fleet-a000") + "," + fmt.Sprintf(arrival, 2, "b", "fleet-a001") + "]",
		"[" + fmt.Sprintf(arrival, 0.5, "early", "fleet-a000") + "]",
		"[" + fmt.Sprintf(arrival, 1e300, "far", "fleet-a000") + "]",
		`[{"at_s":2,"name":"","tasks":[]}]`,
		"[]", "null", "not json", "[] junk",
	} {
		f.Add([]byte(seed))
	}
	first := []byte("[" + fmt.Sprintf(arrival, 1, "first", "fleet-a002") + "]")
	f.Fuzz(func(t *testing.T, body []byte) {
		ss, err := newStreamServer(gpu.MustLookup("A100X"), core.EnergyPolicy(), "1x2", 7)
		if err != nil {
			t.Fatal(err)
		}
		handler := ss.wrap(http.NotFoundHandler())
		replay := newReplay(t, core.EnergyPolicy(), 2, 7)
		for i, post := range [][]byte{first, body, body} {
			before := savedState(t, ss)
			rec := postIngest(handler, post)
			if rec.Code != http.StatusOK {
				if after := savedState(t, ss); after != before {
					t.Fatalf("post %d refused with %d changed the snapshot:\n%s\nto\n%s", i, rec.Code, before, after)
				}
				continue
			}
			arrivals, err := decodeBatch(bytes.NewReader(post))
			if err != nil {
				t.Fatalf("post %d accepted a batch decodeBatch refuses: %v", i, err)
			}
			if want := replayBody(t, replay, arrivals); !bytes.Equal(rec.Body.Bytes(), want) {
				t.Fatalf("post %d: body differs from the replay at byte %d:\n%s\nwant\n%s",
					i, firstDiff(rec.Body.Bytes(), want), rec.Body, want)
			}
		}
	})
}
