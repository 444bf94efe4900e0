package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sync"

	"gpushare/internal/core"
	"gpushare/internal/gpu"
	"gpushare/internal/simtime"
	"gpushare/internal/workflow"
)

// streamServer adapts a core.Streamer to HTTP for `gpusched serve
// -stream`: POST /ingest accepts a JSON array of arrivals and returns
// their dispatch events; GET /stream/state returns a resumable snapshot
// (core.StreamState). The streamer is single-owner, so a mutex
// serializes requests — ingest order is the dispatch order.
type streamServer struct {
	mu sync.Mutex
	st *core.Streamer
	// spill is the streamer's event log, one line per event. It holds
	// only the batch being ingested: each request takes its bytes as the
	// response body and leaves an empty buffer behind.
	spill bytes.Buffer
}

// maxIngestBytes bounds one /ingest request body. At about 100 bytes
// per arrival it still admits batches of some 80,000 arrivals.
const maxIngestBytes = 8 << 20

// ingestArrival is the wire form of one arrival: a non-decreasing
// timestamp in seconds plus the workflow to place.
type ingestArrival struct {
	AtS   float64 `json:"at_s"`
	Name  string  `json:"name"`
	Tasks []struct {
		Benchmark  string `json:"benchmark"`
		Size       string `json:"size"`
		Iterations int    `json:"iterations"`
	} `json:"tasks"`
}

// newStreamServer builds the live dispatcher the ingest endpoint feeds:
// the fleet archetype profile store sized from -fleet's GPU count and
// the configured policy. Ingested workflows must name benchmarks that
// store covers.
func newStreamServer(device gpu.DeviceSpec, policy core.Policy, shape string, seed uint64) (*streamServer, error) {
	_, gpus, err := parseFleetShape(shape)
	if err != nil {
		return nil, err
	}
	// One-workflow fleet: the arrivals are discarded, only the archetype
	// profile store matters here.
	_, store, err := core.NewFleetSource(device, core.FleetSpec{Workflows: 1, TargetGPUs: gpus, Seed: seed})
	if err != nil {
		return nil, err
	}
	sched, err := core.NewScheduler(device, gpus, store, policy)
	if err != nil {
		return nil, err
	}
	ss := &streamServer{}
	if ss.st, err = sched.NewStreamer(core.StreamConfig{Spill: &ss.spill}); err != nil {
		return nil, err
	}
	return ss, nil
}

// wrap routes the streaming endpoints and delegates everything else
// (metrics, healthz, pprof) to the telemetry handler.
func (ss *streamServer) wrap(fallback http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/ingest", ss.handleIngest)
	mux.HandleFunc("/stream/state", ss.handleState)
	mux.Handle("/", fallback)
	return mux
}

// handleIngest dispatches a JSON array of arrivals in order and returns
// the resulting dispatch events as a JSON array, the streamer's spilled
// lines byte for byte. A batch is applied whole or not at all: a body
// over maxIngestBytes gets 413; unknown fields, bytes after the array
// and bad timestamps get 400; an arrival the stream would refuse gets
// 422; each before anything is dispatched.
func (ss *streamServer) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a JSON array of arrivals", http.StatusMethodNotAllowed)
		return
	}
	arrivals, err := decodeBatch(http.MaxBytesReader(w, r.Body, maxIngestBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("arrival batch exceeds %d bytes (nothing dispatched)", tooBig.Limit),
				http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, fmt.Sprintf("bad arrival batch: %v (nothing dispatched)", err), http.StatusBadRequest)
		return
	}
	body, err := ss.ingest(arrivals)
	if err != nil {
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(body); err != nil {
		// The response is already partially written; nothing left to do
		// but note it for the operator.
		fmt.Fprintf(os.Stderr, "gpusched: /ingest response: %v\n", err)
	}
}

// decodeBatch reads one JSON array of arrivals and nothing after it,
// refusing fields the wire form does not have and timestamps the
// simulated clock cannot represent.
func decodeBatch(r io.Reader) ([]core.Arrival, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var batch []ingestArrival
	if err := dec.Decode(&batch); err != nil {
		return nil, err
	}
	if _, err := dec.Token(); err != io.EOF {
		if err == nil {
			err = errors.New("data after the arrival array")
		}
		return nil, err
	}
	arrivals := make([]core.Arrival, len(batch))
	for i, wa := range batch {
		at, err := arrivalInstant(wa.AtS)
		if err != nil {
			return nil, fmt.Errorf("arrival %d: %w", i, err)
		}
		arrivals[i] = core.Arrival{At: at, Workflow: workflow.Workflow{Name: wa.Name}}
		for _, t := range wa.Tasks {
			arrivals[i].Workflow.Tasks = append(arrivals[i].Workflow.Tasks, workflow.Task{
				Benchmark: t.Benchmark, Size: t.Size, Iterations: t.Iterations,
			})
		}
	}
	return arrivals, nil
}

// ingest dispatches arrivals in order under the stream mutex and
// returns the response body: the batch's spilled lines joined into a
// JSON array plus a newline, which is what json.Encoder writes for the
// events. The caller owns the body. The whole batch is checked before
// its first arrival is dispatched, so an error means nothing was.
func (ss *streamServer) ingest(arrivals []core.Arrival) ([]byte, error) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for i := range arrivals {
		if i > 0 && arrivals[i].At < arrivals[i-1].At {
			return nil, fmt.Errorf("arrival %d is earlier than arrival %d (nothing dispatched)", i, i-1)
		}
		if err := ss.st.Check(arrivals[i]); err != nil {
			return nil, fmt.Errorf("arrival %d: %w (nothing dispatched)", i, err)
		}
	}
	// Whatever happens, the next batch starts from an empty buffer.
	defer func() { ss.spill = bytes.Buffer{} }()
	ss.spill.WriteByte('[')
	for i, a := range arrivals {
		// Only a spill write can fail here, and the spill is a buffer.
		if _, err := ss.st.Ingest(a); err != nil {
			return nil, fmt.Errorf("arrival %d (%d dispatched): %w", i, i, err)
		}
	}
	// json.Marshal escapes newlines inside strings, so every newline
	// byte on the spill ends a line.
	body := ss.spill.Bytes()
	for i, c := range body {
		if c == '\n' {
			body[i] = ','
		}
	}
	if len(arrivals) > 0 {
		body = body[:len(body)-1]
	}
	return append(body, ']', '\n'), nil
}

// arrivalInstant converts a wire timestamp to a simulated instant,
// rejecting what the nanosecond clock cannot represent: negative or NaN
// seconds, and values whose nanosecond count overflows int64.
func arrivalInstant(atS float64) (simtime.Time, error) {
	if !(atS >= 0) || atS*float64(simtime.Second) >= math.MaxInt64 {
		return 0, fmt.Errorf("at_s %v outside [0, %v) seconds", atS, simtime.Forever.Seconds())
	}
	return simtime.Zero.Add(simtime.FromSeconds(atS)), nil
}

// handleState snapshots the stream for deterministic resume elsewhere.
func (ss *streamServer) handleState(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET returns the stream snapshot", http.StatusMethodNotAllowed)
		return
	}
	ss.mu.Lock()
	state, err := ss.st.SaveState()
	ss.mu.Unlock()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(state); err != nil {
		fmt.Fprintf(os.Stderr, "gpusched: /stream/state response: %v\n", err)
	}
}
