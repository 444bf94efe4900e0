package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"slices"
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
}

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
	st, err := sched.NewStreamer(core.StreamConfig{})
	if err != nil {
		return nil, err
	}
	return &streamServer{st: st}, nil
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
// the resulting dispatch events. Timestamps are validated for the whole
// batch before anything is dispatched; on a later mid-batch failure the
// earlier arrivals stay dispatched (the stream has no rollback) and the
// error reports how far the batch got.
func (ss *streamServer) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a JSON array of arrivals", http.StatusMethodNotAllowed)
		return
	}
	var batch []ingestArrival
	if err := json.NewDecoder(r.Body).Decode(&batch); err != nil {
		http.Error(w, fmt.Sprintf("bad arrival batch: %v", err), http.StatusBadRequest)
		return
	}
	arrivals := make([]core.Arrival, len(batch))
	for i, wa := range batch {
		at, err := arrivalInstant(wa.AtS)
		if err != nil {
			http.Error(w, fmt.Sprintf("arrival %d: %v (nothing dispatched)", i, err), http.StatusBadRequest)
			return
		}
		arrivals[i] = core.Arrival{At: at, Workflow: workflow.Workflow{Name: wa.Name}}
		for _, t := range wa.Tasks {
			arrivals[i].Workflow.Tasks = append(arrivals[i].Workflow.Tasks, workflow.Task{
				Benchmark: t.Benchmark, Size: t.Size, Iterations: t.Iterations,
			})
		}
	}
	events := make([]core.DispatchEvent, 0, len(batch))
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for i, a := range arrivals {
		ev, err := ss.st.Ingest(a)
		if err != nil {
			http.Error(w, fmt.Sprintf("arrival %d (%d dispatched): %v", i, i, err),
				http.StatusUnprocessableEntity)
			return
		}
		// RunningAlongside points into the streamer's name scratch, which
		// the next Ingest reuses: the response must own its copy.
		ev.RunningAlongside = slices.Clone(ev.RunningAlongside)
		events = append(events, ev)
	}
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(events); err != nil {
		// The response is already partially written; nothing left to do
		// but note it for the operator.
		fmt.Fprintf(os.Stderr, "gpusched: /ingest response: %v\n", err)
	}
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
