package core

import (
	"crypto/sha256"
	"encoding"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"sort"

	"gpushare/internal/interference"
	"gpushare/internal/obs"
	"gpushare/internal/simtime"
)

// Streaming ingest: the dispatcher's decision kernel applied to an
// unbounded, time-ordered arrival stream with bounded steady-state
// memory. PlanOnline materializes every arrival, profile, and dispatch
// record for the plan's lifetime; the Streamer instead reuses its
// co-resident name buffer once an event is framed, writes each framed
// event straight to a JSONL spill sink (the stream's log; it retains
// none), and folds the log into a running SHA-256 digest framed exactly
// like json.Marshal of the full event slice — so a streamed run and a
// materialized plan over the same arrivals produce the same digest byte
// for byte (DESIGN.md §14).

// ArrivalSource yields a time-ordered arrival stream one element at a
// time. Implementations must yield non-decreasing At values; FleetSource
// is the synthetic-fleet implementation.
type ArrivalSource interface {
	Next() (Arrival, bool)
}

// StreamConfig parameterizes a streaming ingest run.
type StreamConfig struct {
	// Spill is the stream's event log: each Ingest writes its event's
	// JSON object and a newline to it before returning, so after k
	// Ingests it holds exactly k lines, in arrival order. nil discards
	// the log (the digest still covers it).
	Spill io.Writer
}

// Streamer ingests arrivals one at a time through the online
// dispatcher. It is single-owner, like the dispatcher it drives; wrap
// it in a mutex to share (cmd/gpusched's serve mode does).
type Streamer struct {
	d       *onlineDispatcher
	builder *ProfileBuilder
	// names backs the current event's RunningAlongside; it is truncated
	// after each event is framed, so its space is reused, not grown.
	names []string
	// line holds the event being framed (separator, event, newline); it
	// is reused, so it grows only to the longest line.
	line  []byte
	spill io.Writer

	digest hash.Hash
	lastAt simtime.Time

	finished bool
	// err is the first spill failure, returned by every later Ingest,
	// SaveState and Finish: the spilled log has a hole nothing can fill.
	err error
}

// NewStreamer returns a streaming ingest session against the
// scheduler's fleet (GPUs, policy, profile store). Every StreamConfig
// is valid, so the error is always nil.
func (s *Scheduler) NewStreamer(cfg StreamConfig) (*Streamer, error) {
	return &Streamer{
		d:       newOnlineDispatcher(s),
		builder: NewProfileBuilder(s.Profiles),
		spill:   cfg.Spill,
		digest:  sha256.New(),
	}, nil
}

// Ingest dispatches one arrival, frames its event into the digest and
// writes the framed line to the spill. Arrivals must be non-decreasing
// in At — the dispatcher's decisions assume a time-ordered stream, and
// an out-of-order arrival would silently produce a log no sorted plan
// can reproduce.
//
// The returned event's RunningAlongside is carved from the streamer's
// name scratch and is valid only until the next Ingest, which reuses
// it; a caller that keeps events across calls must copy the slice.
//
// Every error but a spill failure comes from Check's test and leaves
// the streamer as it was. A failed spill write is returned by the
// Ingest whose line it was; that event still counts in Events() and in
// the digest. From then on the streamer is stuck: Ingest, SaveState and
// Finish return the same error.
func (st *Streamer) Ingest(a Arrival) (DispatchEvent, error) {
	wp, err := st.check(&a)
	if err != nil {
		return DispatchEvent{}, err
	}
	// One line per event, in the one reused buffer: the digest's
	// separator ('[' before the first event, ',' after), the event, and
	// the spill's newline. The digest reads all but the newline, the
	// spill all but the separator, so the framing matches json.Marshal
	// over the full event slice ('[' e1 ',' e2 ... ']'; Finish writes
	// the close bracket).
	sep := byte(',')
	if st.d.seq == 0 {
		sep = '['
	}
	ev, err := st.d.dispatchOne(&a, wp, &st.names)
	if err != nil {
		return DispatchEvent{}, err
	}
	st.line = append(appendEvent(append(st.line[:0], sep), &ev), '\n')
	// The event is framed: the next arrival may reuse the name buffer's
	// space, which keeps steady-state memory independent of the arrival
	// count.
	st.names = st.names[:0]

	st.digest.Write(st.line[:len(st.line)-1])
	st.lastAt = a.At

	if st.spill != nil {
		if _, err := st.spill.Write(st.line[1:]); err != nil {
			st.err = fmt.Errorf("core: stream spill: %w", err)
			return DispatchEvent{}, st.err
		}
	}
	return ev, nil
}

// Check reports the error Ingest would return for a, without
// dispatching it: a stuck or finished stream, an arrival earlier than
// the stream's last one, an ill-shaped workflow, a benchmark the
// profile store lacks, or a load no empty GPU admits. Only a failure of
// a's own spill write escapes it. Dispatching other arrivals changes
// the answer only through the stream's last instant, so a time-ordered
// batch whose arrivals each pass Check is ingested whole.
func (st *Streamer) Check(a Arrival) error {
	_, err := st.check(&a)
	return err
}

// check is Check returning the arrival's profile, so Ingest builds it
// once.
func (st *Streamer) check(a *Arrival) (*WorkflowProfile, error) {
	if st.err != nil {
		return nil, st.err
	}
	if st.finished {
		return nil, fmt.Errorf("core: ingest after Finish")
	}
	if st.d.seq > 0 && a.At < st.lastAt {
		return nil, fmt.Errorf("core: out-of-order arrival %s at %v (stream is at %v)",
			a.Workflow.Name, a.At, st.lastAt)
	}
	wp, err := st.builder.Build(a.Workflow)
	if err != nil {
		return nil, err
	}
	if !st.d.fits(wp.Load()) {
		return nil, unadmittable(a, wp)
	}
	return wp, nil
}

// IngestAll drains a source through Ingest, returning the number of
// arrivals dispatched.
func (st *Streamer) IngestAll(src ArrivalSource) (int, error) {
	n := 0
	for {
		a, ok := src.Next()
		if !ok {
			return n, nil
		}
		if _, err := st.Ingest(a); err != nil {
			return n, err
		}
		n++
	}
}

// Events reports how many arrivals have been dispatched.
func (st *Streamer) Events() int64 { return st.d.seq }

// Stats returns the admission path's work counters so far.
func (st *Streamer) Stats() DispatchStats { return st.d.stats }

// WaitedS reports the total simulated queueing delay across all
// dispatched arrivals, in seconds — the streaming counterpart of
// summing DispatchEvent.WaitedS over a plan's log, which the streamer
// does not keep.
func (st *Streamer) WaitedS() float64 { return simtime.Time(st.d.waitedNS).Seconds() }

// Finish closes the stream: the dispatcher's telemetry folds into the
// shared registry, and the digest is finalized and returned as hex.
// Every event is already on the spill. The digest equals
// sha256(json.Marshal(events)) over the full dispatch log — the same
// value digestDispatches computes for a materialized plan.
func (st *Streamer) Finish() (string, error) {
	if st.err != nil {
		return "", st.err
	}
	if st.finished {
		return "", fmt.Errorf("core: Finish called twice")
	}
	st.finished = true
	if st.d.seq == 0 {
		st.digest.Write([]byte("[]"))
	} else {
		st.digest.Write([]byte{']'})
	}
	st.d.mergeObs(obs.Active())
	return hex.EncodeToString(st.digest.Sum(nil)), nil
}

// StreamState is a serializable snapshot of an in-flight streaming run:
// everything needed to resume dispatching on a fresh process and still
// produce the digest the uninterrupted run would have. Residents are
// saved in placement-serial order with the exact loads their aggregates
// fold over; restore re-folds by Add in that order, which reproduces
// every sum bit for bit (the aggregate invariant: sums equal the
// left-fold over the member list). A resident's serial is the sequence
// number of the dispatch that placed it, so every serial is below
// Events, the next dispatch's.
//
// The state holds no events: they are on the spill already, and the
// digest state carries their framing. A snapshot from a build that
// retained recent events under a "ring" key, or saved the next serial
// under "next_seq", still restores: encoding/json ignores the keys, and
// the continued digest still matches, though the lines a ring held
// never reach the new spill.
type StreamState struct {
	// GPUs pins the fleet shape; restore rejects a scheduler with a
	// different one.
	GPUs int `json:"gpus"`

	Events   int64          `json:"events"`
	LastAt   simtime.Time   `json:"last_at"`
	Stats    DispatchStats  `json:"stats"`
	WaitedNS int64          `json:"waited_ns"`
	Digest   []byte         `json:"digest_state"`
	Resident []residentSave `json:"residents"`
	Hists    streamHists    `json:"hists"`
	// Flight carries the decision-provenance ring when telemetry was
	// enabled at save time, so a resumed run's trail is byte-identical
	// to the uninterrupted one (nil when disabled).
	Flight *obs.FlightSnapshot `json:"flight,omitempty"`
}

// residentSave is one in-flight workflow in a stream snapshot.
type residentSave struct {
	GPU  int               `json:"gpu"`
	Name string            `json:"name"`
	End  simtime.Time      `json:"end"`
	Seq  uint64            `json:"seq"`
	Load interference.Load `json:"load"`
}

// streamHists is the dispatcher's telemetry in a stream snapshot.
type streamHists struct {
	Wait    obs.HistogramSnapshot `json:"wait"`
	Depth   obs.HistogramSnapshot `json:"depth"`
	Service obs.HistogramSnapshot `json:"service"`
}

// SaveState snapshots the run. The streamer stays usable; a snapshot is
// a point-in-time copy, not a handoff.
func (st *Streamer) SaveState() (*StreamState, error) {
	if st.err != nil {
		return nil, st.err
	}
	if st.finished {
		return nil, fmt.Errorf("core: SaveState after Finish")
	}
	digestState, err := st.digest.(encoding.BinaryMarshaler).MarshalBinary()
	if err != nil {
		return nil, err
	}
	state := &StreamState{
		GPUs:     st.d.pool.GPUs(),
		Events:   st.d.seq,
		LastAt:   st.lastAt,
		Stats:    st.d.stats,
		WaitedNS: st.d.waitedNS,
		Digest:   digestState,
		Hists: streamHists{
			Wait:    st.d.waitHist.Snapshot(),
			Depth:   st.d.depthHist.Snapshot(),
			Service: st.d.serviceHist.Snapshot(),
		},
	}
	for g := 0; g < st.d.pool.GPUs(); g++ {
		for j, r := range st.d.pool.Residents(g) {
			state.Resident = append(state.Resident, residentSave{
				GPU:  g,
				Name: r.name,
				End:  r.end,
				Seq:  r.seq,
				Load: st.d.pool.Load(g, j),
			})
		}
	}
	if st.d.fl != nil {
		fs := st.d.fl.Snapshot()
		state.Flight = &fs
	}
	// Placement-serial order: completion events must be re-scheduled in
	// their original schedule order so the heap's same-instant tie-breaks
	// replay identically.
	sort.Slice(state.Resident, func(i, j int) bool {
		return state.Resident[i].Seq < state.Resident[j].Seq
	})
	return state, nil
}

// RestoreStreamer resumes a saved streaming run on this scheduler. The
// scheduler must present the same fleet shape (GPU count) and profile
// store contents as the run that saved the state;
// continuing the resumed stream over the remaining arrivals produces
// byte-identical events — and the identical final digest — to the
// uninterrupted run (pinned by TestStreamSnapshotResume).
func (s *Scheduler) RestoreStreamer(cfg StreamConfig, state *StreamState) (*Streamer, error) {
	if state == nil {
		return nil, fmt.Errorf("core: nil stream state")
	}
	if state.GPUs != s.GPUs {
		return nil, fmt.Errorf("core: stream state saved for %d GPUs, scheduler has %d", state.GPUs, s.GPUs)
	}
	st, err := s.NewStreamer(cfg)
	if err != nil {
		return nil, err
	}
	// A snapshot without the histogram section (including one saved in
	// the older per-shard format) fails here rather than resuming with
	// silently zeroed telemetry.
	if !st.d.waitHist.Restore(state.Hists.Wait) || !st.d.depthHist.Restore(state.Hists.Depth) ||
		!st.d.serviceHist.Restore(state.Hists.Service) {
		return nil, fmt.Errorf("core: stream state histograms missing or bounds mismatched")
	}

	if state.Events < 0 {
		return nil, fmt.Errorf("core: stream state has %d events", state.Events)
	}
	for i, r := range state.Resident {
		if r.GPU < 0 || r.GPU >= s.GPUs {
			return nil, fmt.Errorf("core: stream state resident %q on GPU %d, fleet has %d", r.Name, r.GPU, s.GPUs)
		}
		if r.Seq >= uint64(state.Events) || (i > 0 && r.Seq <= state.Resident[i-1].Seq) {
			return nil, fmt.Errorf("core: stream state resident serials not strictly increasing below events")
		}
		// Admission seats no other load; the first-fit index assumes so.
		if l := r.Load; !nonNegFinite(l.SMPct) || !nonNegFinite(l.BWPct) || l.MemMiB < 0 || l.MemMiB > s.Device.MemoryMiB {
			return nil, fmt.Errorf("core: stream state resident %q has load %+v, which admission never seats", r.Name, l)
		}
		st.d.place(r.GPU, r.Load, r.Name, r.End, r.Seq)
	}
	if state.Flight != nil && st.d.fl != nil {
		if err := st.d.fl.Restore(*state.Flight); err != nil {
			return nil, fmt.Errorf("core: stream state flight: %w", err)
		}
	}
	if err := st.digest.(encoding.BinaryUnmarshaler).UnmarshalBinary(state.Digest); err != nil {
		return nil, fmt.Errorf("core: stream state digest: %w", err)
	}
	st.d.waitedNS = state.WaitedNS
	st.d.stats = state.Stats
	// Resume continues the uninterrupted dispatch numbering.
	st.d.seq = state.Events
	st.lastAt = state.LastAt
	return st, nil
}
