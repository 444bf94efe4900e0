package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"gpushare/internal/arena"
)

// Flight is the decision-provenance recorder: an arena-backed ring of
// the last N scheduling decisions (arrivals, first-fit scan summaries
// with per-rule rejection counts, wait spans, dispatches, preemption
// what-ifs). It answers "which rules kept this gang off every GPU?"
// after the fact, without re-running the dispatch — the `gpusched
// explain` subcommand and GET /debug/flight read its snapshot.
//
// The recorder lives under the same determinism contract as the metrics
// registry (DESIGN.md §10/§15): records carry sim-time and integer-
// scaled magnitudes only, and callers emit them in decision order — so
// the snapshot is byte-identical at any -j. Like every obs
// type, a nil *Flight is a no-op, and Record on a live recorder with no
// spill writer allocates nothing.

// FlightKind discriminates decision-trail records.
type FlightKind uint8

const (
	// FlightArrival marks a workload entering the dispatcher or a tenant
	// queue.
	FlightArrival FlightKind = iota
	// Wire number 1 was the retired per-GPU probe record; FlightScan
	// summarizes a whole scan instead. The slot stays reserved so every
	// other kind keeps its number in dumps and stream states.
	_
	// FlightWait marks the dispatcher blocking an arrival until the next
	// completion frees capacity.
	FlightWait
	// FlightDispatch is the final placement decision.
	FlightDispatch
	// FlightReject marks a decision that failed on every candidate in a
	// round (cluster gangs held for a later round record FlightHold
	// instead).
	FlightReject
	// FlightWhatIf is a preemption feasibility probe: a read-only fold
	// over the GPU's residents with the would-be victims left out.
	// Detail is "fit=true" or "fit=false".
	FlightWhatIf
	// FlightEvict marks a committed preemption (the victim gang's view).
	FlightEvict
	// FlightHold marks a gang parked in its tenant queue after a failed
	// placement round. A retry skipped because no GPU the gang could
	// use changed carries Detail "unchanged" and, in Clients, the
	// changed GPUs it re-checked.
	FlightHold
	// FlightScan summarizes one first-fit scan: the winner, the GPUs
	// visited and the rejections per rule (field mapping on
	// FlightRecord).
	FlightScan
)

// flightKindNames orders the kinds for rendering. The retired kind 1
// keeps its name so older dumps still render.
var flightKindNames = [...]string{
	"arrival", "probe", "wait", "dispatch", "reject", "what-if", "evict", "hold", "scan",
}

// String renders the kind for decision-trail output.
func (k FlightKind) String() string {
	if int(k) < len(flightKindNames) {
		return flightKindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// FlightRecord is one decision-trail entry. Every field is a fixed-
// layout integer or a small string, so records compare and marshal
// deterministically; the JSON field order is the struct order.
//
// A FlightScan record reuses the GPU-verdict fields as counts: GPU is
// the winner (-1 when no GPU admitted), Clients the visits (GPUs
// walked, client-cap skips included, in the cluster; index nodes
// examined in core), Rules the union of the rejection masks,
// SMExcessMilli / BWExcessMilli / MemExcessMiB the GPUs rejected by
// compute, bandwidth and capacity, and CapSkips those rejected at the
// client cap. A GPU rejected under an index node counts like a visited
// one, and a GPU that breaks several rules counts once under each.
type FlightRecord struct {
	// Seq is the decision's arrival sequence number — the key `explain
	// -seq` groups a trail by. Cluster records use the gang sequence.
	Seq int64 `json:"seq"`
	// Kind discriminates the record.
	Kind FlightKind `json:"kind"`
	// AtNS is the sim-time of the decision step in nanoseconds.
	AtNS int64 `json:"at_ns"`
	// Tenant and Workflow name the subject (empty outside the cluster
	// layer / when not applicable).
	Tenant   string `json:"tenant,omitempty"`
	Workflow string `json:"workflow,omitempty"`
	// Node names the cluster node of GPU; empty on the single-pool path.
	Node string `json:"node,omitempty"`
	// GPU is the GPU index placed on, evicted from or checked by a
	// what-if (node-local in the cluster), or a scan's winner; -1 when
	// the record is not about one GPU.
	GPU int32 `json:"gpu"`
	// Clients is the resident client count on GPU at decision time; a
	// scan's visits; a skipped hold's re-checked GPUs.
	Clients int32 `json:"clients,omitempty"`
	// Rules is a scan's union of rejection masks (interference.RuleMask).
	Rules uint8 `json:"rules,omitempty"`
	// CapSkips counts a scan's client-cap rejections. It sits in the
	// padding after Rules, so the record stays 136 bytes.
	CapSkips int32 `json:"cap_skips,omitempty"`
	// SMExcessMilli / BWExcessMilli / MemExcessMiB count a scan's
	// compute, bandwidth and capacity rejections. The names and JSON
	// keys date from the retired per-GPU probe record, which carried
	// the violation magnitudes here.
	SMExcessMilli int64 `json:"sm_excess_milli,omitempty"`
	BWExcessMilli int64 `json:"bw_excess_milli,omitempty"`
	MemExcessMiB  int64 `json:"mem_excess_mib,omitempty"`
	// WaitNS is the span covered by a wait record, or the total queue
	// wait carried on a dispatch record, in sim nanoseconds.
	WaitNS int64 `json:"wait_ns,omitempty"`
	// Detail carries kind-specific context (what-if verdicts, the
	// preemptor an evicted gang names). Producers must build it
	// deterministically.
	Detail string `json:"detail,omitempty"`
}

// ScanTally accumulates one first-fit scan's FlightScan summary. A
// dispatcher feeds it only while recording, so a scan with telemetry
// off pays nothing for it. Rule bits follow interference.RuleMask:
// compute, bandwidth, capacity, client cap. The zero value is an empty
// scan.
type ScanTally struct {
	visits int32
	rules  uint8
	counts [4]int32
}

// Visit tallies n visits: GPUs walked one by one, or the nodes an
// indexed scan examined.
//
//repro:hotpath pinned by TestFlightRecordAllocs
func (t *ScanTally) Visit(n int32) { t.visits += n }

// Reject tallies one visited GPU that rejected the candidate with the
// rule mask rules.
//
//repro:hotpath pinned by TestFlightRecordAllocs
func (t *ScanTally) Reject(rules uint8) {
	t.visits++
	t.RejectRange(rules, 1)
}

// RejectRange tallies gpus GPUs that reject the candidate with the
// rule mask rules without a visit each: the GPUs under an index node
// whose bound already breaks those rules.
//
//repro:hotpath pinned by TestFlightRecordAllocs
func (t *ScanTally) RejectRange(rules uint8, gpus int32) {
	t.rules |= rules
	t.counts[0] += gpus * int32(rules&1)
	t.counts[1] += gpus * int32(rules>>1&1)
	t.counts[2] += gpus * int32(rules>>2&1)
	t.counts[3] += gpus * int32(rules>>3&1)
}

// Summary returns the tallied scan's FlightScan record with winner gpu,
// or -1 when none admitted. The winner's visit is tallied like any
// other.
//
//repro:hotpath pinned by TestFlightRecordAllocs
func (t *ScanTally) Summary(seq, atNS int64, gpu int32) FlightRecord {
	return FlightRecord{
		Seq: seq, Kind: FlightScan, AtNS: atNS, GPU: gpu,
		Clients: t.visits, Rules: t.rules,
		SMExcessMilli: int64(t.counts[0]),
		BWExcessMilli: int64(t.counts[1]),
		MemExcessMiB:  int64(t.counts[2]),
		CapSkips:      t.counts[3],
	}
}

// Flight records FlightRecords into a fixed-capacity ring; once full,
// the oldest record is either spilled as one JSONL line (streaming
// path) or counted as dropped. Safe for concurrent use — recording is
// serialized under one mutex so /debug/flight can snapshot while a
// dispatch runs.
type Flight struct {
	mu       sync.Mutex
	ring     *arena.Ring[FlightRecord]
	total    int64
	spilled  int64
	dropped  int64
	spill    io.Writer
	spillErr error
}

// DefaultFlightCapacity is the ring size NewHub installs.
const DefaultFlightCapacity = 4096

// NewFlight returns a recorder retaining the last capacity records.
// Capacity must be positive.
func NewFlight(capacity int) *Flight {
	return &Flight{ring: arena.NewRing[FlightRecord](capacity)}
}

// SetSpill installs w as the JSONL spill sink for evicted records (nil
// disables spilling; evictions are then counted as dropped). Not safe
// to change while recording.
func (f *Flight) SetSpill(w io.Writer) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.spill = w
	f.spillErr = nil
	f.mu.Unlock()
}

// SpillErr returns the first error the spill writer reported; spilling
// stops (and records drop) after the first failure.
func (f *Flight) SpillErr() error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.spillErr
}

// Record appends one decision record. With no spill writer installed
// the call allocates nothing — the ring either has room or silently
// drops its oldest entry (counted) — so hot paths record
// unconditionally.
//
//repro:hotpath pinned by TestFlightRecordAllocs
func (f *Flight) Record(r FlightRecord) {
	if f == nil {
		return
	}
	f.mu.Lock()
	old, evicted := f.ring.Push(r)
	f.total++
	if evicted {
		if f.spill != nil && f.spillErr == nil {
			f.writeSpill(old)
		} else {
			f.dropped++
		}
	}
	f.mu.Unlock()
}

// writeSpill emits one evicted record as a JSONL line. Called with
// f.mu held and f.spill non-nil.
func (f *Flight) writeSpill(r FlightRecord) {
	data, err := json.Marshal(r) //repro:allow:hotpathalloc spill path is opt-in and off the 0-alloc contract
	if err != nil {
		f.spillErr = fmt.Errorf("obs: marshal flight record: %w", err) //repro:allow:hotpathalloc spill path is opt-in and off the 0-alloc contract
		f.dropped++
		return
	}
	data = append(data, '\n') //repro:allow:hotpathalloc spill path is opt-in and off the 0-alloc contract
	if _, err := f.spill.Write(data); err != nil {
		f.spillErr = fmt.Errorf("obs: spill flight record: %w", err) //repro:allow:hotpathalloc spill path is opt-in and off the 0-alloc contract
		f.dropped++
		return
	}
	f.spilled++
}

// FlightSnapshot is the exported recorder state: the retained records
// oldest-first plus the lifetime accounting. Identical decision
// streams produce identical snapshots, and json.Marshal of the struct
// is byte-stable, so snapshots diff exactly across runs.
type FlightSnapshot struct {
	Capacity int            `json:"capacity"`
	Total    int64          `json:"total"`
	Spilled  int64          `json:"spilled"`
	Dropped  int64          `json:"dropped"`
	Records  []FlightRecord `json:"records"`
}

// Snapshot copies the current state. A nil recorder yields a zero
// snapshot with an empty (non-nil) record slice so the JSON shape is
// stable.
func (f *Flight) Snapshot() FlightSnapshot {
	s := FlightSnapshot{Records: []FlightRecord{}}
	if f == nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	s.Capacity = f.ring.Cap()
	s.Total = f.total
	s.Spilled = f.spilled
	s.Dropped = f.dropped
	s.Records = f.ring.Snapshot(s.Records)
	return s
}

// Restore overwrites the recorder from a snapshot (the streaming
// dispatcher reloads flight state on resume so an interrupted run's
// trail matches the uninterrupted one). The snapshot must fit the
// recorder's capacity.
func (f *Flight) Restore(s FlightSnapshot) error {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(s.Records) > f.ring.Cap() {
		return fmt.Errorf("obs: flight restore: %d records exceed capacity %d", len(s.Records), f.ring.Cap())
	}
	f.ring.Reset()
	for _, r := range s.Records {
		f.ring.Push(r)
	}
	f.total = s.Total
	f.spilled = s.Spilled
	f.dropped = s.Dropped
	return nil
}

// FlightDump is the wire format served by GET /debug/flight and written
// by the CLIs' -flight-out: the decision trail plus the metrics
// snapshot whose histograms carry the tenant latency quantiles.
type FlightDump struct {
	Flight  FlightSnapshot `json:"flight"`
	Metrics Snapshot       `json:"metrics"`
}

// WriteJSON writes the dump as indented JSON with a trailing newline,
// matching the registry snapshot framing.
func (d FlightDump) WriteJSON(w io.Writer) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return fmt.Errorf("obs: marshal flight dump: %w", err)
	}
	data = append(data, '\n')
	if _, err := w.Write(data); err != nil {
		return fmt.Errorf("obs: write flight dump: %w", err)
	}
	return nil
}

// Dump captures the hub's flight snapshot and metrics snapshot
// together. Nil-safe like every hub method.
func (h *Hub) Dump() FlightDump {
	d := FlightDump{Flight: (*Flight)(nil).Snapshot()}
	if h == nil {
		d.Metrics = (*Registry)(nil).Snapshot()
		return d
	}
	d.Flight = h.Flight.Snapshot()
	d.Metrics = h.Metrics.Snapshot()
	return d
}
