package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"
	"unsafe"
)

func flightRec(seq int64, kind FlightKind, gpu int32) FlightRecord {
	return FlightRecord{Seq: seq, Kind: kind, AtNS: seq * 1000, GPU: gpu}
}

func TestFlightNilSafety(t *testing.T) {
	var f *Flight
	f.Record(flightRec(1, FlightScan, 0))
	f.SetSpill(&bytes.Buffer{})
	if err := f.SpillErr(); err != nil {
		t.Fatalf("nil flight spill err: %v", err)
	}
	if err := f.Restore(FlightSnapshot{}); err != nil {
		t.Fatalf("nil flight restore: %v", err)
	}
	s := f.Snapshot()
	if s.Total != 0 || s.Records == nil || len(s.Records) != 0 {
		t.Fatalf("nil flight snapshot = %+v", s)
	}

	var h *Hub
	if h.FlightRecorder() != nil {
		t.Fatal("nil hub returned a recorder")
	}
	d := h.Dump()
	if d.Flight.Records == nil || d.Metrics.Counters == nil {
		t.Fatalf("nil hub dump has nil sections: %+v", d)
	}
}

func TestFlightRecordAndSnapshot(t *testing.T) {
	f := NewFlight(3)
	for seq := int64(1); seq <= 5; seq++ {
		f.Record(flightRec(seq, FlightScan, int32(seq)))
	}
	s := f.Snapshot()
	if s.Capacity != 3 || s.Total != 5 || s.Dropped != 2 || s.Spilled != 0 {
		t.Fatalf("accounting = %+v", s)
	}
	if len(s.Records) != 3 || s.Records[0].Seq != 3 || s.Records[2].Seq != 5 {
		t.Fatalf("retained window = %+v", s.Records)
	}
}

func TestFlightSpillJSONL(t *testing.T) {
	f := NewFlight(2)
	var spill bytes.Buffer
	f.SetSpill(&spill)
	for seq := int64(1); seq <= 4; seq++ {
		f.Record(flightRec(seq, FlightDispatch, -1))
	}
	s := f.Snapshot()
	if s.Spilled != 2 || s.Dropped != 0 {
		t.Fatalf("accounting = %+v", s)
	}
	lines := strings.Split(strings.TrimSuffix(spill.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("spill lines = %q", lines)
	}
	for i, line := range lines {
		var r FlightRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("spill line %d not JSON: %v", i, err)
		}
		if r.Seq != int64(i+1) || r.Kind != FlightDispatch {
			t.Fatalf("spill line %d = %+v", i, r)
		}
	}
	if err := f.SpillErr(); err != nil {
		t.Fatal(err)
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errors.New("write refused") }

func TestFlightSpillError(t *testing.T) {
	f := NewFlight(1)
	f.SetSpill(failWriter{})
	f.Record(flightRec(1, FlightScan, 0))
	f.Record(flightRec(2, FlightScan, 0)) // evicts 1, spill fails
	f.Record(flightRec(3, FlightScan, 0)) // evicts 2, spill disabled
	if err := f.SpillErr(); err == nil {
		t.Fatal("spill error not surfaced")
	}
	s := f.Snapshot()
	if s.Spilled != 0 || s.Dropped != 2 {
		t.Fatalf("accounting after spill failure = %+v", s)
	}
}

func TestFlightRestoreRoundTrip(t *testing.T) {
	f := NewFlight(4)
	for seq := int64(1); seq <= 6; seq++ {
		r := flightRec(seq, FlightScan, int32(seq%3))
		r.Tenant = "tenant-a"
		r.Rules = 0x5
		r.SMExcessMilli = seq * 100
		f.Record(r)
	}
	snap := f.Snapshot()

	fresh := NewFlight(4)
	if err := fresh.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh.Snapshot(), snap) {
		t.Fatalf("restored snapshot diverged:\n%+v\nvs\n%+v", fresh.Snapshot(), snap)
	}

	small := NewFlight(2)
	if err := small.Restore(snap); err == nil {
		t.Fatal("restore into a smaller ring did not fail")
	}
}

// TestFlightSnapshotBytesStable pins the golden-diff contract: the same
// decision stream marshals to the same bytes, and the record JSON field
// order is the struct order (no map anywhere in the dump).
func TestFlightSnapshotBytesStable(t *testing.T) {
	build := func() []byte {
		f := NewFlight(8)
		f.Record(FlightRecord{Seq: 1, Kind: FlightArrival, GPU: -1, Workflow: "cfd"})
		f.Record(FlightRecord{Seq: 1, Kind: FlightScan, GPU: 0, Clients: 2, Rules: 1, SMExcessMilli: 1500})
		f.Record(FlightRecord{Seq: 1, Kind: FlightDispatch, GPU: 1, WaitNS: 250})
		data, err := json.Marshal(f.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := build(), build()
	if !bytes.Equal(a, b) {
		t.Fatalf("snapshot bytes unstable:\n%s\nvs\n%s", a, b)
	}
	if !bytes.Contains(a, []byte(`"sm_excess_milli":1500`)) {
		t.Fatalf("snapshot missing reason fields: %s", a)
	}
}

func TestFlightKindString(t *testing.T) {
	cases := map[FlightKind]string{
		FlightArrival:  "arrival",
		FlightKind(1):  "probe",
		FlightWait:     "wait",
		FlightDispatch: "dispatch",
		FlightReject:   "reject",
		FlightWhatIf:   "what-if",
		FlightEvict:    "evict",
		FlightHold:     "hold",
		FlightScan:     "scan",
		FlightKind(99): "kind(99)",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("FlightKind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

// TestFlightKindWireNumbers pins the kinds' wire numbers: dumps and
// stream states carry them, so retiring a kind must not renumber the
// rest.
func TestFlightKindWireNumbers(t *testing.T) {
	got := []FlightKind{FlightArrival, FlightWait, FlightDispatch, FlightReject,
		FlightWhatIf, FlightEvict, FlightHold, FlightScan}
	want := []FlightKind{0, 2, 3, 4, 5, 6, 7, 8}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("flight kind wire numbers = %v, want %v", got, want)
	}
}

// TestFlightRecordSize pins the record at 136 bytes or less: every
// scan copies one into the ring under the recorder's mutex.
func TestFlightRecordSize(t *testing.T) {
	if size := unsafe.Sizeof(FlightRecord{}); size > 136 {
		t.Fatalf("FlightRecord is %d bytes, want <= 136", size)
	}
}

// TestScanTallySummary pins the scan record's field mapping: visits
// are what was tallied, the winner's included, each rule counts the
// GPUs it rejected, a GPU breaking two rules counts under both, and a
// range rejection counts its GPUs without visits.
func TestScanTallySummary(t *testing.T) {
	var tally ScanTally
	// Visited leaves rejected at the client cap, by compute and
	// bandwidth, by capacity, and at the client cap again.
	for _, rules := range []uint8{8, 1 | 2, 4, 8} {
		tally.Visit(1)
		tally.RejectRange(rules, 1)
	}
	tally.Visit(1) // the winner
	got := tally.Summary(5, 1000, 4)
	want := FlightRecord{Seq: 5, Kind: FlightScan, AtNS: 1000, GPU: 4, Clients: 5, Rules: 15,
		SMExcessMilli: 1, BWExcessMilli: 1, MemExcessMiB: 1, CapSkips: 2}
	if got != want {
		t.Fatalf("summary = %+v, want %+v", got, want)
	}
	tally.RejectRange(4|8, 6)
	want.Rules, want.MemExcessMiB, want.CapSkips, want.GPU = 15, 7, 8, -1
	if got := tally.Summary(5, 1000, -1); got != want {
		t.Fatalf("after a range rejection: summary = %+v, want %+v", got, want)
	}
	var empty ScanTally
	if got := empty.Summary(1, 0, -1); got.Clients != 0 || got.Rules != 0 {
		t.Fatalf("empty scan = %+v, want no visits and no rules", got)
	}
}

// TestFlightRecordAllocs is the runtime half of the //repro:hotpath
// annotations on Record and ScanTally: recording on a nil recorder
// (telemetry disabled) and on a live recorder without a spill writer
// both allocate nothing — even while the full ring is evicting on every
// push — and neither does tallying a scan.
func TestFlightRecordAllocs(t *testing.T) {
	rec := flightRec(7, FlightScan, 3)
	var tally ScanTally
	if allocs := testing.AllocsPerRun(200, func() {
		tally.RejectRange(3, 2)
		tally.Visit(1)
		rec = tally.Summary(7, 0, 3)
	}); allocs != 0 {
		t.Fatalf("ScanTally allocated %.1f objects, want 0", allocs)
	}

	var disabled *Flight
	if allocs := testing.AllocsPerRun(200, func() { disabled.Record(rec) }); allocs != 0 {
		t.Fatalf("nil Record allocated %.1f objects, want 0", allocs)
	}

	f := NewFlight(16)
	for i := 0; i < 32; i++ { // saturate so every Record evicts
		f.Record(rec)
	}
	if allocs := testing.AllocsPerRun(200, func() { f.Record(rec) }); allocs != 0 {
		t.Fatalf("enabled Record allocated %.1f objects, want 0", allocs)
	}
}

func TestHubDump(t *testing.T) {
	h := NewHub(nil)
	h.Counter("decisions").Add(2)
	h.FlightRecorder().Record(flightRec(1, FlightDispatch, 0))
	d := h.Dump()
	if d.Flight.Total != 1 || d.Metrics.Counters["decisions"] != 2 {
		t.Fatalf("dump = %+v", d)
	}
	var buf bytes.Buffer
	if err := d.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(buf.String(), "\n") || !strings.Contains(buf.String(), `"flight"`) {
		t.Fatalf("dump JSON framing: %q", buf.String())
	}
}

// TestRingBasics pins the flight ring's FIFO window: pushes fill it
// without evicting, then each push evicts the oldest record, and reset
// empties it with its capacity kept.
func TestRingBasics(t *testing.T) {
	r := ring{buf: make([]FlightRecord, 3)}
	if got := r.snapshot(nil); len(got) != 0 {
		t.Fatalf("fresh ring holds %v", got)
	}
	for i := int64(1); i <= 3; i++ {
		if _, ev := r.push(FlightRecord{Seq: i}); ev {
			t.Fatalf("push %d evicted before full", i)
		}
	}
	for i := int64(4); i <= 5; i++ {
		if old, ev := r.push(FlightRecord{Seq: i}); !ev || old.Seq != i-3 {
			t.Fatalf("push %d: evicted=%v old=%d, want true %d", i, ev, old.Seq, i-3)
		}
	}
	snap := r.snapshot(nil)
	if len(snap) != 3 || snap[0].Seq != 3 || snap[1].Seq != 4 || snap[2].Seq != 5 {
		t.Fatalf("snapshot = %+v, want seqs 3 4 5", snap)
	}
	r.reset()
	if got := r.snapshot(nil); len(got) != 0 || len(r.buf) != 3 {
		t.Fatalf("after reset: %v, capacity %d", got, len(r.buf))
	}
}

// TestRingPanics pins that a recorder without room is refused at
// construction.
func TestRingPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFlight(0) did not panic")
		}
	}()
	NewFlight(0)
}
