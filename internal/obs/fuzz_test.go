package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

// FuzzFlightRing drives the flight recorder against a plain-slice
// reference model: any record sequence must retain exactly the last
// `capacity` records and survive a snapshot/restore round trip into a
// fresh recorder with a bit-identical snapshot — the property the
// streamer's resume path depends on. A capacity byte with its high bit
// set installs a spill, and the spilled JSONL lines must be the model's
// evicted records in eviction order; otherwise every eviction counts as
// dropped.
func FuzzFlightRing(f *testing.F) {
	f.Add(uint8(4), []byte{1, 2, 3, 4, 5, 6})
	f.Add(uint8(1), []byte{9, 9, 9})
	f.Add(uint8(7), []byte{})
	f.Add(uint8(0), []byte{0, 255, 7, 7, 128, 3})
	f.Add(uint8(0x82), []byte{1, 2, 3, 4, 5, 6, 7})
	f.Fuzz(func(t *testing.T, capacity uint8, ops []byte) {
		capN := int(capacity%16) + 1
		spill := capacity&0x80 != 0
		fl := NewFlight(capN)
		var spilled bytes.Buffer
		if spill {
			fl.SetSpill(&spilled)
		}
		var model, evicted []FlightRecord
		for i, op := range ops {
			r := FlightRecord{
				Seq:           int64(i / 3),
				Kind:          FlightKind(op % 8),
				AtNS:          int64(i) * 100,
				GPU:           int32(op%5) - 1,
				Clients:       int32(op % 4),
				Rules:         op % 16,
				SMExcessMilli: int64(op) * 7,
				WaitNS:        int64(op%2) * 900,
			}
			fl.Record(r)
			model = append(model, r)
			if len(model) > capN {
				evicted = append(evicted, model[0])
				model = model[1:]
			}
		}
		s := fl.Snapshot()
		wantSpilled, wantDropped := int64(0), int64(len(evicted))
		if spill {
			wantSpilled, wantDropped = wantDropped, 0
		}
		if s.Total != int64(len(ops)) || s.Dropped != wantDropped || s.Spilled != wantSpilled {
			t.Fatalf("accounting = %+v, want total %d spilled %d dropped %d", s, len(ops), wantSpilled, wantDropped)
		}
		if len(s.Records) != len(model) {
			t.Fatalf("retained %d records, model %d", len(s.Records), len(model))
		}
		for i := range model {
			if s.Records[i] != model[i] {
				t.Fatalf("record %d = %+v, model %+v", i, s.Records[i], model[i])
			}
		}
		var lines []FlightRecord
		for sc := bufio.NewScanner(&spilled); sc.Scan(); {
			var r FlightRecord
			if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
				t.Fatalf("spill line %q: %v", sc.Text(), err)
			}
			lines = append(lines, r)
		}
		if spill && !reflect.DeepEqual(lines, evicted) || !spill && len(lines) != 0 {
			t.Fatalf("spilled %+v, model evicted %+v (spill installed %v)", lines, evicted, spill)
		}

		fresh := NewFlight(capN)
		var freshSpilled bytes.Buffer
		if spill {
			fresh.SetSpill(&freshSpilled)
		}
		if err := fresh.Restore(s); err != nil {
			t.Fatalf("restore: %v", err)
		}
		if !reflect.DeepEqual(fresh.Snapshot(), s) {
			t.Fatal("restore round trip diverged")
		}
		// The restored recorder must keep evicting like the original.
		extra := FlightRecord{Seq: 999, Kind: FlightDispatch, GPU: -1}
		spilled.Reset()
		fl.Record(extra)
		fresh.Record(extra)
		if !reflect.DeepEqual(fresh.Snapshot(), fl.Snapshot()) || !bytes.Equal(freshSpilled.Bytes(), spilled.Bytes()) {
			t.Fatal("post-restore recording diverged from uninterrupted recorder")
		}
	})
}
