package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"testing"

	"gpushare/internal/simtime"
)

// FuzzAppendEvent pins appendEvent to its oracle: for any event a
// dispatcher could frame (any instant, GPU and finite wait, any name
// bytes, a nil, empty or filled co-resident list) it appends exactly
// json.Marshal's bytes, behind whatever the buffer already held.
func FuzzAppendEvent(f *testing.F) {
	for _, seed := range []struct {
		at, gpu    int64
		waited     float64
		name, a, b string
		list       uint8
	}{
		{0, 0, 0, "Kripke-1x", "", "", 0},
		{1_500_000_000, 3, 1.5, "w-17", "Kripke-4x", "AthenaPK-1x", 3},
		{-1, -7, math.Copysign(0, -1), "", "", "", 1},
		{math.MaxInt64, math.MaxInt64, 5e-324, "a\"b\\c", "x", "", 2},
		{math.MinInt64, math.MinInt64, math.SmallestNonzeroFloat64 * 3, "<script>&amp;", ">", "&", 4},
		{42, 1, 1e21, "\u2028line\u2029sep", "\u2028", "\u2029", 3},
		{42, 1, -1e21, "ctl\x00\x01\x1f\x7f", "\b\f\n\r\t", "\x0b", 3},
		{42, 1, 9.999999999999999e20, "bad\xff\xfeutf8", "\xc3", "\xe2\x80", 4},
		{42, 1, 1e-6, "ok\u00e9\ufffd", "\xed\xa0\x80", "\U0001F600", 3},
		{42, 1, 9.99e-7, "e-09", "", "", 2},
		{42, 1, 1e-9, "", "", "", 2},
		{42, 1, math.MaxFloat64, "max", "", "", 0},
		{42, 1, -math.MaxFloat64, "min", "", "", 1},
		{42, 1, 123456.789, "plain", "", "", 2},
	} {
		f.Add(seed.at, seed.gpu, math.Float64bits(seed.waited), seed.name, seed.a, seed.b, seed.list)
	}
	f.Fuzz(func(t *testing.T, at, gpu int64, waitedBits uint64, name, a, b string, list uint8) {
		waited := math.Float64frombits(waitedBits)
		if math.IsNaN(waited) || math.IsInf(waited, 0) {
			t.Skip("json.Marshal refuses non-finite floats; no dispatcher makes one")
		}
		ev := DispatchEvent{At: simtime.Time(at), Workflow: name, GPU: int(gpu), WaitedS: waited}
		switch list % 5 {
		case 1:
			ev.RunningAlongside = []string{}
		case 2:
			ev.RunningAlongside = []string{a}
		case 3:
			ev.RunningAlongside = []string{a, b}
		case 4:
			ev.RunningAlongside = []string{b, name, a}
		}
		want, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		prefix := []byte{'['}
		got := appendEvent(prefix, &ev)
		if !bytes.Equal(got[:1], prefix) || !bytes.Equal(got[1:], want) {
			t.Fatalf("appendEvent(%+v)\n got %q\nwant %q", ev, got[1:], want)
		}
	})
}

// TestStreamIngestAllocs pins Streamer.Ingest at zero allocations per
// arrival in steady state, with no spill and with one: the decision
// (TestDispatcherAdmitAllocs's half) plus framing, digest and spill.
// Two GPUs stay saturated, so arrivals wait, retire residents and
// frame co-resident lists; the names need escaping, so the encoder's
// escape paths run too. It is the runtime half of the //repro:hotpath
// annotations on appendEvent and its helpers.
func TestStreamIngestAllocs(t *testing.T) {
	store := suiteStore(t)
	const warm, runs = 400, 200
	arrivals := make([]Arrival, warm+runs+1)
	for i := range arrivals {
		bench := []string{"AthenaPK", "Kripke", "LAMMPS"}[i%3]
		name := fmt.Sprintf("w<%d>&\u2028\x01\"%s\"", i, bench)
		arrivals[i] = Arrival{At: at(float64(i) / 10), Workflow: wfOne(name, bench, "1x", 10)}
	}
	for _, spill := range []struct {
		name string
		w    io.Writer
	}{{"nil", nil}, {"discard", io.Discard}} {
		t.Run(spill.name, func(t *testing.T) {
			s := fleetScheduler(t, store, 2)
			st, err := s.NewStreamer(StreamConfig{Spill: spill.w})
			if err != nil {
				t.Fatal(err)
			}
			next, alongside := 0, 0
			ingest := func() {
				ev, err := st.Ingest(arrivals[next])
				if err != nil {
					t.Fatal(err)
				}
				next++
				alongside += len(ev.RunningAlongside)
			}
			for next < warm { // warm the profile memo, name chunk, line buffer and pool
				ingest()
			}
			before := st.Stats()
			if allocs := testing.AllocsPerRun(runs, ingest); allocs != 0 {
				t.Fatalf("Ingest allocated %.2f objects per arrival, want 0", allocs)
			}
			after := st.Stats()
			if after.Waits == before.Waits || after.Completions == before.Completions || alongside == 0 {
				t.Fatalf("pin never exercised a saturated fleet (waits %d->%d, completions %d->%d, co-residents %d)",
					before.Waits, after.Waits, before.Completions, after.Completions, alongside)
			}
		})
	}
}
