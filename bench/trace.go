package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"gpushare/internal/obs"
	gtrace "gpushare/internal/trace"
)

// tracer records spans around the benchmark's own calls into the
// system's public functions. Spans go into a buffer sized up front; once
// it is full further spans are counted as dropped, so tracing never
// allocates on a measured path. A nil *tracer records nothing.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
	dropped  int
}

type span struct {
	name       string
	seq        int64 // trace id within the workload: pass, plan or request number
	parent     int32 // index of the enclosing span, -1 for a root
	start, end time.Duration
}

func newTracer(workload string, capacity int) *tracer {
	return &tracer{workload: workload, t0: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span and returns its id (-1 when nothing is recorded).
func (t *tracer) begin(name string, seq int64, parent int32) int32 {
	if t == nil {
		return -1
	}
	return t.add(name, seq, parent, time.Since(t.t0), 0)
}

// end closes span id.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = time.Since(t.t0)
}

// add records a complete span from instants the caller already took.
func (t *tracer) add(name string, seq int64, parent int32, start, end time.Duration) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name: name, seq: seq, parent: parent, start: start, end: end})
	return int32(len(t.spans) - 1)
}

// since converts an absolute instant to the tracer's time base.
func (t *tracer) since(at time.Time) time.Duration { return at.Sub(t.t0) }

// selfTime is one span name's share of the traced run: its total
// duration less the part its child spans cover.
type selfTime struct {
	name  string
	count int
	total time.Duration
	self  time.Duration
}

func (t *tracer) selfTimes() []selfTime {
	if t == nil {
		return nil
	}
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.end - s.start
		}
	}
	byName := map[string]*selfTime{}
	var order []string
	for i, s := range t.spans {
		st := byName[s.name]
		if st == nil {
			st = &selfTime{name: s.name}
			byName[s.name] = st
			order = append(order, s.name)
		}
		st.count++
		st.total += s.end - s.start
		st.self += s.end - s.start - child[i]
	}
	out := make([]selfTime, 0, len(order))
	for _, n := range order {
		out = append(out, *byName[n])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// report prints the per-span-name self times.
func (t *tracer) report(w io.Writer) {
	fmt.Fprintf(w, "trace: %d spans (%d dropped); self time by span:\n", len(t.spans), t.dropped)
	for _, st := range t.selfTimes() {
		fmt.Fprintf(w, "  %-22s n=%-8d total %10.3fms  self %10.3fms\n",
			st.name, st.count, float64(st.total)/1e6, float64(st.self)/1e6)
	}
}

// writeChrome writes the spans as Chrome trace-event JSON through the
// repository's trace writer. The trace id (workload/seq) and the parent
// span ride in each event's detail.
func (t *tracer) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	data := make([]obs.SpanData, len(t.spans))
	for i, s := range t.spans {
		parent := "-"
		if s.parent >= 0 {
			parent = t.spans[s.parent].name
		}
		data[i] = obs.SpanData{
			Track:  t.workload,
			Name:   s.name,
			Detail: fmt.Sprintf("trace=%s/%d parent=%s", t.workload, s.seq, parent),
			Mode:   obs.WallTime,
			Start:  int64(s.start),
			End:    int64(s.end),
		}
	}
	tw := gtrace.NewWriter(bw)
	werr := tw.Spans(data, gtrace.PidObsSim, gtrace.PidObsWall)
	cerr := tw.Close()
	ferr := bw.Flush()
	if err := f.Close(); err != nil && ferr == nil {
		ferr = err
	}
	for _, e := range []error{werr, cerr, ferr} {
		if e != nil {
			return fmt.Errorf("write trace %s: %w", path, e)
		}
	}
	return nil
}
