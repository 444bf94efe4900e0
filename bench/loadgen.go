package main

import (
	"fmt"
	"runtime"
	"time"
)

// clock is the load generator's time source; tests substitute a fake.
type clock interface {
	now() time.Duration
	sleepUntil(t time.Duration)
}

// spinWindow is how long before a due time the generator stops sleeping
// and starts spinning: time.Sleep overshoots by about 150us at p50 and
// 760us at p99 on a 2-core host, more than a request's service time.
const spinWindow = 300 * time.Microsecond

type wallClock struct{ t0 time.Time }

func (c wallClock) now() time.Duration { return time.Since(c.t0) }

func (c wallClock) sleepUntil(t time.Duration) {
	if d := t - c.now() - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for c.now() < t {
		runtime.Gosched()
	}
}

// rungResult is one open-loop rate's outcome. Latency counts from each
// request's due time, so a stall also charges the requests queued behind
// it; genLate is how late the generator itself sent a request once the
// connection was free, the check that the schedule was really kept.
type rungResult struct {
	latency hist
	// samples are the latencies in send order, for per-window statistics.
	samples []time.Duration
	genLate hist
	sent    int
	// endLag is the mean send lag (send time minus due time) over the
	// last tenth of the requests: a backlog that grows through the rung
	// shows here.
	endLag  time.Duration
	aborted bool
}

// maxLate aborts a rung whose send lag passes it: the system is so far
// behind that further sends measure only the backlog.
const maxLate = time.Second

// openLoop sends n requests on a fixed schedule of one every interval,
// each after the previous one completed (one connection), and never
// slows the schedule for a slow reply.
func openLoop(clk clock, interval time.Duration, n int, send func(i int) error) (*rungResult, error) {
	r := &rungResult{samples: make([]time.Duration, 0, n)}
	start := clk.now()
	prevEnd := start
	tailFrom := n - n/10
	if tailFrom >= n {
		tailFrom = n - 1
	}
	var tailLag time.Duration
	for i := 0; i < n; i++ {
		due := start + time.Duration(float64(i)*float64(interval))
		clk.sleepUntil(due)
		t0 := clk.now()
		lag := t0 - due
		if lag > maxLate {
			r.aborted = true
			return r, nil
		}
		free := due
		if prevEnd > free {
			free = prevEnd
		}
		r.genLate.record(t0 - free)
		if err := send(i); err != nil {
			return r, fmt.Errorf("request %d: %w", i, err)
		}
		t1 := clk.now()
		r.latency.record(t1 - due)
		r.samples = append(r.samples, t1-due)
		r.sent++
		prevEnd = t1
		if i >= tailFrom {
			tailLag += lag
		}
	}
	if n > 0 {
		r.endLag = tailLag / time.Duration(n-tailFrom)
	}
	return r, nil
}
