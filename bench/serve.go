package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"gpushare/internal/core"
	"gpushare/internal/obs"
	"gpushare/internal/simtime"
)

// wireArrival is the /ingest wire form of one arrival.
type wireArrival struct {
	AtS   float64    `json:"at_s"`
	Name  string     `json:"name"`
	Tasks []wireTask `json:"tasks"`
}

type wireTask struct {
	Benchmark  string `json:"benchmark"`
	Size       string `json:"size"`
	Iterations int    `json:"iterations"`
}

// servedArrivals draws the seeded fleet stream as the wire carries it:
// each arrival's instant goes out in seconds, and the returned
// core.Arrival is the one the server decodes from it, which the
// in-process replay ingests.
type servedArrivals struct{ src *core.FleetSource }

func newServedArrivals(n, gpus int, seed uint64) (*servedArrivals, error) {
	src, _, err := core.NewFleetSource(device, core.FleetSpec{Workflows: n, TargetGPUs: gpus, Seed: seed})
	return &servedArrivals{src: src}, err
}

func (s *servedArrivals) next() (wireArrival, core.Arrival) {
	a, ok := s.src.Next()
	if !ok {
		panic("bench: served arrival stream exhausted") // sizes the stream from the phase plan
	}
	w := wireArrival{AtS: a.At.Seconds(), Name: a.Workflow.Name}
	for _, t := range a.Workflow.Tasks {
		w.Tasks = append(w.Tasks, wireTask{Benchmark: t.Benchmark, Size: t.Size, Iterations: t.Iterations})
	}
	a.At = simtime.Zero.Add(simtime.FromSeconds(w.AtS))
	return w, a
}

// bodies pre-encodes reqs /ingest request bodies of batch arrivals each.
func (s *servedArrivals) bodies(reqs, batch int) ([][]byte, error) {
	out := make([][]byte, reqs)
	buf := make([]wireArrival, batch)
	for r := range out {
		for i := range buf {
			buf[i], _ = s.next()
		}
		data, err := json.Marshal(buf)
		if err != nil {
			return nil, err
		}
		out[r] = data
	}
	return out, nil
}

// server is one `gpusched serve -stream` process.
type server struct {
	cmd    *exec.Cmd
	done   chan error // the process's exit, sent once by the waiter
	client *http.Client
	base   string
	buf    bytes.Buffer // last response body
}

// listenLine is what gpusched prints once its listener is up.
const listenLine = "telemetry on http://"

// addrWatcher receives the server's stdout and reports the address from
// its listen line. exec copies stdout through it on one goroutine.
type addrWatcher struct {
	pending []byte
	addr    chan string
}

func (w *addrWatcher) Write(p []byte) (int, error) {
	w.pending = append(w.pending, p...)
	for {
		i := bytes.IndexByte(w.pending, '\n')
		if i < 0 {
			return len(p), nil
		}
		l := string(w.pending[:i])
		w.pending = w.pending[i+1:]
		if rest, ok := strings.CutPrefix(l, listenLine); ok && w.addr != nil {
			w.addr <- strings.TrimSuffix(rest, "/metrics")
			w.addr = nil
		}
	}
}

// startServer runs serve -stream under the throughput policy (serve's
// default) with telemetry on, as served, on a free loopback port. It
// returns once /healthz answers, with the time that took.
func startServer(bin string, gpus int) (*server, time.Duration, error) {
	cmd := exec.Command(bin, "serve", "-stream", "-policy", "throughput",
		"-fleet", fmt.Sprintf("1x%d", gpus), "-seed", strconv.Itoa(catalogueSeed), "-http", "127.0.0.1:0")
	addr := make(chan string, 1)
	cmd.Stdout = &addrWatcher{addr: addr}
	cmd.Stderr = os.Stderr
	dieWithParent(cmd)
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start gpusched: %w", err)
	}
	s := &server{
		cmd:  cmd,
		done: make(chan error, 1),
		// One keep-alive connection: the stream rejects an out-of-order
		// at_s, so requests must reach it in send order.
		client: &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   60 * time.Second,
		},
	}
	go func() { s.done <- cmd.Wait() }()
	select {
	case a := <-addr:
		s.base = "http://" + a
	case err := <-s.done:
		return nil, 0, fmt.Errorf("gpusched exited before listening: %v", err)
	case <-time.After(60 * time.Second):
		_ = s.stop() // reported as the listen timeout
		return nil, 0, fmt.Errorf("gpusched did not listen within 60s")
	}
	for {
		if _, err := s.get("/healthz"); err == nil {
			return s, time.Since(t0), nil
		} else if time.Since(t0) > 60*time.Second {
			_ = s.stop() // reported as the /healthz failure
			return nil, 0, fmt.Errorf("gpusched /healthz: %w", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// stop interrupts the server, which shuts down cleanly, and waits for it
// to exit; one that does not within 10s is killed.
func (s *server) stop() error {
	s.client.CloseIdleConnections()
	if err := s.cmd.Process.Signal(os.Interrupt); err != nil {
		return fmt.Errorf("interrupt gpusched: %w", err)
	}
	select {
	case err := <-s.done:
		// A server interrupted before it installs its signal handler dies
		// of the signal instead of shutting down; both are a clean stop.
		var exit *exec.ExitError
		if errors.As(err, &exit) {
			if ws, ok := exit.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGINT {
				return nil
			}
		}
		if err != nil {
			return fmt.Errorf("gpusched exit: %w", err)
		}
		return nil
	case <-time.After(10 * time.Second):
		_ = s.cmd.Process.Kill() // the wait below reports the outcome
		<-s.done
		return fmt.Errorf("gpusched ignored the interrupt and was killed")
	}
}

// do sends one request and returns the 200 response body, valid until
// the next request.
func (s *server) do(method, path string, body []byte) ([]byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, s.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, err
	}
	s.buf.Reset()
	_, err = s.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("%s %s: read body: %w", method, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(s.buf.Bytes()))
	}
	return s.buf.Bytes(), nil
}

func (s *server) get(path string) ([]byte, error) { return s.do(http.MethodGet, path, nil) }

// memStats reads the runtime.MemStats block of the server's heap
// profile; gc forces a collection first, so HeapAlloc is the live heap.
func (s *server) memStats(gc bool) (map[string]float64, error) {
	path := "/debug/pprof/heap?debug=1"
	if gc {
		path += "&gc=1"
	}
	body, err := s.get(path)
	if err != nil {
		return nil, err
	}
	return parseMemStats(body), nil
}

// parseMemStats picks the "# Name = number" lines of a debug=1 heap
// profile.
func parseMemStats(body []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		name, val, ok := strings.Cut(strings.TrimPrefix(sc.Text(), "# "), " = ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// flightTotal reads the server's lifetime flight-record count from
// /debug/flight; the server's /metrics stays empty while it streams.
func (s *server) flightTotal() (int64, error) {
	body, err := s.get("/debug/flight")
	if err != nil {
		return 0, err
	}
	var dump struct {
		Flight struct {
			Total int64 `json:"total"`
		} `json:"flight"`
	}
	if err := json.Unmarshal(body, &dump); err != nil {
		return 0, fmt.Errorf("/debug/flight: %w", err)
	}
	return dump.Flight.Total, nil
}

// decisionHasher digests the decision each dispatch event records: when,
// which workflow, on which GPU, after how long a wait. It leaves out
// RunningAlongside: /ingest encodes a batch's events after the whole
// batch is ingested, but each event's co-resident list lives in the
// streamer's name arena, which the next Ingest reuses, so a batched
// response carries overwritten lists. Those are counted apart (see
// servedCheck) so the defect shows without failing the decisions.
type decisionHasher struct {
	h   hash.Hash
	buf []byte
}

func newDecisionHasher() *decisionHasher { return &decisionHasher{h: sha256.New()} }

func (d *decisionHasher) add(ev core.DispatchEvent) {
	b := strconv.AppendInt(d.buf[:0], int64(ev.At), 10)
	b = append(b, ' ')
	b = append(b, ev.Workflow...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(ev.GPU), 10)
	b = append(b, ' ')
	b = strconv.AppendFloat(b, ev.WaitedS, 'g', -1, 64)
	b = append(b, '\n')
	d.h.Write(b)
	d.buf = b
}

func (d *decisionHasher) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// alongsideHash fingerprints one event's co-resident list.
func alongsideHash(names []string) uint64 {
	h := fnv.New64a()
	for _, n := range names {
		h.Write([]byte(n))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// serveReplay is what the in-process replay of the served stream
// expects: the decisions' digest and each event's co-resident list as
// the streamer framed it.
type serveReplay struct {
	decisions string
	alongside []uint64
	waitedS   float64
	window    []core.Arrival // the first serveWindow arrivals, for the traced split
}

func replayServe(sz sizes, total int, seed uint64) (*serveReplay, error) {
	arrivals, err := newServedArrivals(total, sz.serveGPUs, seed)
	if err != nil {
		return nil, err
	}
	sched, err := serveScheduler(sz)
	if err != nil {
		return nil, err
	}
	st, err := sched.NewStreamer(core.StreamConfig{})
	if err != nil {
		return nil, err
	}
	r := &serveReplay{alongside: make([]uint64, total), window: make([]core.Arrival, 0, min(total, sz.serveWindow))}
	dec := newDecisionHasher()
	for i := range r.alongside {
		_, a := arrivals.next()
		ev, err := st.Ingest(a)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		dec.add(ev)
		r.alongside[i] = alongsideHash(ev.RunningAlongside)
		if len(r.window) < cap(r.window) {
			r.window = append(r.window, a)
		}
	}
	if _, err := st.Finish(); err != nil {
		return nil, err
	}
	r.decisions = dec.sum()
	r.waitedS = st.WaitedS()
	return r, nil
}

// servedCheck compares the server's /ingest responses with the replay.
// Responses are kept as sent and decoded between phases, off the clock.
type servedCheck struct {
	want       *serveReplay
	dec        *decisionHasher
	pending    [][]byte
	events     int
	mismatched int // events whose co-resident list differs from the replay's
}

func (c *servedCheck) keep(body []byte) { c.pending = append(c.pending, bytes.Clone(body)) }

func (c *servedCheck) drain() error {
	for _, body := range c.pending {
		var evs []core.DispatchEvent
		if err := json.Unmarshal(body, &evs); err != nil {
			return fmt.Errorf("/ingest response: %w", err)
		}
		for _, ev := range evs {
			if c.events == len(c.want.alongside) {
				return fmt.Errorf("/ingest returned more events than arrivals sent")
			}
			c.dec.add(ev)
			if alongsideHash(ev.RunningAlongside) != c.want.alongside[c.events] {
				c.mismatched++
			}
			c.events++
		}
	}
	c.pending = c.pending[:0]
	return nil
}

// servePlan is the request count of every serve-http phase.
type servePlan struct {
	warm, capBlocks, capReqs int
	rungReqs                 []int
}

func planServe(sz sizes, seconds time.Duration) servePlan {
	p := servePlan{warm: sz.serveWarmReqs, capBlocks: sz.serveCapBlocks, capReqs: sz.serveCapReqs}
	for _, r := range sz.serveRates {
		reqs := int(math.Round(float64(r.perSecond) * r.share * seconds.Seconds() / float64(sz.serveBatch)))
		p.rungReqs = append(p.rungReqs, max(reqs, 1))
	}
	return p
}

func (p servePlan) requests() int {
	n := p.warm + p.capBlocks*p.capReqs
	for _, r := range p.rungReqs {
		n += r
	}
	return n
}

// sloP99 is the latency limit a rate must keep at p99, with no growing
// backlog, to count as sustained.
const sloP99 = 10 * time.Millisecond

// runServe drives `gpusched serve -stream` over HTTP with 32-arrival
// /ingest batches on one continuous stream: a closed-loop warm-up, then
// closed-loop capacity segments, each followed by an open-loop rate. The
// decisions the server returns must hash to those of an in-process
// replay.
func runServe(rc *runCtx) (*runResult, error) {
	sz := rc.sizes
	res := newResult()
	plan := planServe(sz, rc.seconds)
	batch := sz.serveBatch
	total := plan.requests() * batch

	want, err := replayServe(sz, total, rc.seed)
	if err != nil {
		return nil, err
	}
	check := &servedCheck{want: want, dec: newDecisionHasher()}

	// The first server started serves the run; every later start is
	// stopped again at once, between phases.
	var srv *server
	running := false
	defer func() {
		if running {
			_ = srv.stop() // error path: the run already failed
		}
	}()
	setup, err := newSetupSampler(sz.serveStarts, func() (time.Duration, error) {
		s, d, err := startServer(rc.gpusched, sz.serveGPUs)
		if err != nil {
			return 0, err
		}
		if srv == nil {
			srv, running = s, true
			return d, nil
		}
		return d, s.stop()
	})
	if err != nil {
		return nil, err
	}

	arrivals, err := newServedArrivals(total, sz.serveGPUs, rc.seed)
	if err != nil {
		return nil, err
	}
	var seq int64
	post := func(body []byte, tr *tracer, parent int32) error {
		id := tr.begin("POST /ingest", seq, parent)
		resp, err := srv.do(http.MethodPost, "/ingest", body)
		tr.end(id)
		seq++
		if err != nil {
			return err
		}
		check.keep(resp)
		return nil
	}
	closedLoop := func(bodies [][]byte) error {
		for _, b := range bodies {
			if err := post(b, nil, -1); err != nil {
				return err
			}
		}
		return nil
	}

	warm, err := arrivals.bodies(plan.warm, batch)
	if err != nil {
		return nil, err
	}
	if err := closedLoop(warm); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	res.attempted += int64(len(warm) * batch)
	if err := check.drain(); err != nil {
		return nil, err
	}
	if err := setup.take(); err != nil {
		return nil, err
	}

	// Capacity: closed loop, one block at a time. Its blocks are split
	// into segments, one before each open-loop rate, so that they sample
	// the whole run rather than one stretch of it; in a traced run every
	// other block records spans.
	capLat := new(hist)
	var win windows
	var plainBlocks, tracedBlocks []float64
	var reqBytes, respBytes, flightRecords int64
	var serverAllocs, serverBytes float64
	var serverMem map[string]float64
	block := 0
	capacity := func(blocks int) error {
		var memBefore map[string]float64
		var flightBefore int64
		if rc.traced {
			if memBefore, err = srv.memStats(false); err != nil {
				return err
			}
			if flightBefore, err = srv.flightTotal(); err != nil {
				return err
			}
		}
		for ; blocks > 0; blocks-- {
			bodies, err := arrivals.bodies(plan.capReqs, batch)
			if err != nil {
				return err
			}
			var tr *tracer
			if rc.traced && block%2 == 1 {
				tr = rc.tracer
			}
			blockID := tr.begin("capacity block", int64(block), -1)
			block++
			start := time.Now()
			prev := start
			for _, body := range bodies {
				if err := post(body, tr, blockID); err != nil {
					return fmt.Errorf("capacity: %w", err)
				}
				now := time.Now()
				capLat.record(now.Sub(prev))
				prev = now
				reqBytes += int64(len(body))
				respBytes += int64(srv.buf.Len())
			}
			elapsed := prev.Sub(start)
			tr.end(blockID)
			res.attempted += int64(len(bodies) * batch)
			if tr != nil {
				tracedBlocks = append(tracedBlocks, elapsed.Seconds())
			} else {
				plainBlocks = append(plainBlocks, elapsed.Seconds())
				win.rate(float64(len(bodies)*batch) / elapsed.Seconds())
			}
			if err := check.drain(); err != nil {
				return err
			}
		}
		if rc.traced {
			if serverMem, err = srv.memStats(false); err != nil {
				return err
			}
			flightAfter, err := srv.flightTotal()
			if err != nil {
				return err
			}
			serverAllocs += serverMem["Mallocs"] - memBefore["Mallocs"]
			serverBytes += serverMem["TotalAlloc"] - memBefore["TotalAlloc"]
			flightRecords += flightAfter - flightBefore
		}
		return nil
	}

	// Open-loop rates, each after its capacity segment.
	slo := 0
	for i, r := range sz.serveRates {
		blocks := plan.capBlocks / len(sz.serveRates)
		if i == 0 {
			blocks += plan.capBlocks % len(sz.serveRates)
		}
		if err := capacity(blocks); err != nil {
			return nil, err
		}
		bodies, err := arrivals.bodies(plan.rungReqs[i], batch)
		if err != nil {
			return nil, err
		}
		rungID := rc.tracer.begin(fmt.Sprintf("rate %d/s", r.perSecond), int64(i), -1)
		interval := time.Duration(float64(time.Second) * float64(batch) / float64(r.perSecond))
		rung, err := openLoop(wallClock{t0: time.Now()}, interval, len(bodies), func(k int) error {
			return post(bodies[k], rc.tracer, rungID)
		})
		if err != nil {
			return nil, fmt.Errorf("rate %d/s: %w", r.perSecond, err)
		}
		// An aborted rate still sends its remaining requests, unmeasured,
		// so the stream stays whole; its arrivals count as failed.
		if err := closedLoop(bodies[rung.sent:]); err != nil {
			return nil, fmt.Errorf("rate %d/s: %w", r.perSecond, err)
		}
		rc.tracer.end(rungID)
		res.attempted += int64(len(bodies) * batch)
		if rung.aborted {
			res.failed += int64(len(bodies) * batch)
			res.fail("rate %d/s aborted: the send lag passed %v", r.perSecond, maxLate)
		}
		if err := check.drain(); err != nil {
			return nil, err
		}
		key := fmt.Sprintf("http.r%dk.", r.perSecond/1000)
		p99 := rung.latency.quantile(0.99)
		res.detail[key+"p50_ms"] = rung.latency.quantile(0.5) / 1e6
		res.detail[key+"p99_ms"] = p99 / 1e6
		res.detail[key+"end_lag_ms"] = float64(rung.endLag) / 1e6
		res.detail[key+"loadgen_late_p99_us"] = rung.genLate.quantile(0.99) / 1e3
		fmt.Fprintf(rc.out, "rate %5d/s (%d requests): %s  end lag %v\n", r.perSecond, len(bodies), rung.latency.summary(), rung.endLag)
		if !rung.aborted && p99 <= float64(sloP99) && rung.endLag < sloP99/2 && r.perSecond > slo {
			slo = r.perSecond
		}
		if i == 0 && len(rung.samples) > 0 {
			// One-second windows of the first rate (one shorter window
			// when the rate is held for less than a second).
			perWindow := min(max(1, r.perSecond/batch), len(rung.samples))
			h := new(hist)
			for lo := 0; lo+perWindow <= len(rung.samples); lo += perWindow {
				*h = hist{}
				for _, d := range rung.samples[lo : lo+perWindow] {
					h.record(d)
				}
				win.latency(h.quantile(0.5), h.quantile(0.99))
			}
		}

		// Between rates: one snapshot and one flight dump, as an operator
		// would pull them.
		id := rc.tracer.begin("GET /stream/state", int64(i), -1)
		t0 := time.Now()
		state, err := srv.get("/stream/state")
		res.detail["http.snapshot_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6
		rc.tracer.end(id)
		if err != nil {
			return nil, err
		}
		res.detail["http.snapshot_bytes"] = float64(len(state))
		id = rc.tracer.begin("GET /debug/flight", int64(i), -1)
		_, err = srv.get("/debug/flight")
		rc.tracer.end(id)
		if err != nil {
			return nil, err
		}
		if err := setup.take(); err != nil {
			return nil, err
		}
	}
	res.detail["http.max_rate_slo_per_s"] = float64(slo)
	capArrivals := float64(plan.capBlocks * plan.capReqs * batch)
	fmt.Fprintf(rc.out, "capacity (closed loop, %d-arrival requests): %s\n", batch, capLat.summary())

	if res.metrics["setup_s"], err = setup.median(); err != nil {
		return nil, err
	}
	// The second forced collection frees what the server's sync.Pools
	// kept over the first, such as the flight dump's encode buffer.
	if _, err := srv.memStats(true); err != nil {
		return nil, err
	}
	mem, err := srv.memStats(true)
	if err != nil {
		return nil, err
	}
	if mem["HeapAlloc"] <= 0 {
		return nil, fmt.Errorf("gpusched heap profile carries no HeapAlloc")
	}
	running = false
	if err := srv.stop(); err != nil {
		res.fail("%v", err)
	}

	served := check.dec.sum()
	if check.events != total {
		res.fail("/ingest returned %d events for %d arrivals", check.events, total)
	}
	if served != want.decisions {
		res.fail("served decision digest %s differs from the in-process replay's %s", served, want.decisions)
	}
	checkPinned(rc, res, "serve-http", served)
	if len(res.problems) > 0 {
		res.failed = res.attempted
	}
	res.detail["http.alongside_mismatch_share"] = float64(check.mismatched) / float64(total)
	if check.mismatched > 0 {
		fmt.Fprintf(rc.out, "known defect: %d of %d served events carry another event's RunningAlongside (the batch's name arena is reused before the response is encoded)\n",
			check.mismatched, total)
	}
	res.detail["sim_wait_mean_s"] = want.waitedS / float64(total)
	res.detail["arrivals"] = float64(total)
	serviceUS := capLat.quantile(0.5) / 1e3 / float64(batch)
	res.detail["http.service_us_per_arrival"] = serviceUS

	if !rc.traced {
		win.setEndToEnd(res)
		res.metrics["mem_mib"] = mem["HeapAlloc"] / (1 << 20)
		return res, nil
	}

	// In-process split on the served stream's first window: the decision
	// alone, then the streamer with telemetry off and on.
	window := want.window
	n := float64(len(window))
	sched, err := serveScheduler(sz)
	if err != nil {
		return nil, err
	}
	split, err := splitWindow(rc, res, sched, window)
	if err != nil {
		return nil, err
	}
	planNS, offNS, stats := split.planNS, split.ingestNS, split.stats
	hub := obs.NewHub(func() int64 { return time.Now().UnixNano() })
	prevHub := obs.SetActive(hub)
	onTime, err := ingestWindow(rc, res, sched, window, core.StreamConfig{}, "Ingest window (telemetry)", split.ref)
	obs.SetActive(prevHub)
	if err != nil {
		return nil, err
	}
	inprocUS := float64(onTime.Nanoseconds()) / n / 1e3
	res.detail["http.inproc_us_per_arrival"] = inprocUS
	res.detail["http.overhead_us_per_arrival"] = serviceUS - inprocUS
	res.detail["core.frame_ns_per_arrival"] = offNS - planNS
	res.detail["core.spill_ns_per_arrival"] = split.spillNS - offNS

	if err := admitNS(rc, res, sched.Profiles); err != nil {
		return nil, err
	}
	setDecisionLayers(res, planNS, float64(stats.Probes)/n, float64(stats.Waits)/n, float64(stats.Completions)/n, 0, 0, 0)
	res.metrics["frame.share"] = (offNS - planNS) / offNS
	res.metrics["obs.telemetry_ratio"] = float64(onTime.Nanoseconds()) / n / offNS
	res.metrics["obs.flight_records_per_op"] = float64(flightRecords) / capArrivals
	res.metrics["http.overhead_share"] = (serviceUS - inprocUS) / serviceUS
	res.metrics["http.request_bytes_per_op"] = float64(reqBytes) / capArrivals
	res.metrics["http.response_bytes_per_op"] = float64(respBytes) / capArrivals
	res.metrics["runtime.allocs_per_op"] = serverAllocs / capArrivals
	res.metrics["runtime.alloc_bytes_per_op"] = serverBytes / capArrivals
	res.metrics["runtime.gc_cpu_fraction"] = serverMem["GCCPUFraction"]
	res.metrics["trace.overhead_pct"] = traceOverheadPct(tracedBlocks, plainBlocks)
	return res, nil
}

// serveScheduler is the scheduler serve -stream builds: the catalogue,
// the throughput policy, one shard.
func serveScheduler(sz sizes) (*core.Scheduler, error) {
	store, err := catalogue(sz.serveGPUs)
	if err != nil {
		return nil, err
	}
	return core.NewScheduler(device, sz.serveGPUs, store, core.ThroughputPolicy())
}
