package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"gpushare/internal/core"
	"gpushare/internal/gpu"
	"gpushare/internal/interference"
	"gpushare/internal/profile"
)

// sizes fixes every input size of a run. Run lengths are arrival and
// workflow counts, never durations, so the simulated outputs and their
// digests do not depend on how fast the code under test is; --seconds
// only decides how many times a fixed-size pass repeats (and how long
// serve-http's open-loop rates are held).
type sizes struct {
	// setupReps is how many times an in-process workload builds its
	// system to time set-up; serveStarts is how many times serve-http
	// starts a server.
	setupReps   int
	serveStarts int

	// stream-*: warm arrivals bring the fleet to steady occupancy once,
	// untimed; every timed pass restores that state and ingests the next
	// streamPass arrivals. streamWarm+streamPass is also the window the
	// traced layer split runs on.
	streamGPUs, streamWarm, streamPass int

	// cluster-mixed.
	clusterNodes, clusterGPUsPerNode, clusterWorkflows, clusterWarm int

	// serve-http: arrivals per request, closed-loop warm-up requests,
	// capacity blocks of serveCapReqs requests each, then the open-loop
	// rates. The first rate is the one the end-to-end latency reports,
	// over one-second windows.
	serveGPUs, serveBatch, serveWarmReqs, serveCapBlocks, serveCapReqs int
	serveRates                                                         []rate
	// serveWindow caps the arrivals the traced in-process split replays.
	serveWindow int

	// admitReps scales the interference.admit_ns loop.
	admitReps int
}

// rate is one open-loop rung: arrivals per second, held for share of
// --seconds.
type rate struct {
	perSecond int
	share     float64
}

var fullSizes = sizes{
	setupReps:   1001,
	serveStarts: 10,

	streamGPUs: 1024,
	streamWarm: 131_072,
	streamPass: 68_928,

	clusterNodes:       64,
	clusterGPUsPerNode: 8,
	clusterWorkflows:   20_000,
	clusterWarm:        5_000,

	serveGPUs:      256,
	serveBatch:     32,
	serveWarmReqs:  2_000,
	serveCapBlocks: 16,
	serveCapReqs:   300,
	serveRates: []rate{
		{10_000, 0.40},
		{20_000, 0.06},
		{30_000, 0.06},
		{40_000, 0.06},
	},
	serveWindow: 200_000,

	admitReps: 4_000,
}

// catalogueSeed fixes the profile catalogue every workload plans from:
// the 16 synthetic archetypes whose utilizations decide how many GPUs a
// first-fit scan visits. --seed varies the arrival stream only; with a
// seed-dependent catalogue the per-arrival cost moves by tens of percent
// from seed to seed, and no 10% change could be resolved.
const catalogueSeed = 42

// pinnedDigests are the seed-42 output digests at fullSizes (the tests run
// smaller sizes at other seeds). A run whose output differs fails every
// operation. serve-http's digest depends on the open-loop arrival
// counts, so it holds at --seconds 15 only.
var pinnedDigests = map[string]struct {
	digest  string
	seconds int // 0: any
}{
	"stream-energy":     {"58947505141233c67ab15c06619cf551fc03e846d61f7591009d77013306a37b", 0},
	"stream-throughput": {"b89907c426961e4e19d950f7ea5b419ca73e164d3809cd3a51874aeff714bcb8", 0},
	"cluster-mixed":     {"7f577a4d5eab81ed4aa57534e522bab4a9c8eb8c941114653d11beb206ae3563", 0},
	"serve-http":        {"0650be36cba80e20bcdac034fc578534f17c14485ab7c6dc51881af665322ec8", 15},
}

// checkPinned prints a workload's output digest and compares a seed-42
// digest against its pin.
func checkPinned(rc *runCtx, res *runResult, workload, digest string) {
	fmt.Fprintf(rc.out, "output digest sha256:%s\n", digest)
	p, ok := pinnedDigests[workload]
	if rc.seed != 42 || !ok || p.digest == "" ||
		(p.seconds != 0 && time.Duration(p.seconds)*time.Second != rc.seconds) {
		return
	}
	if digest != p.digest {
		res.fail("%s digest %s differs from the pinned seed-42 digest %s", workload, digest, p.digest)
	}
}

var device = gpu.MustLookup("A100X")

// catalogue builds the fixed profile catalogue the way a scheduler's
// owner would: the fleet generator's archetype store.
func catalogue(gpus int) (*profile.Store, error) {
	_, store, err := core.NewFleetSource(device, core.FleetSpec{Workflows: 1, TargetGPUs: gpus, Seed: catalogueSeed})
	return store, err
}

// fleetArrivals draws n seeded arrivals sized for a gpus-GPU fleet. They
// name the catalogue's archetypes, whatever the seed.
func fleetArrivals(n, gpus int, seed uint64) ([]core.Arrival, error) {
	arrivals, _, err := core.GenerateFleet(device, core.FleetSpec{Workflows: n, TargetGPUs: gpus, Seed: seed})
	return arrivals, err
}

// digestJSON hashes items framed as json.Marshal frames a slice, the
// streamer's digest framing: sha256 of '[' e1 ',' e2 ... ']'. It marshals
// one element at a time: marshaling the whole log at once would leave a
// log-sized buffer in encoding/json's pool, where every later Marshal in
// the process, the streamer's included, keeps it alive.
func digestJSON[T any](items []T) (string, error) {
	h := sha256.New()
	h.Write([]byte{'['})
	for i := range items {
		if i > 0 {
			h.Write([]byte{','})
		}
		data, err := json.Marshal(items[i])
		if err != nil {
			return "", err
		}
		h.Write(data)
	}
	h.Write([]byte{']'})
	return hex.EncodeToString(h.Sum(nil)), nil
}

// setupSampler times the system's set-up reps times in ten groups spread
// through the run, between measurement windows, so that one burst of host
// contention cannot move the median. build sets the system up once and
// returns how long that took.
type setupSampler struct {
	build   func() (time.Duration, error)
	reps    int
	samples []float64
}

// newSetupSampler sets up a tenth of reps times untimed, so the process's
// heap has grown to its working size, then times the first group.
func newSetupSampler(reps int, build func() (time.Duration, error)) (*setupSampler, error) {
	s := &setupSampler{build: build, reps: reps}
	for i := 0; i < reps/10; i++ {
		if _, err := build(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	return s, s.take()
}

// timed adapts an in-process set-up to the sampler.
func timed(build func() error) func() (time.Duration, error) {
	return func() (time.Duration, error) {
		t0 := time.Now()
		err := build()
		return time.Since(t0), err
	}
}

// take times one more group, unless all reps are done. A collection
// first gives every group the same clean heap to build on.
func (s *setupSampler) take() error {
	if len(s.samples) < s.reps {
		runtime.GC()
	}
	for n := min(max(1, s.reps/10), s.reps-len(s.samples)); n > 0; n-- {
		d, err := s.build()
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		s.samples = append(s.samples, d.Seconds())
	}
	return nil
}

// median times the groups still missing and returns the median seconds.
func (s *setupSampler) median() (float64, error) {
	for len(s.samples) < s.reps {
		if err := s.take(); err != nil {
			return 0, err
		}
	}
	return median(s.samples), nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// rtStats samples the runtime counters the runtime.* layer metrics are
// deltas of.
type rtStats struct {
	mallocs, bytes  uint64
	gcCPU, totalCPU float64
}

func readRuntime() rtStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(samples)
	return rtStats{
		mallocs:  ms.Mallocs,
		bytes:    ms.TotalAlloc,
		gcCPU:    samples[0].Value.Float64(),
		totalCPU: samples[1].Value.Float64(),
	}
}

// add accumulates the change from before to after.
func (s *rtStats) add(before, after rtStats) {
	s.mallocs += after.mallocs - before.mallocs
	s.bytes += after.bytes - before.bytes
	s.gcCPU += after.gcCPU - before.gcCPU
	s.totalCPU += after.totalCPU - before.totalCPU
}

// setRuntimeLayers fills the runtime.* metrics from two samples around
// ops operations.
func setRuntimeLayers(res *runResult, before, after rtStats, ops int64) {
	res.metrics["runtime.allocs_per_op"] = float64(after.mallocs-before.mallocs) / float64(ops)
	res.metrics["runtime.alloc_bytes_per_op"] = float64(after.bytes-before.bytes) / float64(ops)
	frac := 0.0
	if cpu := after.totalCPU - before.totalCPU; cpu > 0 {
		frac = (after.gcCPU - before.gcCPU) / cpu
	}
	res.metrics["runtime.gc_cpu_fraction"] = frac
}

// liveHeapMiB forces collections and reports the live heap. The second
// collection also frees what sync.Pools held over the first.
func liveHeapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// admitNS times interference.Aggregate.Admit, the admission kernel every
// probe runs: every load of the store against 3-resident aggregates
// folded from the same loads with ProfileLoad. It fills
// interference.admit_ns and the share of probes that admitted.
func admitNS(rc *runCtx, res *runResult, store *profile.Store) error {
	var loads []interference.Load
	for _, p := range store.All() {
		loads = append(loads, interference.ProfileLoad(p))
	}
	if len(loads) < 3 {
		return fmt.Errorf("admit kernel: store holds %d profiles, need 3", len(loads))
	}
	var aggs []interference.Aggregate
	for i := range loads {
		a := interference.NewAggregate(device)
		a.Add(loads[i])
		a.Add(loads[(i+1)%len(loads)])
		a.Add(loads[(i+2)%len(loads)])
		aggs = append(aggs, a)
	}
	id := rc.tracer.begin("Admit", 0, -1)
	admitted := 0
	t0 := time.Now()
	for r := 0; r < rc.sizes.admitReps; r++ {
		for a := range aggs {
			for _, l := range loads {
				if !aggs[a].Admit(l).Interferes() {
					admitted++
				}
			}
		}
	}
	elapsed := time.Since(t0)
	rc.tracer.end(id)
	n := rc.sizes.admitReps * len(aggs) * len(loads)
	res.metrics["interference.admit_ns"] = float64(elapsed.Nanoseconds()) / float64(n)
	res.detail["interference.admitted_share"] = float64(admitted) / float64(n)
	return nil
}
