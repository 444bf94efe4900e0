package core

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gpushare/internal/gpu"
	"gpushare/internal/gpusim"
	"gpushare/internal/interference"
	"gpushare/internal/profile"
	"gpushare/internal/simtime"
	"gpushare/internal/workflow"
)

func at(s float64) simtime.Time { return simtime.Zero.Add(simtime.FromSeconds(s)) }

// testDispatcher builds a dispatcher through the production constructor
// over a bare energy-policy scheduler, for tests that drive the
// admission kernel in isolation. The device's MPS client limit, the
// energy policy's client cap, is lowered to 8 so small fleets saturate.
func testDispatcher(gpus int) *onlineDispatcher {
	device := a100x()
	device.MaxMPSClients = 8
	return newOnlineDispatcher(&Scheduler{Device: device, GPUs: gpus, Policy: EnergyPolicy()})
}

func TestScheduleOnlineBasics(t *testing.T) {
	store := suiteStore(t)
	s, _ := NewScheduler(a100x(), 1, store, EnergyPolicy())
	arrivals := []Arrival{
		{At: at(0), Workflow: wfOne("a", "AthenaPK", "4x", 1)},
		{At: at(5), Workflow: wfOne("b", "AthenaPK", "4x", 1)},
		{At: at(10), Workflow: wfOne("c", "Kripke", "4x", 1)},
	}
	out, err := s.ScheduleOnline(arrivals, gpusim.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Dispatches) != 3 {
		t.Fatalf("dispatches = %d", len(out.Dispatches))
	}
	// All three are mutually compatible (30+30+63 > 100? 30.3+30.3+63.2
	// = 123.8 — the Kripke arrival must wait or... the rules admit only
	// ≤100%: a+b = 60.6, +c = 123.8 → c waits for a completion).
	last := out.Dispatches[2]
	if last.Workflow != "c" {
		t.Fatalf("dispatch order: %+v", out.Dispatches)
	}
	if last.WaitedS <= 0 {
		t.Fatal("Kripke should have queued behind the AthenaPK pair")
	}
	// Sharing must beat the arrival-respecting sequential baseline.
	if out.Relative.Throughput <= 1 {
		t.Fatalf("online sharing throughput %v", out.Relative.Throughput)
	}
	if out.Sharing.Tasks != 3 || out.Sequential.Tasks != 3 {
		t.Fatalf("task counts %d/%d", out.Sharing.Tasks, out.Sequential.Tasks)
	}
	if out.MaxWaitS < out.MeanWaitS {
		t.Fatal("wait stats inconsistent")
	}
}

// TestProfileBuilderValidatesOnce pins what each path of Build checks:
// a cache hit still refuses an empty workflow name, and a task of bad
// shape is refused on its miss and never enters the cache, so a hit
// need not validate its task again.
func TestProfileBuilderValidatesOnce(t *testing.T) {
	b := NewProfileBuilder(suiteStore(t))
	if _, err := b.Build(wfOne("a", "AthenaPK", "1x", 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Build(wfOne("", "AthenaPK", "1x", 1)); err == nil || !strings.Contains(err.Error(), "empty name") {
		t.Fatalf("cache hit with an empty name: err = %v, want the empty-name error", err)
	}
	for _, w := range []workflow.Workflow{
		wfOne("b", "", "1x", 1),
		wfOne("b", "AthenaPK", "huge", 1),
		wfOne("b", "AthenaPK", "1x", 0),
		wfOne("b", "AthenaPK", "1x", -3),
	} {
		for try := 0; try < 2; try++ {
			if _, err := b.Build(w); err == nil {
				t.Fatalf("ill-shaped %v built (try %d)", w.Tasks[0], try)
			}
		}
		if _, ok := b.cache[w.Tasks[0]]; ok {
			t.Fatalf("ill-shaped %v entered the cache", w.Tasks[0])
		}
	}
	if len(b.cache) != 1 {
		t.Fatalf("cache holds %d profiles, want 1", len(b.cache))
	}
}

func TestScheduleOnlineNoArrivals(t *testing.T) {
	store := suiteStore(t)
	s, _ := NewScheduler(a100x(), 1, store, EnergyPolicy())
	if _, err := s.ScheduleOnline(nil, gpusim.Config{}); !errors.Is(err, ErrNoArrivals) {
		t.Fatalf("empty arrivals: err = %v, want ErrNoArrivals", err)
	}
}

// TestEmptyInputEdgeCases table-tests the planner and fleet generator on
// degenerate inputs: each must fail with its typed validation error —
// never panic, and never reach the wait-stat divisions with zero
// dispatches (which would emit NaN MeanWaitS/MaxWaitS).
func TestEmptyInputEdgeCases(t *testing.T) {
	store := suiteStore(t)
	s, _ := NewScheduler(a100x(), 1, store, EnergyPolicy())
	cases := []struct {
		name string
		run  func() error
		want error
	}{
		{"PlanOnline zero arrivals", func() error {
			_, err := s.PlanOnline(nil)
			return err
		}, ErrNoArrivals},
		{"PlanOnline empty slice", func() error {
			_, err := s.PlanOnline([]Arrival{})
			return err
		}, ErrNoArrivals},
		{"GenerateFleet zero workflows", func() error {
			_, _, err := GenerateFleet(a100x(), FleetSpec{Workflows: 0})
			return err
		}, ErrFleetNoWorkflows},
		{"GenerateFleet negative GPU target", func() error {
			_, _, err := GenerateFleet(a100x(), FleetSpec{Workflows: 4, TargetGPUs: -1})
			return err
		}, ErrFleetNoGPUs},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.run(); !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
		})
	}
}

// TestGenerationReprobeAfterEarlyAdmit is the edge case for wait-loop
// retry rounds: one wait round retires residents on GPU 0 and GPU 3,
// and GPU 0 admits, ending the round before GPU 3 is ever probed. The
// index must not hide GPU 3's freed capacity from the next arrival,
// and the pool's generations must stamp exactly the retired GPUs.
// Placements must be the ones a full rescan of every GPU
// would pick, and DispatchStats must count exactly the index nodes and
// probes the first-fit index visits.
func TestGenerationReprobeAfterEarlyAdmit(t *testing.T) {
	load := interference.Load{SMPct: 60, BWPct: 10, MemMiB: 1024}
	d := testDispatcher(4)
	// Fill all four GPUs; GPU 0 and GPU 3 both free up at t=10s, the
	// others much later. The fillers take placement serials 0-3 and the
	// arrivals 4 and 5, the order a stream would have given them.
	for g, end := range []simtime.Time{at(10), at(100), at(100), at(10)} {
		d.place(g, load, "filler", end, uint64(g))
	}
	type placement struct {
		gpu int
		at  simtime.Time
	}
	var got []placement
	for seq, arrival := range []simtime.Time{simtime.Zero, at(11)} {
		before := d.pool.Clock()
		when, g, ok := d.admit(load, arrival, int64(seq))
		if !ok {
			t.Fatal("admit failed: a completion always frees capacity")
		}
		// Only the wait round's retirements advanced the clock: A's round
		// retires GPUs 0 and 3, B's retires nothing.
		changed := 0
		for i := 0; i < d.pool.GPUs(); i++ {
			if d.pool.Gen(i) > before {
				changed++
			}
		}
		if want := []int{2, 0}[seq]; changed != want {
			t.Fatalf("arrival %d: %d GPUs changed during admit, want %d", seq, changed, want)
		}
		d.place(g, load, "w", when.Add(simtime.FromSeconds(1000)), uint64(4+seq))
		got = append(got, placement{gpu: g, at: when})
	}
	// Arrival A at t=0: every GPU rejects, the wait round at t=10 retires
	// GPU 0 and GPU 3, and GPU 0 admits. Arrival B at t=11: GPU 3 is free
	// and was never re-probed by A's round — the full scan finds it.
	want := []placement{{gpu: 0, at: at(10)}, {gpu: 3, at: at(11)}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("placements %+v, want %+v", got, want)
	}
	// The index has root 1 over nodes 2 (GPUs 0-1) and 3 (GPUs 2-3).
	// A's first scan stops at the root, whose minimum SM sum (60) plus
	// the load's 60 breaks the compute rule: 1 visit. Its retry visits
	// the root, node 2 and GPU 0, which admits: 3 visits, 1 probe. B
	// visits the root, node 2 (all residents again at 60: pruned), node
	// 3, GPU 2 (rejects) and GPU 3 (admits): 5 visits, 2 probes.
	wantStats := DispatchStats{Probes: 1 + 2, Visits: 1 + 3 + 5, Waits: 1, Completions: 2}
	if d.stats != wantStats {
		t.Fatalf("stats %+v, want %+v", d.stats, wantStats)
	}
}

// TestPlanOnlineCollidingEndsStream drives colliding completion instants
// through the public planner: identical workflows arriving together
// produce identical predicted ends on the same GPU. The plan must stay
// consistent (every arrival dispatched exactly once) — and the golden
// dispatch logs pin that the identity-based retire path reproduces the
// index-scan path byte for byte.
func TestPlanOnlineCollidingEndsStream(t *testing.T) {
	store := suiteStore(t)
	s, _ := NewScheduler(a100x(), 1, store, EnergyPolicy())
	var arrivals []Arrival
	for i := 0; i < 6; i++ {
		// Three waves of two identical workflows: each wave's pair shares
		// an arrival instant and a duration, hence a finish instant.
		arrivals = append(arrivals, Arrival{
			At:       at(float64(i/2) * 5),
			Workflow: wfOne(fmt.Sprintf("twin-%d", i), "AthenaPK", "4x", 1),
		})
	}
	plan, err := s.PlanOnline(arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Dispatches) != len(arrivals) {
		t.Fatalf("dispatches = %d, want %d", len(plan.Dispatches), len(arrivals))
	}
	seen := map[string]int{}
	for _, d := range plan.Dispatches {
		seen[d.Workflow]++
	}
	for _, a := range arrivals {
		if seen[a.Workflow.Name] != 1 {
			t.Fatalf("workflow %s dispatched %d times", a.Workflow.Name, seen[a.Workflow.Name])
		}
	}
}

func TestScheduleOnlineRespectsArrivalTimes(t *testing.T) {
	store := suiteStore(t)
	s, _ := NewScheduler(a100x(), 1, store, EnergyPolicy())
	arrivals := []Arrival{
		{At: at(100), Workflow: wfOne("late", "Cholla-Gravity", "1x", 1)},
	}
	out, err := s.ScheduleOnline(arrivals, gpusim.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out.Dispatches[0].At != at(100) {
		t.Fatalf("dispatched at %v, want arrival time", out.Dispatches[0].At)
	}
	if out.Sharing.MakespanS < 100 {
		t.Fatalf("makespan %v ignores arrival offset", out.Sharing.MakespanS)
	}
}

func TestScheduleOnlineInterferenceGating(t *testing.T) {
	// Two LAMMPS arrivals: the second must wait for the first (SM rule),
	// landing sequentially even though both arrive at t=0.
	store := suiteStore(t)
	s, _ := NewScheduler(a100x(), 1, store, EnergyPolicy())
	arrivals := []Arrival{
		{At: at(0), Workflow: wfOne("l1", "LAMMPS", "4x", 1)},
		{At: at(0), Workflow: wfOne("l2", "LAMMPS", "4x", 1)},
	}
	out, err := s.ScheduleOnline(arrivals, gpusim.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.Dispatches[1].WaitedS <= 0 {
		t.Fatal("second LAMMPS dispatched immediately despite the SM rule")
	}
	if len(out.Dispatches[1].RunningAlongside) != 0 {
		t.Fatalf("second LAMMPS should run alone, alongside %v",
			out.Dispatches[1].RunningAlongside)
	}
}

func TestScheduleOnlineMultiGPU(t *testing.T) {
	// With two GPUs, the two LAMMPS workflows go to different devices
	// with no waiting.
	store := suiteStore(t)
	s, _ := NewScheduler(a100x(), 2, store, EnergyPolicy())
	arrivals := []Arrival{
		{At: at(0), Workflow: wfOne("l1", "LAMMPS", "4x", 1)},
		{At: at(0), Workflow: wfOne("l2", "LAMMPS", "4x", 1)},
	}
	out, err := s.ScheduleOnline(arrivals, gpusim.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.Dispatches[0].GPU == out.Dispatches[1].GPU {
		t.Fatal("second GPU unused")
	}
	for _, d := range out.Dispatches {
		if d.WaitedS != 0 {
			t.Fatalf("waiting despite free GPU: %+v", d)
		}
	}
}

func TestScheduleOnlineAllowInterferingPairs(t *testing.T) {
	// Under recommendation 2 the SM rule is advisory: two LAMMPS
	// workflows that the default policy serializes (see
	// TestScheduleOnlineInterferenceGating) collocate immediately.
	store := suiteStore(t)
	policy := EnergyPolicy()
	policy.AllowInterferingPairs = true
	s, _ := NewScheduler(a100x(), 1, store, policy)
	arrivals := []Arrival{
		{At: at(0), Workflow: wfOne("l1", "LAMMPS", "4x", 1)},
		{At: at(0), Workflow: wfOne("l2", "LAMMPS", "4x", 1)},
	}
	out, err := s.ScheduleOnline(arrivals, gpusim.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	second := out.Dispatches[1]
	if second.WaitedS != 0 {
		t.Fatalf("interference-tolerant dispatch still waited %vs", second.WaitedS)
	}
	if len(second.RunningAlongside) != 1 || second.RunningAlongside[0] != "l1" {
		t.Fatalf("second LAMMPS alongside %v, want [l1]", second.RunningAlongside)
	}
}

func TestPlanOnlineAllowInterferingNeverOOMs(t *testing.T) {
	// AllowInterferingPairs tolerates compute/bandwidth violations but
	// never capacity: two 61 GiB WarpX workflows still serialize.
	store := suiteStore(t)
	policy := EnergyPolicy()
	policy.AllowInterferingPairs = true
	s, _ := NewScheduler(a100x(), 1, store, policy)
	arrivals := []Arrival{
		{At: at(0), Workflow: wfOne("w1", "WarpX", "1x", 1)},
		{At: at(0), Workflow: wfOne("w2", "WarpX", "1x", 1)},
	}
	plan, err := s.PlanOnline(arrivals)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Dispatches[1].WaitedS <= 0 {
		t.Fatal("second WarpX must wait for memory even under AllowInterferingPairs")
	}
	if plan.Stats.Waits == 0 {
		t.Fatal("wait loop never ran")
	}
}

// oversizedStore profiles a well-behaved workload plus one whose memory
// footprint exceeds the device, for exercising the no-fit error path.
func oversizedStore(t *testing.T, device gpu.DeviceSpec) *profile.Store {
	t.Helper()
	store := profile.NewStore()
	for _, p := range []*profile.TaskProfile{
		{Workload: "small", Size: "1x", AvgSMUtilPct: 20, AvgBWUtilPct: 10,
			MaxMemMiB: 1024, DurationS: 30, EnergyJ: 3000},
		{Workload: "huge", Size: "1x", AvgSMUtilPct: 20, AvgBWUtilPct: 10,
			MaxMemMiB: device.MemoryMiB + 1, DurationS: 30, EnergyJ: 3000},
	} {
		if err := store.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	return store
}

func TestPlanOnlineNoFitMidQueue(t *testing.T) {
	// A workflow that cannot fit an empty GPU (solo capacity violation)
	// must fail the plan with a diagnostic, not spin the wait loop —
	// including mid-queue, after earlier arrivals dispatched fine.
	device := a100x()
	s, err := NewScheduler(device, 2, oversizedStore(t, device), EnergyPolicy())
	if err != nil {
		t.Fatal(err)
	}
	arrivals := []Arrival{
		{At: at(0), Workflow: wfOne("ok-1", "small", "1x", 1)},
		{At: at(1), Workflow: wfOne("ok-2", "small", "1x", 1)},
		{At: at(2), Workflow: wfOne("doomed", "huge", "1x", 1)},
		{At: at(3), Workflow: wfOne("ok-3", "small", "1x", 1)},
	}
	_, err = s.PlanOnline(arrivals)
	if err == nil {
		t.Fatal("oversized workflow admitted")
	}
	if !strings.Contains(err.Error(), "doomed") ||
		!strings.Contains(err.Error(), "cannot be admitted") {
		t.Fatalf("error %q does not identify the doomed workflow", err)
	}
}

func TestScheduleOnlineCapacitySerializes(t *testing.T) {
	// Two 61 GiB WarpX workflows cannot coexist: the capacity rule must
	// serialize the second behind the first rather than deadlock.
	store := suiteStore(t)
	s, _ := NewScheduler(a100x(), 1, store, EnergyPolicy())
	arrivals := []Arrival{
		{At: at(0), Workflow: wfOne("w1", "WarpX", "1x", 1)},
		{At: at(0), Workflow: wfOne("w2", "WarpX", "1x", 1)},
	}
	out, err := s.ScheduleOnline(arrivals, gpusim.Config{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if out.Dispatches[1].WaitedS <= 0 {
		t.Fatal("second WarpX must wait for memory")
	}
	if out.Sharing.Tasks != 2 {
		t.Fatalf("tasks = %d", out.Sharing.Tasks)
	}
}
