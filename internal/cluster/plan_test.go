package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"gpushare/internal/core"
	"gpushare/internal/gpu"
	"gpushare/internal/gpusim"
	"gpushare/internal/interference"
	"gpushare/internal/obs"
	"gpushare/internal/profile"
	"gpushare/internal/simtime"
	"gpushare/internal/workflow"
)

func a100x() gpu.DeviceSpec { return gpu.MustLookup("A100X") }

// testStore registers three archetypes: small (five fit one MPS GPU),
// big (one per GPU under the SM rule), huge (exceeds a half-GPU MIG
// instance but fits a whole device).
func testStore(t *testing.T) *profile.Store {
	t.Helper()
	store := profile.NewStore()
	add := func(name string, durS float64, sm, bw float64, mem int64) {
		t.Helper()
		if err := store.Add(&profile.TaskProfile{
			Workload: name, Size: "1x", Device: "NVIDIA A100X",
			DurationS: durS, MaxMemMiB: mem,
			AvgSMUtilPct: sm, AvgBWUtilPct: bw,
			AvgPowerW: 100, EnergyJ: 100 * durS, GPUIdlePct: 5,
			TheoreticalOccPct: 50, AchievedOccPct: 35, SizeFactor: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	add("small", 100, 20, 10, 2048)
	add("big", 200, 60, 40, 20000)
	add("huge", 150, 30, 20, 50000)
	return store
}

func wf(name, bench string) workflow.Workflow {
	return workflow.Workflow{
		Name:  name,
		Tasks: []workflow.Task{{Benchmark: bench, Size: "1x", Iterations: 1}},
	}
}

func sub(atS float64, tenant string, prio int, g workflow.Gang) Submission {
	return Submission{
		At: simtime.Zero.Add(simtime.FromSeconds(atS)), Tenant: tenant,
		Priority: prio, Gang: g,
	}
}

func gang(name string, members ...workflow.Workflow) workflow.Gang {
	return workflow.Gang{Name: name, Members: members}
}

// oneNode is a single-node MPS cluster with a resident cap.
func oneNode(cap int, tenants ...string) Spec {
	s := Spec{Nodes: []NodeSpec{{
		Name: "n0", Device: a100x(), GPUs: 1, Mode: ModeMPS, ClientCap: cap,
	}}}
	for _, name := range tenants {
		s.Tenants = append(s.Tenants, TenantSpec{Name: name, Weight: 1})
	}
	return s
}

func mustPlan(t *testing.T, spec Spec, store *profile.Store, subs []Submission) *Outcome {
	t.Helper()
	p, err := NewPlanner(spec, store)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Plan(subs)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// runPlanner runs Plan's own steps and returns the drained planner, so
// a test can inspect its pool and counters.
func runPlanner(t *testing.T, spec Spec, store *profile.Store, subs []Submission) *planner {
	t.Helper()
	p, err := NewPlanner(spec, store)
	if err != nil {
		t.Fatal(err)
	}
	st, err := p.newPlanner(subs)
	if err != nil {
		t.Fatal(err)
	}
	st.run()
	st.finish()
	return st
}

func approx(t *testing.T, what string, got, want float64) {
	t.Helper()
	if math.Abs(got-want) > 1e-9 {
		t.Fatalf("%s = %v, want %v", what, got, want)
	}
}

func TestPlanRejectsEmptyAndUnknown(t *testing.T) {
	store := testStore(t)
	p, err := NewPlanner(oneNode(2, "a"), store)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Plan(nil); !errors.Is(err, ErrNoSubmissions) {
		t.Fatalf("Plan(nil) err = %v, want ErrNoSubmissions", err)
	}
	_, err = p.Plan([]Submission{sub(0, "ghost", 0, workflow.Single(wf("w", "small")))})
	if !errors.Is(err, ErrUnknownTenant) {
		t.Fatalf("unknown tenant err = %v, want ErrUnknownTenant", err)
	}
}

// TestPlanRejectsBadMember pins where a gang member's shape is checked:
// Gang.ValidateShape looks at the gang alone, and the member's profile
// build refuses it, with the gang named in the error.
func TestPlanRejectsBadMember(t *testing.T) {
	store := testStore(t)
	p, err := NewPlanner(oneNode(2, "a"), store)
	if err != nil {
		t.Fatal(err)
	}
	badSize := wf("w-1", "small")
	badSize.Tasks[0].Size = "4q"
	for _, c := range []struct {
		name   string
		member workflow.Workflow
		want   string
	}{
		{"no tasks", workflow.Workflow{Name: "w-1"}, "no tasks"},
		{"bad size label", badSize, `"4q"`},
	} {
		g := gang("pair", wf("w-0", "small"), c.member)
		_, err := p.Plan([]Submission{sub(0, "a", 0, g)})
		if err == nil || !strings.Contains(err.Error(), "gang pair") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want naming gang pair and containing %q", c.name, err, c.want)
		}
	}
}

// TestSpecRejectsNonFinite pins the spec boundary: a NaN thread cap
// would leave its node silently uncapped.
func TestSpecRejectsNonFinite(t *testing.T) {
	store := testStore(t)
	for _, c := range []struct {
		name string
		edit func(*Spec)
	}{
		{"thread cap NaN", func(s *Spec) { s.Nodes[0].MPSActiveThreadPct = math.NaN() }},
		{"thread cap +Inf", func(s *Spec) { s.Nodes[0].MPSActiveThreadPct = math.Inf(1) }},
		{"thread cap -Inf", func(s *Spec) { s.Nodes[0].MPSActiveThreadPct = math.Inf(-1) }},
	} {
		spec := oneNode(2, "a")
		spec.Preemption = true
		c.edit(&spec)
		if _, err := NewPlanner(spec, store); err == nil {
			t.Errorf("%s: spec accepted", c.name)
		}
	}
	spec := oneNode(2, "a")
	spec.Nodes[0].MPSActiveThreadPct = 100
	if _, err := NewPlanner(spec, store); err != nil {
		t.Fatalf("boundary spec rejected: %v", err)
	}
}

// TestGangWaitsForFullFit pins all-or-nothing admission under
// contention: a two-member gang with one free slot waits whole, then
// places both members at the same instant.
func TestGangWaitsForFullFit(t *testing.T) {
	store := testStore(t)
	subs := []Submission{
		sub(0, "a", 0, workflow.Single(wf("solo", "small"))),
		sub(10, "a", 0, gang("pair", wf("p-0", "small"), wf("p-1", "small"))),
	}
	out := mustPlan(t, oneNode(2, "a"), store, subs)
	if len(out.Dispatches) != 3 {
		t.Fatalf("dispatches = %d, want 3", len(out.Dispatches))
	}
	for _, d := range out.Dispatches[1:] {
		if d.Gang != "pair" {
			t.Fatalf("unexpected dispatch order: %+v", out.Dispatches)
		}
		// The gang waits for the solo job's slot: both members place
		// together at t=100, never split across instants.
		approx(t, "gang member dispatch at", d.At.Seconds(), 100)
		approx(t, "gang member waited", d.WaitedS, 90)
	}
	if len(out.Failed) != 0 || len(out.Evictions) != 0 {
		t.Fatalf("unexpected failures %v or evictions %v", out.Failed, out.Evictions)
	}
}

// TestGangNeverFitsFailsWhole pins the other half of all-or-nothing: a
// gang too big for an idle cluster is failed in full — zero members
// dispatch.
func TestGangNeverFitsFailsWhole(t *testing.T) {
	store := testStore(t)
	subs := []Submission{
		sub(0, "a", 0, gang("too-big", wf("g0", "small"), wf("g1", "small"), wf("g2", "small"))),
		sub(0, "a", 0, workflow.Single(wf("after", "small"))),
	}
	out := mustPlan(t, oneNode(2, "a"), store, subs)
	if len(out.Failed) != 1 || out.Failed[0].Gang != "too-big" {
		t.Fatalf("failed = %+v, want the too-big gang", out.Failed)
	}
	for _, d := range out.Dispatches {
		if d.Gang == "too-big" {
			t.Fatalf("member of a failed gang dispatched: %+v", d)
		}
	}
	// The queue keeps moving past the failed gang.
	if len(out.Jobs) != 1 || out.Jobs[0].Gang != "after" {
		t.Fatalf("jobs = %+v, want the trailing single to complete", out.Jobs)
	}
}

// TestOutcomeLogsExact pins the logs finish builds: each is allocated
// once at its length, with no spare capacity, and is nil when nothing
// was logged, as a log that was never appended to reads. The first plan
// preempts and fails a gang, so Jobs ends short of its presize; the
// second fails every gang, so nothing dispatches, evicts or completes.
func TestOutcomeLogsExact(t *testing.T) {
	store := testStore(t)
	spec, subs := flightScenario()
	out := mustPlan(t, spec, store, subs)
	if len(out.Dispatches) == 0 || len(out.Evictions) == 0 || len(out.Jobs) == 0 || len(out.Failed) == 0 {
		t.Fatalf("scenario logged %d dispatches, %d evictions, %d jobs, %d failures; want some of each",
			len(out.Dispatches), len(out.Evictions), len(out.Jobs), len(out.Failed))
	}
	if cap(out.Dispatches) != len(out.Dispatches) || cap(out.Evictions) != len(out.Evictions) || cap(out.Jobs) != len(out.Jobs) {
		t.Fatalf("log capacities %d/%d/%d for lengths %d/%d/%d, want them equal", cap(out.Dispatches), cap(out.Evictions), cap(out.Jobs),
			len(out.Dispatches), len(out.Evictions), len(out.Jobs))
	}
	none := mustPlan(t, oneNode(2, "a"), store, []Submission{
		sub(0, "a", 0, gang("too-big", wf("g0", "small"), wf("g1", "small"), wf("g2", "small"))),
	})
	if none.Dispatches != nil || none.Evictions != nil || none.Jobs != nil || len(none.Failed) != 1 {
		t.Fatalf("all-failed plan: dispatches %v, evictions %v, jobs %v, failed %v; want three nil logs and one failure",
			none.Dispatches, none.Evictions, none.Jobs, none.Failed)
	}
}

// TestMemberAboveDeviceMemoryRefused pins the memory bound of MPS and
// time-slice nodes: a member larger than the device is refused beside a
// resident, where the resident's memory plus its own would wrap int64
// and pass the capacity rule, by the first-fit scan and by the what-if
// and hold probe alike; the plan fails it whole.
func TestMemberAboveDeviceMemoryRefused(t *testing.T) {
	store := profile.NewStore()
	for name, mem := range map[string]int64{"resident": 1024, "giant": math.MaxInt64 - 10} {
		if err := store.Add(&profile.TaskProfile{
			Workload: name, Size: "1x", Device: "NVIDIA A100X",
			DurationS: 100, MaxMemMiB: mem, AvgSMUtilPct: 10,
			AvgPowerW: 100, EnergyJ: 100 * 100, GPUIdlePct: 5,
			TheoreticalOccPct: 50, AchievedOccPct: 35, SizeFactor: 1,
		}); err != nil {
			t.Fatal(err)
		}
	}
	subs := []Submission{
		sub(0, "a", 0, workflow.Single(wf("r", "resident"))),
		sub(1, "a", 1, workflow.Single(wf("g", "giant"))),
	}
	for _, mode := range []Mode{ModeMPS, ModeTimeSlice} {
		spec := oneNode(4, "a")
		spec.Nodes[0].Mode = mode
		spec.Preemption = true
		p, err := NewPlanner(spec, store)
		if err != nil {
			t.Fatal(err)
		}
		st, err := p.newPlanner(subs)
		if err != nil {
			t.Fatal(err)
		}
		commitByHand(t, st, st.jobs[0])
		m := &st.jobs[1].members[0]
		if g := st.findFit(st.jobs[1], m, simtime.Zero); g >= 0 {
			t.Fatalf("%s: findFit seated a %d-MiB member on GPU %d beside a resident", mode, m.load.MemMiB, g)
		}
		node := st.gpus[0].node
		if rules := st.probe(node, 0, m, st.pool.Len(0), nil); rules&interference.MaskCapacity == 0 {
			t.Fatalf("%s: probe admitted a %d-MiB member beside a resident (rules %v)", mode, m.load.MemMiB, rules)
		}

		out := mustPlan(t, spec, store, subs)
		if len(out.Failed) != 1 || out.Failed[0].Gang != "g" {
			t.Fatalf("%s: failed = %+v, want the giant member's gang", mode, out.Failed)
		}
		for _, d := range out.Dispatches {
			if d.Gang == "g" {
				t.Fatalf("%s: giant member dispatched: %+v", mode, d)
			}
		}
	}
}

// TestPreemptionChargesVictim pins the preemption accounting end to end:
// the victim's makespan includes the lost partial run and the restart
// overhead, and the eviction record itemizes both.
func TestPreemptionChargesVictim(t *testing.T) {
	store := testStore(t)
	spec := oneNode(1, "batch", "prod")
	spec.Preemption = true
	subs := []Submission{
		sub(0, "batch", 0, workflow.Single(wf("victim", "big"))),   // 200 s solo
		sub(10, "prod", 1, workflow.Single(wf("urgent", "small"))), // 100 s solo
	}
	out := mustPlan(t, spec, store, subs)

	if len(out.Evictions) != 1 {
		t.Fatalf("evictions = %+v, want exactly one", out.Evictions)
	}
	ev := out.Evictions[0]
	if ev.Gang != "victim" || ev.Preemptor != "urgent" {
		t.Fatalf("eviction pairing = %+v", ev)
	}
	approx(t, "eviction at", ev.At.Seconds(), 10)
	approx(t, "lost partial run", ev.LostS, 10)
	approx(t, "restart overhead", ev.OverheadS, 10) // spec default

	byGang := map[string]JobSummary{}
	for _, j := range out.Jobs {
		byGang[j.Gang] = j
	}
	urgent := byGang["urgent"]
	approx(t, "preemptor makespan", urgent.MakespanS, 100) // placed instantly at 10, done at 110
	victim := byGang["victim"]
	if victim.Preemptions != 1 {
		t.Fatalf("victim preemptions = %d, want 1", victim.Preemptions)
	}
	// Victim: ran 0..10 (lost), requeued, re-dispatched at 110 with
	// 200 s + 10 s restart penalty: done at 320. Makespan 320 vs 200
	// solo — the eviction is visible in the victim's makespan.
	approx(t, "victim completion", victim.CompletionS, 320)
	approx(t, "victim makespan", victim.MakespanS, 320)
	if out.Stats.Preemptions != 1 || out.Stats.GangsPreempted != 1 {
		t.Fatalf("stats = %+v, want one member of one gang preempted", out.Stats)
	}
}

// TestPreemptionOffHoldsInstead pins the control: same stream, no
// preemption — the high-priority job waits and nobody is evicted.
func TestPreemptionOffHoldsInstead(t *testing.T) {
	store := testStore(t)
	subs := []Submission{
		sub(0, "batch", 0, workflow.Single(wf("long", "big"))),
		sub(10, "prod", 1, workflow.Single(wf("urgent", "small"))),
	}
	out := mustPlan(t, oneNode(1, "batch", "prod"), store, subs)
	if len(out.Evictions) != 0 {
		t.Fatalf("evictions = %+v, want none with preemption off", out.Evictions)
	}
	for _, j := range out.Jobs {
		if j.Gang == "urgent" {
			approx(t, "urgent waited", j.WaitedS, 190) // arrives 10, slot frees 200
		}
	}
}

// TestFairShareInterleavesFIFODoesNot pins the two disciplines against
// each other on the same stream: tenant a submits first, so FIFO drains
// a's queue before b's; fair-share alternates by deficit.
func TestFairShareInterleavesFIFODoesNot(t *testing.T) {
	store := testStore(t)
	var subs []Submission
	for i := 0; i < 3; i++ {
		subs = append(subs, sub(0, "a", 0, workflow.Single(wf(fmt.Sprintf("a%d", i), "small"))))
	}
	for i := 0; i < 3; i++ {
		subs = append(subs, sub(0, "b", 0, workflow.Single(wf(fmt.Sprintf("b%d", i), "small"))))
	}

	order := func(d Discipline) []string {
		spec := oneNode(1, "a", "b")
		spec.Queue = d
		out := mustPlan(t, spec, store, subs)
		var names []string
		for _, dp := range out.Dispatches {
			names = append(names, dp.Workflow)
		}
		return names
	}

	fair := order(FairShare)
	wantFair := []string{"a0", "b0", "a1", "b1", "a2", "b2"}
	for i := range wantFair {
		if fair[i] != wantFair[i] {
			t.Fatalf("fair-share order = %v, want %v", fair, wantFair)
		}
	}
	fifo := order(FIFO)
	wantFIFO := []string{"a0", "a1", "a2", "b0", "b1", "b2"}
	for i := range wantFIFO {
		if fifo[i] != wantFIFO[i] {
			t.Fatalf("fifo order = %v, want %v", fifo, wantFIFO)
		}
	}
}

// TestFairShareWeights pins weighted deficit: weight 2 earns double
// service, so the heavy tenant places two jobs per light-tenant job.
func TestFairShareWeights(t *testing.T) {
	store := testStore(t)
	spec := Spec{
		Nodes:   []NodeSpec{{Name: "n0", Device: a100x(), GPUs: 1, Mode: ModeMPS, ClientCap: 1}},
		Tenants: []TenantSpec{{Name: "heavy", Weight: 2}, {Name: "light", Weight: 1}},
	}
	var subs []Submission
	for i := 0; i < 4; i++ {
		subs = append(subs, sub(0, "heavy", 0, workflow.Single(wf(fmt.Sprintf("h%d", i), "small"))))
	}
	for i := 0; i < 2; i++ {
		subs = append(subs, sub(0, "light", 0, workflow.Single(wf(fmt.Sprintf("l%d", i), "small"))))
	}
	out := mustPlan(t, spec, store, subs)
	var names []string
	for _, d := range out.Dispatches {
		names = append(names, d.Workflow)
	}
	// Deficit walk (served/weight): h0 (0/2 vs 0/1, name order), l0? —
	// heavy 50 vs light 0 → l0; then heavy 50 vs light 100 → h1, h2
	// (100/2=50 < 100), l1, h3.
	want := []string{"h0", "l0", "h1", "h2", "l1", "h3"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("weighted order = %v, want %v", names, want)
		}
	}
}

// TestMIGIsolationIgnoresInterference pins ModeMIG: two big jobs whose
// SM sums would violate the MPS rule run side by side in isolated
// instances, and a half-instance-oversized memory footprint never fits.
func TestMIGIsolationIgnoresInterference(t *testing.T) {
	store := testStore(t)
	spec := Spec{
		Nodes: []NodeSpec{{
			Name: "mig0", Device: a100x(), GPUs: 1, Mode: ModeMIG, MIGInstances: 2,
		}},
		Tenants: []TenantSpec{{Name: "a"}},
	}
	subs := []Submission{
		sub(0, "a", 0, workflow.Single(wf("big-0", "big"))),  // SM 60 each:
		sub(0, "a", 0, workflow.Single(wf("big-1", "big"))),  // 120 > 100 under MPS
		sub(0, "a", 0, workflow.Single(wf("spill", "huge"))), // 50000 MiB > 40960 instance
	}
	out := mustPlan(t, spec, store, subs)
	placedAtZero := 0
	for _, d := range out.Dispatches {
		if d.At == simtime.Zero {
			placedAtZero++
		}
	}
	if placedAtZero != 2 {
		t.Fatalf("MIG placed %d at t=0, want both bigs side by side", placedAtZero)
	}
	if len(out.Failed) != 1 || out.Failed[0].Gang != "spill" {
		t.Fatalf("failed = %+v, want the over-instance job", out.Failed)
	}
}

// TestTimeSliceDilation pins ModeTimeSlice: co-residents dilate the
// arriving member's predicted duration by the resident count.
func TestTimeSliceDilation(t *testing.T) {
	store := testStore(t)
	spec := Spec{
		Nodes: []NodeSpec{{
			Name: "ts0", Device: a100x(), GPUs: 1, Mode: ModeTimeSlice, TimeSliceCap: 3,
		}},
		Tenants: []TenantSpec{{Name: "a"}},
	}
	subs := []Submission{
		sub(0, "a", 0, workflow.Single(wf("ts-0", "small"))),
		sub(0, "a", 0, workflow.Single(wf("ts-1", "small"))),
		sub(0, "a", 0, workflow.Single(wf("ts-2", "small"))),
	}
	out := mustPlan(t, spec, store, subs)
	byGang := map[string]float64{}
	for _, j := range out.Jobs {
		byGang[j.Gang] = j.CompletionS
	}
	approx(t, "first resident", byGang["ts-0"], 100)  // alone at dispatch: x1
	approx(t, "second resident", byGang["ts-1"], 200) // one co-resident: x2
	approx(t, "third resident", byGang["ts-2"], 300)  // two co-residents: x3
}

// TestMPSThreadCapThrottles pins the active-thread cap: a 60% SM member
// on a 40%-capped node contributes 40 points of pressure and runs
// 60/40 = 1.5x longer.
func TestMPSThreadCapThrottles(t *testing.T) {
	store := testStore(t)
	spec := Spec{
		Nodes: []NodeSpec{{
			Name: "capped", Device: a100x(), GPUs: 1, Mode: ModeMPS,
			MPSActiveThreadPct: 40, ClientCap: 8,
		}},
		Tenants: []TenantSpec{{Name: "a"}},
	}
	subs := []Submission{
		sub(0, "a", 0, workflow.Single(wf("big-0", "big"))),
		sub(0, "a", 0, workflow.Single(wf("big-1", "big"))),
	}
	out := mustPlan(t, spec, store, subs)
	// Uncapped, 60+60 = 120 > 100 would serialize the pair; capped at
	// 40 points each they collocate.
	for _, d := range out.Dispatches {
		if d.At != simtime.Zero {
			t.Fatalf("capped members should collocate at t=0: %+v", out.Dispatches)
		}
	}
	for _, j := range out.Jobs {
		approx(t, "throttled duration "+j.Gang, j.CompletionS, 300) // 200 x 60/40
	}
}

// TestConservation pins the bookkeeping identity on a busy stream:
// every submission either completes or fails, and dispatch counts match
// members times placements.
func TestConservation(t *testing.T) {
	device := a100x()
	subs, store, err := GenerateStream(device, StreamSpec{
		Fleet:          coreFleet(400, 77),
		Tenants:        []string{"a", "b", "c"},
		PriorityLevels: 3,
		GangFraction:   0.2,
		GangSize:       3,
		Seed:           5,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Nodes: []NodeSpec{
			{Name: "mps0", Device: device, GPUs: 4, Mode: ModeMPS, ClientCap: 6},
			{Name: "ts0", Device: device, GPUs: 2, Mode: ModeTimeSlice, TimeSliceCap: 3},
		},
		Tenants:    []TenantSpec{{Name: "a", Weight: 1}, {Name: "b", Weight: 2}, {Name: "c", Weight: 1}},
		Preemption: true,
	}
	p, err := NewPlanner(spec, store)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Plan(subs)
	if err != nil {
		t.Fatal(err)
	}
	checkConservation(t, subs, out)
	if out.Stats.Preemptions == 0 {
		t.Fatal("stream with 3 priority levels and a tight cluster should preempt")
	}
}

// checkConservation asserts the gang accounting identities shared by the
// unit tests and the fuzz target.
func checkConservation(t *testing.T, subs []Submission, out *Outcome) {
	t.Helper()
	if got, want := len(out.Jobs)+len(out.Failed), len(subs); got != want {
		t.Fatalf("jobs %d + failed %d != submissions %d", len(out.Jobs), len(out.Failed), want)
	}
	members := map[string]int{}
	for i := range subs {
		members[subs[i].Gang.Name] = len(subs[i].Gang.Members)
	}
	dispatched := map[string]int{}
	for _, d := range out.Dispatches {
		dispatched[d.Gang]++
	}
	evicted := map[string]int{}
	for _, e := range out.Evictions {
		evicted[e.Gang]++
	}
	for _, j := range out.Jobs {
		m := members[j.Gang]
		if got, want := dispatched[j.Gang], m*(j.Preemptions+1); got != want {
			t.Fatalf("gang %s: %d dispatches, want members %d x placements %d",
				j.Gang, got, m, j.Preemptions+1)
		}
		if got, want := evicted[j.Gang], m*j.Preemptions; got != want {
			t.Fatalf("gang %s: %d evictions, want members %d x preemptions %d",
				j.Gang, got, m, j.Preemptions)
		}
		if j.MakespanS < 0 || math.IsNaN(j.MakespanS) || j.WaitedS < 0 || math.IsNaN(j.WaitedS) {
			t.Fatalf("gang %s: invalid accounting %+v", j.Gang, j)
		}
	}
	for _, f := range out.Failed {
		if n := dispatched[f.Gang] - evicted[f.Gang]; n != 0 {
			t.Fatalf("failed gang %s still has %d live dispatches", f.Gang, n)
		}
	}
}

// TestPlanDeterminism pins byte-identity of both the outcome and the
// telemetry snapshot across repeated runs.
func TestPlanDeterminism(t *testing.T) {
	device := a100x()
	subs, store, err := GenerateStream(device, StreamSpec{
		Fleet:          coreFleet(300, 11),
		Tenants:        []string{"t0", "t1"},
		PriorityLevels: 2,
		GangFraction:   0.15,
		Seed:           9,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Nodes: []NodeSpec{
			{Name: "mps0", Device: device, GPUs: 3, Mode: ModeMPS, ClientCap: 5},
			{Name: "mig0", Device: device, GPUs: 1, Mode: ModeMIG, MIGInstances: 4},
		},
		Tenants:    []TenantSpec{{Name: "t0"}, {Name: "t1", Weight: 3}},
		Preemption: true,
	}
	run := func() (outJSON, metricsJSON []byte) {
		hub := obs.NewHub(nil)
		prev := obs.SetActive(hub)
		defer obs.SetActive(prev)
		p, err := NewPlanner(spec, store)
		if err != nil {
			t.Fatal(err)
		}
		out, err := p.Plan(subs)
		if err != nil {
			t.Fatal(err)
		}
		oj, err := json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		mj, err := json.Marshal(hub.Metrics.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return oj, mj
	}
	o1, m1 := run()
	o2, m2 := run()
	if string(o1) != string(o2) {
		t.Fatal("outcome bytes diverged across identical runs")
	}
	if string(m1) != string(m2) {
		t.Fatal("metrics snapshot bytes diverged across identical runs")
	}
}

// TestPerTenantMetrics pins the per-tenant registry keys.
func TestPerTenantMetrics(t *testing.T) {
	store := testStore(t)
	hub := obs.NewHub(nil)
	prev := obs.SetActive(hub)
	defer obs.SetActive(prev)
	spec := oneNode(1, "batch", "prod")
	spec.Preemption = true
	subs := []Submission{
		sub(0, "batch", 0, workflow.Single(wf("victim", "big"))),
		sub(10, "prod", 1, workflow.Single(wf("urgent", "small"))),
	}
	mustPlan(t, spec, store, subs)
	snap := hub.Metrics.Snapshot()
	if got := snap.Counters["cluster_tenant_preemptions_total_batch"]; got != 1 {
		t.Fatalf("batch preemption counter = %d, want 1", got)
	}
	if got := snap.Counters["cluster_tenant_jobs_total_prod"]; got != 1 {
		t.Fatalf("prod jobs counter = %d, want 1", got)
	}
	if got := snap.Gauges["cluster_tenant_queue_depth_max_batch"]; got < 1 {
		t.Fatalf("batch queue depth gauge = %d, want >= 1", got)
	}
	if got := snap.Counters["cluster_dispatch_total"]; got != 3 {
		t.Fatalf("dispatch counter = %d, want 3 (victim twice + urgent)", got)
	}
	if got := snap.Counters["cluster_evictions_total"]; got != 1 {
		t.Fatalf("eviction counter = %d, want 1", got)
	}
	// SLO histograms: urgent waited 0 s (first bucket); the victim's
	// service time is its makespan minus the 100 s final wait.
	wh := snap.Histograms["cluster_tenant_wait_ms_prod"]
	if wh.Count != 1 || wh.Counts[0] != 1 {
		t.Fatalf("prod wait histogram = %+v, want one zero-wait dispatch", wh)
	}
	sh := snap.Histograms["cluster_tenant_service_ms_batch"]
	if sh.Count != 1 || sh.Sum != 210_000 {
		t.Fatalf("batch service histogram = %+v, want one 210000 ms observation", sh)
	}
}

// TestPreemptionStorm drains a stream engineered to preempt repeatedly:
// long low-priority jobs saturate one GPU while short high-priority jobs
// keep arriving. The loop must stay live (no lost jobs) and each
// re-dispatch must charge the victim again.
func TestPreemptionStorm(t *testing.T) {
	store := testStore(t)
	spec := oneNode(1, "batch", "prod")
	spec.Preemption = true
	subs := []Submission{
		sub(0, "batch", 0, workflow.Single(wf("victim", "big"))),
	}
	for i := 0; i < 5; i++ {
		subs = append(subs, sub(float64(20+150*i), "prod", 1,
			workflow.Single(wf(fmt.Sprintf("spike-%d", i), "small"))))
	}
	out := mustPlan(t, spec, store, subs)
	checkConservation(t, subs, out)
	var victim JobSummary
	for _, j := range out.Jobs {
		if j.Gang == "victim" {
			victim = j
		}
	}
	if victim.Preemptions < 2 {
		t.Fatalf("storm produced %d preemptions of the victim, want >= 2", victim.Preemptions)
	}
	// Every round loses partial work and adds overhead: the makespan
	// must strictly dominate solo duration plus the charged overhead.
	if victim.MakespanS <= 200+float64(victim.Preemptions)*10 {
		t.Fatalf("victim makespan %v does not reflect %d evictions", victim.MakespanS, victim.Preemptions)
	}
}

// TestGangStarvationResolves pins that a whole-cluster gang eventually
// places once the stream drains — held, not starved forever, and never
// partially placed meanwhile.
func TestGangStarvationResolves(t *testing.T) {
	store := testStore(t)
	spec := oneNode(2, "singles", "gangs")
	subs := []Submission{
		sub(0, "singles", 0, workflow.Single(wf("s0", "small"))),
		// Arrives with one slot already taken, so the two-member gang
		// holds; singles keep slipping into single free slots ahead of
		// it (work-conserving), and it only places once both slots
		// drain.
		sub(1, "gangs", 0, gang("wide", wf("w0", "small"), wf("w1", "small"))),
		sub(5, "singles", 0, workflow.Single(wf("s1", "small"))),
		sub(15, "singles", 0, workflow.Single(wf("s2", "small"))),
	}
	out := mustPlan(t, spec, store, subs)
	checkConservation(t, subs, out)
	byGang := map[string]JobSummary{}
	for _, j := range out.Jobs {
		byGang[j.Gang] = j
	}
	wide, ok := byGang["wide"]
	if !ok {
		t.Fatalf("gang never placed: %+v", out.Failed)
	}
	if wide.WaitedS <= 0 {
		t.Fatal("gang should have waited behind the singles")
	}
	if out.Stats.GangHolds == 0 {
		t.Fatal("expected recorded holds while the gang waited")
	}
}

// TestClusterAdmitAllocs pins the admit/preempt hot path at zero
// steady-state allocations: probes, the victim-key walk and its
// what-ifs, the resident pool, a failed gang attempt, a dispatch round
// that holds it and requeues it at its tenant's front (with the shadow
// check rerunning the skipped retry), and the changed-GPU walk that
// re-checks its hold must not allocate once warm, with telemetry off
// and with a live flight recorder taking the scan, what-if and hold
// records. A preemption that requeues its victim at the front must not
// allocate either, with telemetry off: the eviction record names the
// preemptor in a concatenated Detail.
func TestClusterAdmitAllocs(t *testing.T) {
	store := testStore(t)
	spec := oneNode(4, "a", "b")
	spec.Preemption = true
	p, err := NewPlanner(spec, store)
	if err != nil {
		t.Fatal(err)
	}
	subs := []Submission{
		sub(0, "a", 0, workflow.Single(wf("w0", "small"))),
		sub(0, "a", 1, workflow.Single(wf("w1", "small"))),
	}
	prev := obs.Active()
	defer obs.SetActive(prev)
	for _, hub := range []*obs.Hub{nil, obs.NewHub(nil)} {
		obs.SetActive(hub)
		st, err := p.newPlanner(subs)
		if err != nil {
			t.Fatal(err)
		}
		st.run() // warm pools, snapshot buffers, and tx journals
		g := 0
		m := &st.jobs[0].members[0]
		// Fill the GPU to its client cap with residents of a completed
		// job, which no gang may evict: every attempt of w1 fails.
		for i := 0; i < 4; i++ {
			r := st.acquireResident()
			r.job, r.gpu = st.jobs[0], g
			st.pool.Add(g, m.load, r)
		}
		held := st.jobs[1]
		warm := func() {
			_ = st.findFit(st.jobs[0], m, simtime.Zero)
			_ = st.findEvictionFit(st.jobs[1], m, simtime.Zero)
			_ = st.canFitAfterEviction(g, st.jobs[1], m)
			st.saveGPU(g)
			r := st.acquireResident()
			st.releaseResident(r)
			st.rollback()
			if st.tryPlaceGang(held, simtime.Zero) {
				t.Fatal("attempt on a full GPU placed")
			}
			// A round pops the held gang, skips its retry and pushes it
			// back to the front.
			st.enqueue(held)
			holds := st.stats.GangHolds
			st.dispatchRound(simtime.Zero)
			if st.stats.GangHolds != holds+1 || held.tenant.queue.Len() != 1 || held.tenant.queue.PopFront() != held {
				t.Fatal("the round did not hold the gang at its tenant's front")
			}
			// Re-check every GPU as changed, with a member placed by
			// eviction on a later GPU, so every rule runs.
			held.hold.clock = 0
			held.hold.placed = append(held.hold.placed, placement{gpu: g + 1, evicted: true})
			if stands, rechecked := st.holdStands(held); !stands || rechecked != 1 {
				t.Fatalf("hold re-check = %v over %d GPUs, want it to stand over 1", stands, rechecked)
			}
			if st.fl != nil {
				st.recordHold(held, simtime.Zero, true, 1)
			}
			st.pool.Touch(g)
		}
		warm()
		whatIfs := st.stats.WhatIfs
		if allocs := testing.AllocsPerRun(200, warm); allocs != 0 {
			t.Fatalf("admit/preempt hot path (telemetry %v) allocates %v per cycle, want 0", hub != nil, allocs)
		}
		if st.stats.WhatIfs == whatIfs {
			t.Fatal("the victim key skipped every what-if the pin runs")
		}
		if hub != nil && hub.Flight.Snapshot().Total == 0 {
			t.Fatal("pin never recorded a flight record")
		}
	}

	obs.SetActive(nil)
	vspec := oneNode(1, "a", "b")
	vspec.Preemption = true
	vp, err := NewPlanner(vspec, store)
	if err != nil {
		t.Fatal(err)
	}
	vs, err := vp.newPlanner([]Submission{
		sub(0, "a", 0, workflow.Single(wf("low", "small"))),
		sub(0, "b", 1, workflow.Single(wf("high", "small"))),
	})
	if err != nil {
		t.Fatal(err)
	}
	low, high := vs.jobs[0], vs.jobs[1]
	evict := func() {
		if !vs.tryPlaceGang(low, simtime.Zero) || !vs.tryPlaceGang(high, simtime.Zero) {
			t.Fatal("the preemptor did not place over its victim")
		}
		if low.tenant.queue.Len() != 1 || low.tenant.queue.PopFront() != low {
			t.Fatal("the victim was not requeued at its tenant's front")
		}
		end, _ := vs.pool.NextCompletion()
		_, r, _ := vs.pool.Retire(end)
		vs.retire(r, simtime.Zero)
		vs.dispatches, vs.evictions, vs.out.Jobs = vs.dispatches[:0], vs.evictions[:0], vs.out.Jobs[:0]
	}
	evict()
	if allocs := testing.AllocsPerRun(200, evict); allocs != 0 {
		t.Fatalf("preemption with a victim requeue allocates %v per cycle, want 0", allocs)
	}
	if vs.stats.GangsPreempted < 200 {
		t.Fatalf("the victim cycle preempted %d gangs, want one per cycle", vs.stats.GangsPreempted)
	}
}

// TestWhatIfLeavesAggregateUntouched pins the read-only preemption
// what-if directly: canFitAfterEviction never mutates the live
// aggregate — not on a fit, not on a miss, not when there are no
// victims — so the provenance digest pair is two reads of the same
// state.
func TestWhatIfLeavesAggregateUntouched(t *testing.T) {
	store := testStore(t)
	spec := oneNode(4, "a", "b")
	spec.Preemption = true
	p, err := NewPlanner(spec, store)
	if err != nil {
		t.Fatal(err)
	}
	subs := []Submission{
		sub(0, "a", 0, workflow.Single(wf("low0", "big"))),
		sub(0, "a", 0, workflow.Single(wf("low1", "small"))),
		sub(0, "b", 2, workflow.Single(wf("high", "big"))),
	}
	st, err := p.newPlanner(subs)
	if err != nil {
		t.Fatal(err)
	}
	// Place and commit the two priority-0 jobs by hand so the GPU holds
	// fully-resident (victimable) gangs.
	now := simtime.Zero
	for _, j := range st.jobs[:2] {
		g := st.findFit(j, &j.members[0], now)
		if g < 0 {
			t.Fatal("setup job did not fit")
		}
		st.placeMember(j, 0, g, now)
		st.commit(j, now)
	}
	g := 0
	before := st.pool.Digest(g)

	high, low := st.jobs[2], st.jobs[0]
	if !st.canFitAfterEviction(g, high, &high.members[0]) {
		t.Fatal("high-priority member should fit once the victims are gone")
	}
	if got := st.pool.Digest(g); got != before {
		t.Fatalf("fitting what-if mutated the aggregate: digest %016x, want %016x", got, before)
	}
	// No strictly-lower-priority residents for the low job: no victims.
	if st.canFitAfterEviction(g, low, &low.members[0]) {
		t.Fatal("what-if with no victims must report no fit")
	}
	if got := st.pool.Digest(g); got != before {
		t.Fatalf("victimless what-if mutated the aggregate: digest %016x, want %016x", got, before)
	}
	// The resident list is untouched too — the what-if is mask-based.
	if st.pool.Len(g) != 2 {
		t.Fatalf("what-if disturbed the resident list: %d residents, want 2", st.pool.Len(g))
	}
}

// coreFleet builds the FleetSpec the stream tests share.
func coreFleet(workflows int, seed uint64) core.FleetSpec {
	return core.FleetSpec{Workflows: workflows, TargetGPUs: 8, Seed: seed}
}

// TestNonFiniteProfilesRejected checks both ends of the profile
// boundary for each kind of load admission cannot fold: the store
// refuses a task profile carrying it (a NaN, an infinite or a negative
// utilization, or a negative memory peak), and where profiles the store
// accepts can still fold into it — a utilization or duration so large
// that the duration-weighted average overflows to +Inf, or to Inf/Inf =
// NaN — both dispatchers refuse the workflow where they build workflow
// profiles: the cluster's Plan and core's ScheduleOnline.
func TestNonFiniteProfilesRejected(t *testing.T) {
	type fields struct {
		sm, bw, durS float64
		mem          int64
	}
	cases := []struct {
		name     string
		bad      fields
		storeErr string
		// folds, when set, is a profile the store accepts whose workflow
		// of iterations runs still averages to an unfoldable load.
		folds      *fields
		iterations int
	}{
		{"nan-sm", fields{math.NaN(), 10, 100, 1024}, "SM utilization", &fields{20, 10, 1e308, 1024}, 2},
		{"inf-sm", fields{math.Inf(1), 10, 100, 1024}, "SM utilization", &fields{1e308, 10, 100, 1024}, 1},
		{"neg-inf-bw", fields{20, math.Inf(-1), 100, 1024}, "bandwidth utilization", &fields{20, 1e308, 100, 1024}, 1},
		{"neg-bw", fields{20, -5, 100, 1024}, "bandwidth utilization", nil, 0},
		{"neg-mem", fields{20, 10, 100, -1}, "negative memory", nil, 0},
	}
	profileOf := func(f fields) *profile.TaskProfile {
		return &profile.TaskProfile{
			Workload: "bad", Size: "1x", Device: "NVIDIA A100X",
			DurationS: f.durS, MaxMemMiB: f.mem, AvgSMUtilPct: f.sm, AvgBWUtilPct: f.bw,
			AvgPowerW: 100, EnergyJ: 1e4, GPUIdlePct: 5, SizeFactor: 1,
		}
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			store := profile.NewStore()
			if err := store.Add(profileOf(c.bad)); err == nil || !strings.Contains(err.Error(), c.storeErr) {
				t.Fatalf("store.Add: err = %v, want one naming %q", err, c.storeErr)
			}
			if c.folds == nil {
				return
			}
			if err := store.Add(profileOf(*c.folds)); err != nil {
				t.Fatal(err)
			}
			w := wf("w", "bad")
			w.Tasks[0].Iterations = c.iterations
			p, err := NewPlanner(oneNode(4, "a"), store)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := p.Plan([]Submission{sub(0, "a", 0, workflow.Single(w))}); err == nil || !strings.Contains(err.Error(), "utilization") {
				t.Fatalf("Plan: err = %v, want one naming the utilization", err)
			}
			s, err := core.NewScheduler(a100x(), 1, store, core.EnergyPolicy())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.ScheduleOnline([]core.Arrival{{At: simtime.Zero, Workflow: w}}, gpusim.Config{}); err == nil || !strings.Contains(err.Error(), "utilization") {
				t.Fatalf("ScheduleOnline: err = %v, want one naming the utilization", err)
			}
		})
	}
}

// TestPlanAllocs pins Plan's allocations per submission on a mixed-mode
// stream of 2,000 workflows with gangs and preemption, telemetry off:
// the jobs, members, residents and hold placements come from per-plan
// slabs, the dispatch and job logs are sized once, profiles come from
// one memo, and the tenant queues requeue in place. What is left is
// mostly buffers that grow to the cluster's peak occupancy (residents,
// completion events, resident lists and snapshots) and the touched-GPU
// lists of gangs that were held.
func TestPlanAllocs(t *testing.T) {
	device := a100x()
	subs, store, err := GenerateStream(device, StreamSpec{
		Fleet:          core.FleetSpec{Workflows: 2000, TargetGPUs: 24, Seed: 42},
		Tenants:        []string{"a", "b", "c"},
		PriorityLevels: 3,
		GangFraction:   0.1,
		GangSize:       4,
		Seed:           43,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{Queue: FairShare, Preemption: true}
	for n, mode := range []Mode{ModeMPS, ModeMIG, ModeTimeSlice, ModeMPS, ModeMIG, ModeTimeSlice} {
		spec.Nodes = append(spec.Nodes, NodeSpec{Name: fmt.Sprintf("n%d", n), Device: device, GPUs: 4, Mode: mode})
	}
	for i, name := range []string{"a", "b", "c"} {
		spec.Tenants = append(spec.Tenants, TenantSpec{Name: name, Weight: 1 + i})
	}
	prev := obs.SetActive(nil)
	defer obs.SetActive(prev)
	p, err := NewPlanner(spec, store)
	if err != nil {
		t.Fatal(err)
	}
	var out *Outcome
	allocs := testing.AllocsPerRun(3, func() {
		if out, err = p.Plan(subs); err != nil {
			t.Fatal(err)
		}
	})
	if out.Stats.Preemptions == 0 || out.Stats.GangHolds == 0 {
		t.Fatalf("stream exercised no preemption or hold: %+v", out.Stats)
	}
	perSub := allocs / float64(len(subs))
	t.Logf("%d submissions, %.0f allocations per plan, %.2f per submission, stats %+v", len(subs), allocs, perSub, out.Stats)
	if perSub > 1.5 {
		t.Fatalf("Plan allocates %.2f times per submission, want at most 1.5", perSub)
	}
}
