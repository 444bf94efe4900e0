package gpusim

// Steady-state hot-path benchmarks and the zero-allocation regression
// test. These are white-box on purpose: they drive the engine through
// start/step directly so that per-run setup (client registration, buffer
// preallocation) is excluded and the measurement covers exactly the
// event-loop steady state — pop, advance, dispatch, recompute.

import (
	"fmt"
	"testing"

	"gpushare/internal/kernel"
	"gpushare/internal/obs"
	"gpushare/internal/simtime"
	"gpushare/internal/workload"
)

// steadySpec is a synthetic single-phase task: a 10 ms kernel burst
// followed by a 2 ms host gap, repeated cycles times. One cycle costs the
// engine exactly two events (burst finish, gap end), which makes ns/event
// accounting exact.
func steadySpec(cycles int) *workload.TaskSpec {
	d := kernel.Demand{
		SMFootprint: 0.6, Fill: 0.35, Compute: 0.30, Saturation: 0.35,
		Bandwidth: 0.20, TheoreticalOcc: 0.5, AchievedOcc: 0.25,
	}
	return &workload.TaskSpec{
		Workload: "steady", Size: "1x",
		MaxMemMiB: 1024,
		Phases: []workload.Phase{{
			Demand:     d,
			ActiveWork: 10 * simtime.Millisecond,
			GapAfter:   2 * simtime.Millisecond,
			DynPowerW:  30,
		}},
		Cycles: cycles,
	}
}

// steadyEngine builds and starts an n-client MPS engine over steadySpec
// and warms the hot path (event/burst freelists, queue heap) with a few
// hundred steps.
func steadyEngine(tb testing.TB, nClients, cycles int, seed uint64) *Engine {
	tb.Helper()
	ts := steadySpec(cycles)
	eng, err := New(Config{Seed: seed, Mode: ShareMPS})
	if err != nil {
		tb.Fatal(err)
	}
	for c := 0; c < nClients; c++ {
		if err := eng.AddClient(Client{
			ID:    fmt.Sprintf("c%02d", c),
			Tasks: []*workload.TaskSpec{ts},
		}); err != nil {
			tb.Fatal(err)
		}
	}
	if err := eng.start(); err != nil {
		tb.Fatal(err)
	}
	for i := 0; i < 256; i++ {
		if ok, err := eng.step(); err != nil || !ok {
			tb.Fatalf("warmup step %d: ok=%v err=%v", i, ok, err)
		}
	}
	return eng
}

// BenchmarkEngineSteadyState measures the per-event cost of the hot path
// under an 8-client MPS co-schedule with a long cycle count. Each
// iteration is one event, so ns/op is ns/event; allocs/op must be 0 in
// steady state (see BENCH_engine.json for the recorded numbers).
func BenchmarkEngineSteadyState(b *testing.B) {
	const nClients, cycles = 8, 4000
	seed := uint64(1)
	eng := steadyEngine(b, nClients, cycles, seed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := eng.step()
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			// Simulation drained: rebuild off the clock.
			b.StopTimer()
			seed++
			eng = steadyEngine(b, nClients, cycles, seed)
			b.StartTimer()
		}
	}
}

// TestSteadyStateZeroAllocs is the allocation regression net for the hot
// path: once the engine is warm, stepping the event loop must not allocate
// at all — events and bursts come from freelists, rate slices are engine
// scratch, and the trace buffer is preallocated from the cycle count.
func TestSteadyStateZeroAllocs(t *testing.T) {
	eng := steadyEngine(t, 8, 4000, 1)
	avg := testing.AllocsPerRun(4000, func() {
		ok, err := eng.step()
		if err != nil || !ok {
			t.Fatalf("step: ok=%v err=%v", ok, err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state step allocates %.2f times per event, want 0", avg)
	}
}

// TestStepDrainsLikeRun pins the step/Run split: driving the engine via
// step until drain must leave every client done, with the same makespan a
// Run-driven twin produces.
func TestStepDrainsLikeRun(t *testing.T) {
	stepped := steadyEngine(t, 4, 50, 7)
	for {
		ok, err := stepped.step()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
	}
	for _, cs := range stepped.clients {
		if cs.phase != phaseDone {
			t.Fatalf("client %s not done after drain", cs.spec.ID)
		}
	}

	ran, err := New(Config{Seed: 7, Mode: ShareMPS})
	if err != nil {
		t.Fatal(err)
	}
	ts := steadySpec(50)
	for c := 0; c < 4; c++ {
		if err := ran.AddClient(Client{
			ID: fmt.Sprintf("c%02d", c), Tasks: []*workload.TaskSpec{ts},
		}); err != nil {
			t.Fatal(err)
		}
	}
	res, err := ran.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := simtime.Duration(stepped.now); got != res.Makespan {
		t.Fatalf("step-driven makespan %v != Run makespan %v", got, res.Makespan)
	}
	if stepped.events != ran.events {
		t.Fatalf("step-driven events %d != Run events %d", stepped.events, ran.events)
	}
}

// TestSteadyStateZeroAllocsTelemetryDisabled pins the telemetry
// instrumentation's disabled-path cost at exactly zero allocations: with
// no active hub (the default), the added counters are plain integer
// fields and the span branches never taken, so the steady-state step
// remains allocation-free. Kept separate from TestSteadyStateZeroAllocs
// so a future change that installs a process-default hub cannot silently
// weaken the pin.
func TestSteadyStateZeroAllocsTelemetryDisabled(t *testing.T) {
	prev := obs.SetActive(nil)
	defer obs.SetActive(prev)
	eng := steadyEngine(t, 8, 4000, 1)
	avg := testing.AllocsPerRun(4000, func() {
		ok, err := eng.step()
		if err != nil || !ok {
			t.Fatalf("step: ok=%v err=%v", ok, err)
		}
	})
	if avg != 0 {
		t.Fatalf("telemetry-disabled steady-state step allocates %.2f times per event, want 0", avg)
	}
}

// BenchmarkEngineSteadyStateObs is BenchmarkEngineSteadyState with a live
// telemetry hub: hot-path counters still only bump engine-local integers
// (folded into the registry once per Run), but every finished burst now
// records a sim-time span, so the delta against the base benchmark is the
// full enabled-telemetry overhead (recorded in BENCH_engine.json).
func BenchmarkEngineSteadyStateObs(b *testing.B) {
	prev := obs.SetActive(obs.NewHub(nil))
	defer obs.SetActive(prev)
	const nClients, cycles = 8, 4000
	seed := uint64(1)
	eng := steadyEngine(b, nClients, cycles, seed)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ok, err := eng.step()
		if err != nil {
			b.Fatal(err)
		}
		if !ok {
			b.StopTimer()
			seed++
			eng = steadyEngine(b, nClients, cycles, seed)
			b.StartTimer()
		}
	}
}
