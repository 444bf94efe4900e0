package cluster

import (
	"bytes"
	"encoding/json"
	"testing"

	"gpushare/internal/obs"
	"gpushare/internal/workflow"
)

// flightScenario is a stream engineered to exercise every record kind:
// a preemption (probe, what-if, evict), a post-eviction hold, and a
// two-member gang that can never fit the one-slot node (reject).
func flightScenario() (Spec, []Submission) {
	spec := oneNode(1, "batch", "prod")
	spec.Preemption = true
	subs := []Submission{
		sub(0, "batch", 0, workflow.Single(wf("victim", "big"))),
		sub(10, "prod", 1, workflow.Single(wf("urgent", "small"))),
		sub(20, "prod", 0, gang("toobig", wf("t-0", "small"), wf("t-1", "small"))),
	}
	return spec, subs
}

// TestClusterFlightProvenance pins the planner's decision trail: every
// arrival, probe (with its per-rule verdict), preemption what-if (with
// the restored-state digest), eviction, hold, reject, and dispatch
// lands in the flight recorder, and the trail is byte-identical across
// identical runs.
func TestClusterFlightProvenance(t *testing.T) {
	store := testStore(t)
	spec, subs := flightScenario()
	prev := obs.Active()
	defer obs.SetActive(prev)

	run := func() obs.FlightSnapshot {
		hub := obs.NewHub(nil)
		obs.SetActive(hub)
		mustPlan(t, spec, store, subs)
		return hub.Flight.Snapshot()
	}
	snap := run()
	if snap.Total == 0 {
		t.Fatal("plan recorded no flight records")
	}

	counts := map[obs.FlightKind]int{}
	for _, r := range snap.Records {
		counts[r.Kind]++
	}
	for _, k := range []obs.FlightKind{
		obs.FlightArrival, obs.FlightProbe, obs.FlightDispatch,
		obs.FlightWhatIf, obs.FlightEvict, obs.FlightHold, obs.FlightReject,
	} {
		if counts[k] == 0 {
			t.Errorf("no %s records in the trail", k)
		}
	}

	// The eviction pairing survives in the trail: the victim's evict
	// record names the preemptor, and the what-if just before it, the
	// one that justified it, reads fit=true. That what-ifs are read-only
	// is pinned by TestWhatIfLeavesAggregateUntouched.
	var sawEvict bool
	var lastWhatIf *obs.FlightRecord
	for i, r := range snap.Records {
		switch r.Kind {
		case obs.FlightEvict:
			if r.Tenant != "batch" || r.Workflow != "victim" || r.Detail != "preempted by urgent" {
				t.Fatalf("evict record = %+v", r)
			}
			if !sawEvict && (lastWhatIf == nil || lastWhatIf.Detail != "fit=true") {
				t.Fatalf("what-if before the first eviction = %+v, want Detail fit=true", lastWhatIf)
			}
			sawEvict = true
		case obs.FlightWhatIf:
			if r.Detail != "fit=true" && r.Detail != "fit=false" {
				t.Fatalf("what-if Detail = %q, want fit=true or fit=false", r.Detail)
			}
			lastWhatIf = &snap.Records[i]
		}
	}
	if !sawEvict {
		t.Fatal("trail missing eviction provenance")
	}

	// The client-cap rule shows up typed: urgent's arrival probes a full
	// GPU before preempting.
	var sawCap bool
	for _, r := range snap.Records {
		if r.Kind == obs.FlightProbe && r.Rules != 0 && r.Workflow == "urgent" {
			sawCap = true
		}
	}
	if !sawCap {
		t.Fatal("no typed rejection probe for the preemptor")
	}

	// Determinism: an identical run yields a byte-identical trail.
	b1, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := json.Marshal(run())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("flight trail diverged across identical runs")
	}
}

// TestClusterFlightDisabled pins the nil-hub path: with telemetry off
// the planner runs identically and records nothing.
func TestClusterFlightDisabled(t *testing.T) {
	store := testStore(t)
	spec, subs := flightScenario()
	prev := obs.SetActive(nil)
	defer obs.SetActive(prev)

	out := mustPlan(t, spec, store, subs)
	if len(out.Evictions) != 1 || len(out.Failed) != 1 {
		t.Fatalf("disabled-telemetry plan changed decisions: %d evictions, %d failed",
			len(out.Evictions), len(out.Failed))
	}
}
