package cluster

import (
	"bytes"
	"encoding/json"
	"testing"

	"gpushare/internal/interference"
	"gpushare/internal/obs"
	"gpushare/internal/workflow"
)

// flightScenario is a stream engineered to exercise every record kind:
// a preemption (scan, what-if, evict), a post-eviction hold, and a
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
// arrival, fit scan (with its per-rule rejection counts), preemption
// what-if, eviction, hold (skipped retries included), reject, and
// dispatch lands in the flight recorder, and the trail is
// byte-identical across identical runs.
func TestClusterFlightProvenance(t *testing.T) {
	store := testStore(t)
	spec, subs := flightScenario()
	prev := obs.Active()
	defer obs.SetActive(prev)

	var st *planner
	run := func() obs.FlightSnapshot {
		hub := obs.NewHub(nil)
		obs.SetActive(hub)
		st = runPlanner(t, spec, store, subs)
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
		obs.FlightArrival, obs.FlightScan, obs.FlightDispatch,
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

	// Every findFit leaves exactly one scan record, and nothing is
	// recorded per probe: the one-GPU node means one visit per scan.
	// Urgent's first scan meets the victim holding the node's one
	// client slot, so the scan fails with one client-cap rejection
	// before the what-if justifies the preemption.
	var urgentMiss bool
	for _, r := range snap.Records {
		if r.Kind == 1 {
			t.Fatalf("retired per-probe record in the trail: %+v", r)
		}
		if r.Kind != obs.FlightScan {
			continue
		}
		if r.Clients != 1 {
			t.Fatalf("scan record visited %d GPUs on a one-GPU cluster: %+v", r.Clients, r)
		}
		if r.Rules == 0 && (r.GPU != 0 || r.Node != "n0") {
			t.Fatalf("clean scan does not name its winner: %+v", r)
		}
		if r.Workflow == "urgent" && r.GPU == -1 {
			if r.Rules != uint8(interference.MaskClientCap) || r.CapSkips != 1 ||
				r.SMExcessMilli != 0 || r.BWExcessMilli != 0 || r.MemExcessMiB != 0 || r.Node != "" {
				t.Fatalf("urgent's failed scan = %+v, want one client-cap rejection", r)
			}
			urgentMiss = true
		}
	}
	if !urgentMiss {
		t.Fatal("no failed scan with per-rule counts for the preemptor")
	}
	// On one GPU every scan and every what-if is one probe; the other
	// probes are the re-checks of held gangs, which leave no per-GPU
	// record. A skipped retry's hold record says "unchanged" and counts
	// the changed GPUs it re-checked: here none or the one GPU.
	if snap.Total != int64(len(snap.Records)) {
		t.Fatalf("trail overflowed the ring: %d of %d records kept", len(snap.Records), snap.Total)
	}
	out := st.out
	if got := int64(counts[obs.FlightScan]+counts[obs.FlightWhatIf]) + st.rechecks; got != out.Stats.Probes {
		t.Fatalf("%d scan and what-if records and %d re-check probes for %d probes, want one each",
			counts[obs.FlightScan]+counts[obs.FlightWhatIf], st.rechecks, out.Stats.Probes)
	}
	var skipped int64
	for _, r := range snap.Records {
		if r.Kind != obs.FlightHold {
			continue
		}
		switch {
		case r.Detail == "unchanged" && r.Clients <= 1:
			skipped++
		case r.Detail != "" || r.Clients != 0:
			t.Fatalf("hold record = %+v, want a plain hold or Detail unchanged with at most one GPU re-checked", r)
		}
	}
	if skipped == 0 || skipped != out.Stats.HoldSkips || st.rechecks == 0 {
		t.Fatalf("%d unchanged hold records, %d skipped holds, %d re-check probes: want the first two equal and all non-zero",
			skipped, out.Stats.HoldSkips, st.rechecks)
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
