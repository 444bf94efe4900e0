package interference

import (
	"math"
	"reflect"
	"testing"

	"gpushare/internal/gpu"
	"gpushare/internal/profile"
)

// FuzzPredictInterference feeds the predictor random profile pairs and
// checks the properties the scheduler relies on:
//
//   - Predict never panics, whatever the profile values (profiles come
//     from JSON stores and scaling inference, so garbage reaches it);
//   - the prediction is symmetric: interfere(a,b) == interfere(b,a) —
//     the matrix and the packing loop both assume order independence;
//   - severity stays in [0,1] and is 1 exactly when capacity is violated
//     (capacity interference means OOM, which is fatal, not a slowdown);
//   - the binary Interferes flag agrees with the violated-rule list;
//   - Aggregate.Admit over the same pair reports exactly those rules.
func FuzzPredictInterference(f *testing.F) {
	f.Add(50.0, 30.0, int64(20000), 60.0, 80.0, int64(30000))
	f.Add(0.0, 0.0, int64(0), 0.0, 0.0, int64(0))
	f.Add(100.0, 100.0, int64(40960), 0.1, 0.1, int64(1))
	f.Add(-5.0, 200.0, int64(-100), math.MaxFloat64, 1e-300, int64(1<<40))
	f.Fuzz(func(t *testing.T, sm1, bw1 float64, mem1 int64, sm2, bw2 float64, mem2 int64) {
		device := gpu.MustLookup("A100X")
		a := &profile.TaskProfile{Workload: "a", Size: "s",
			AvgSMUtilPct: sm1, AvgBWUtilPct: bw1, MaxMemMiB: mem1}
		b := &profile.TaskProfile{Workload: "b", Size: "s",
			AvgSMUtilPct: sm2, AvgBWUtilPct: bw2, MaxMemMiB: mem2}

		ab := Predict(device, []*profile.TaskProfile{a, b})
		ba := Predict(device, []*profile.TaskProfile{b, a})

		if ab.Interferes != ba.Interferes {
			t.Fatalf("asymmetric Interferes: ab=%v ba=%v", ab.Interferes, ba.Interferes)
		}
		if !reflect.DeepEqual(ab.Types, ba.Types) {
			t.Fatalf("asymmetric Types: ab=%v ba=%v", ab.Types, ba.Types)
		}
		if ab.Severity != ba.Severity {
			t.Fatalf("asymmetric Severity: ab=%v ba=%v", ab.Severity, ba.Severity)
		}

		if math.IsNaN(ab.Severity) || ab.Severity < 0 || ab.Severity > 1 {
			t.Fatalf("severity out of range: %v", ab.Severity)
		}
		if ab.Has(Capacity) && ab.Severity != 1 {
			t.Fatalf("capacity violation must force severity 1, got %v", ab.Severity)
		}
		if ab.Interferes != (len(ab.Types) > 0) {
			t.Fatalf("Interferes=%v disagrees with Types=%v", ab.Interferes, ab.Types)
		}

		// The incremental probe must agree with Predict on the same group.
		agg := NewAggregate(device)
		agg.Add(ProfileLoad(a))
		if got, want := agg.Admit(ProfileLoad(b)), typesMask(ab); got != want {
			t.Fatalf("Admit=%v disagrees with Predict's types %v", got, ab.Types)
		}
	})
}
