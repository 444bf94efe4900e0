package interference

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"gpushare/internal/gpu"
	"gpushare/internal/profile"
)

func a100x() gpu.DeviceSpec { return gpu.MustLookup("A100X") }

func prof(name string, sm, bw float64, mem int64) *profile.TaskProfile {
	return &profile.TaskProfile{
		Workload: name, Size: "1x",
		AvgSMUtilPct: sm, AvgBWUtilPct: bw, MaxMemMiB: mem,
	}
}

func TestNoInterference(t *testing.T) {
	e := Predict(a100x(), []*profile.TaskProfile{
		prof("a", 40, 10, 1000),
		prof("b", 50, 20, 2000),
	})
	if e.Interferes || len(e.Types) != 0 || e.Severity != 0 {
		t.Fatalf("unexpected interference: %+v", e)
	}
	if e.CombinedSMUtilPct != 90 || e.CombinedBWUtilPct != 30 || e.CombinedMaxMemMiB != 3000 {
		t.Fatalf("sums wrong: %+v", e)
	}
	if !strings.Contains(e.String(), "no interference") {
		t.Fatalf("String = %q", e.String())
	}
}

func TestComputeRuleExactThreshold(t *testing.T) {
	// Exactly 100% does not interfere; the rule is "over 100%".
	e := Predict(a100x(), []*profile.TaskProfile{prof("a", 60, 0, 1), prof("b", 40, 0, 1)})
	if e.Interferes {
		t.Fatal("exactly 100% flagged")
	}
	e = Predict(a100x(), []*profile.TaskProfile{prof("a", 60, 0, 1), prof("b", 40.1, 0, 1)})
	if !e.Interferes || !e.Has(Compute) {
		t.Fatalf("100.1%% not flagged: %+v", e)
	}
}

func TestBandwidthRule(t *testing.T) {
	e := Predict(a100x(), []*profile.TaskProfile{prof("a", 10, 60, 1), prof("b", 10, 50, 1)})
	if !e.Interferes || !e.Has(Bandwidth) || e.Has(Compute) {
		t.Fatalf("bandwidth rule: %+v", e)
	}
}

func TestCapacityRule(t *testing.T) {
	cap := a100x().MemoryMiB
	e := Predict(a100x(), []*profile.TaskProfile{
		prof("a", 10, 1, cap/2+1), prof("b", 10, 1, cap/2+1),
	})
	if !e.Interferes || !e.Has(Capacity) {
		t.Fatalf("capacity rule: %+v", e)
	}
	if e.Severity != 1 {
		t.Fatalf("capacity severity = %v, want fatal 1", e.Severity)
	}
}

func TestSeverityMonotone(t *testing.T) {
	base := 0.0
	for _, sm := range []float64{110, 130, 160, 200} {
		e := Predict(a100x(), []*profile.TaskProfile{prof("a", sm/2, 0, 1), prof("b", sm/2, 0, 1)})
		if e.Severity <= base {
			t.Fatalf("severity not increasing at SM %v: %v <= %v", sm, e.Severity, base)
		}
		base = e.Severity
	}
	if base >= 1 {
		t.Fatalf("slowdown severity must stay below 1, got %v", base)
	}
}

func TestSeverityTakesBindingResource(t *testing.T) {
	e := Predict(a100x(), []*profile.TaskProfile{prof("a", 80, 90, 1), prof("b", 30, 60, 1)})
	// SM excess 0.10 → 0.0909; BW excess 0.50 → 0.333. Binding = BW.
	want := 0.5 / 1.5
	if math.Abs(e.Severity-want) > 1e-9 {
		t.Fatalf("severity = %v, want %v", e.Severity, want)
	}
}

func TestPredictIgnoresNil(t *testing.T) {
	e := Predict(a100x(), []*profile.TaskProfile{prof("a", 50, 1, 1), nil})
	if e.CombinedSMUtilPct != 50 {
		t.Fatalf("nil profile contaminated sums: %+v", e)
	}
}

func TestMatrixDeterministicAndSymmetric(t *testing.T) {
	profiles := []*profile.TaskProfile{
		prof("z", 70, 5, 1000),
		prof("a", 20, 1, 500),
		prof("m", 50, 40, 2000),
	}
	m := BuildMatrix(a100x(), profiles)
	if len(m.Labels) != 3 || m.Labels[0] != "a/1x" || m.Labels[2] != "z/1x" {
		t.Fatalf("labels = %v", m.Labels)
	}
	for i := range m.Estimates {
		for j := range m.Estimates[i] {
			if m.Estimates[i][j].Interferes != m.Estimates[j][i].Interferes {
				t.Fatalf("matrix not symmetric at (%d,%d)", i, j)
			}
		}
	}
	// Diagonal = self-collocation: z+z = 140% SM → interferes.
	if !m.Estimates[2][2].Interferes {
		t.Fatal("z self-collocation should interfere")
	}
	if m.Estimates[0][0].Interferes {
		t.Fatal("a self-collocation should not interfere")
	}
}

func TestPredictEmptyGroup(t *testing.T) {
	e := Predict(a100x(), nil)
	if e.Interferes {
		t.Fatal("empty group interferes")
	}
}

func TestSeverityBoundsProperty(t *testing.T) {
	dev := a100x()
	f := func(sm1, sm2, bw1, bw2 uint8, mem1, mem2 uint16) bool {
		e := Predict(dev, []*profile.TaskProfile{
			prof("a", float64(sm1%100), float64(bw1%100), int64(mem1)),
			prof("b", float64(sm2%100), float64(bw2%100), int64(mem2)),
		})
		if e.Severity < 0 || e.Severity > 1 {
			return false
		}
		// Severity positive iff interfering.
		return e.Interferes == (e.Severity > 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
