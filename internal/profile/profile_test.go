package profile

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"gpushare/internal/gpusim"
	"gpushare/internal/workload"
)

func relErr(got, want float64) float64 {
	if want == 0 {
		return math.Abs(got)
	}
	return math.Abs(got-want) / math.Abs(want)
}

func profileOf(t *testing.T, bench, size string) *TaskProfile {
	t.Helper()
	w, err := workload.Get(bench)
	if err != nil {
		t.Fatal(err)
	}
	task, err := w.BuildTaskSpec(size, defaultDevice())
	if err != nil {
		t.Fatal(err)
	}
	pr := &Profiler{}
	p, err := pr.ProfileTask(task)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestProfilerReproducesTableII closes the loop: profiling the simulated
// workloads must re-measure the paper's Table II values the workloads were
// calibrated to.
func TestProfilerReproducesTableII(t *testing.T) {
	cases := []struct {
		bench, size    string
		smPct, bwPct   float64
		powerW, energy float64
		memMiB         int64
	}{
		{"LAMMPS", "4x", 96.28, 7.13, 258.38, 29390.48, 4977},
		{"Cholla-MHD", "1x", 72.58, 31.01, 234.24, 9849.99, 2175},
		{"AthenaPK", "1x", 7.54, 0.01, 90.09, 234.24, 563},
		{"WarpX", "4x", 77.28, 19.75, 244.32, 85756.49, 61453},
	}
	for _, c := range cases {
		p := profileOf(t, c.bench, c.size)
		if e := relErr(p.AvgSMUtilPct, c.smPct); e > 0.05 {
			t.Errorf("%s/%s SM %.2f vs paper %.2f", c.bench, c.size, p.AvgSMUtilPct, c.smPct)
		}
		if c.bwPct > 0.5 {
			if e := relErr(p.AvgBWUtilPct, c.bwPct); e > 0.05 {
				t.Errorf("%s/%s BW %.2f vs paper %.2f", c.bench, c.size, p.AvgBWUtilPct, c.bwPct)
			}
		}
		if e := relErr(p.AvgPowerW, c.powerW); e > 0.03 {
			t.Errorf("%s/%s power %.2f vs paper %.2f", c.bench, c.size, p.AvgPowerW, c.powerW)
		}
		if e := relErr(p.EnergyJ, c.energy); e > 0.05 {
			t.Errorf("%s/%s energy %.2f vs paper %.2f", c.bench, c.size, p.EnergyJ, c.energy)
		}
		if p.MaxMemMiB != c.memMiB {
			t.Errorf("%s/%s mem %d vs paper %d", c.bench, c.size, p.MaxMemMiB, c.memMiB)
		}
	}
}

func TestProfileIdleConsistentWithDuty(t *testing.T) {
	p := profileOf(t, "AthenaPK", "1x")
	w := workload.MustGet("AthenaPK")
	sp, _ := w.Profile("1x")
	measuredDuty := 1 - p.GPUIdlePct/100
	if e := relErr(measuredDuty, sp.Duty); e > 0.08 {
		t.Errorf("measured duty %.3f vs calibrated %.3f", measuredDuty, sp.Duty)
	}
}

func TestProfileOccupancyColumns(t *testing.T) {
	p := profileOf(t, "LAMMPS", "1x")
	if relErr(p.TheoreticalOccPct, 35.0) > 0.01 {
		t.Errorf("theo occ %.2f, want 35", p.TheoreticalOccPct)
	}
	if relErr(p.AchievedOccPct, 32.7) > 0.01 {
		t.Errorf("ach occ %.2f, want 32.7", p.AchievedOccPct)
	}
}

func TestProfileTaskNil(t *testing.T) {
	pr := &Profiler{}
	if _, err := pr.ProfileTask(nil); err == nil {
		t.Fatal("nil task accepted")
	}
}

func TestProfileWorkloadAndSuite(t *testing.T) {
	pr := &Profiler{}
	w := workload.MustGet("Kripke")
	ps, err := pr.ProfileWorkload(w, []string{"1x", "2x"})
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) != 2 || ps[0].Size != "1x" || ps[1].Size != "2x" {
		t.Fatalf("profiles: %+v", ps)
	}

	store, err := pr.ProfileSuite([]string{"1x"})
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != len(workload.Names()) {
		t.Fatalf("suite store has %d profiles, want %d", store.Len(), len(workload.Names()))
	}
}

// TestStoreRejectsUnfoldableProfiles pins the store's boundary: Add and
// Replace refuse what core.BuildWorkflowProfile would refuse to build a
// workflow from — a negative memory peak, or a utilization or duration
// that is negative, NaN or infinite — store nothing, and name the
// quantity; zeros and large finite values pass.
func TestStoreRejectsUnfoldableProfiles(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		name    string
		edit    func(*TaskProfile)
		wantErr string // "" accepts
	}{
		{"valid", func(*TaskProfile) {}, ""},
		{"zero-loads", func(p *TaskProfile) { p.AvgSMUtilPct, p.AvgBWUtilPct, p.MaxMemMiB, p.DurationS = 0, 0, 0, 0 }, ""},
		{"huge-finite", func(p *TaskProfile) { p.AvgSMUtilPct, p.DurationS = math.MaxFloat64, math.MaxFloat64 }, ""},
		{"neg-mem", func(p *TaskProfile) { p.MaxMemMiB = -1 }, "negative memory"},
		{"nan-sm", func(p *TaskProfile) { p.AvgSMUtilPct = nan }, "SM utilization"},
		{"inf-sm", func(p *TaskProfile) { p.AvgSMUtilPct = inf }, "SM utilization"},
		{"neg-sm", func(p *TaskProfile) { p.AvgSMUtilPct = -1 }, "SM utilization"},
		{"nan-bw", func(p *TaskProfile) { p.AvgBWUtilPct = nan }, "bandwidth utilization"},
		{"neg-inf-bw", func(p *TaskProfile) { p.AvgBWUtilPct = -inf }, "bandwidth utilization"},
		{"neg-bw", func(p *TaskProfile) { p.AvgBWUtilPct = -5 }, "bandwidth utilization"},
		{"nan-duration", func(p *TaskProfile) { p.DurationS = nan }, "duration"},
		{"inf-duration", func(p *TaskProfile) { p.DurationS = inf }, "duration"},
		{"neg-duration", func(p *TaskProfile) { p.DurationS = -1 }, "duration"},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := &TaskProfile{Workload: "X", Size: "1x", SizeFactor: 1, DurationS: 10,
				MaxMemMiB: 1024, AvgSMUtilPct: 30, AvgBWUtilPct: 20, AvgPowerW: 100}
			c.edit(p)
			for _, op := range []struct {
				name   string
				insert func(*Store, *TaskProfile) error
			}{{"Add", (*Store).Add}, {"Replace", (*Store).Replace}} {
				s := NewStore()
				err := op.insert(s, p)
				if c.wantErr == "" {
					if err != nil || s.Len() != 1 {
						t.Fatalf("%s: err = %v with %d stored, want the profile stored", op.name, err, s.Len())
					}
					continue
				}
				if err == nil || !strings.Contains(err.Error(), c.wantErr) || s.Len() != 0 {
					t.Fatalf("%s: err = %v with %d stored, want nothing stored and an error naming %q", op.name, err, s.Len(), c.wantErr)
				}
			}
		})
	}
}

func TestStoreAddGetReplace(t *testing.T) {
	s := NewStore()
	p := &TaskProfile{Workload: "X", Size: "1x", SizeFactor: 1, DurationS: 1, AvgPowerW: 100}
	if err := s.Add(p); err != nil {
		t.Fatal(err)
	}
	if err := s.Add(p); err == nil {
		t.Fatal("duplicate Add accepted")
	}
	got, ok := s.Get("X", "1x")
	if !ok || got != p {
		t.Fatal("Get missed")
	}
	p2 := &TaskProfile{Workload: "X", Size: "1x", SizeFactor: 1, DurationS: 2, AvgPowerW: 100}
	if err := s.Replace(p2); err != nil {
		t.Fatal(err)
	}
	got, _ = s.Get("X", "1x")
	if got != p2 {
		t.Fatal("Replace did not overwrite")
	}
	if err := s.Add(nil); err == nil {
		t.Fatal("Add(nil) accepted")
	}
}

func TestStoreKeysSortedAndForWorkload(t *testing.T) {
	s := NewStore()
	for _, k := range []struct {
		w, sz string
		f     float64
	}{{"B", "4x", 4}, {"A", "1x", 1}, {"B", "1x", 1}} {
		_ = s.Add(&TaskProfile{Workload: k.w, Size: k.sz, SizeFactor: k.f})
	}
	keys := s.Keys()
	want := []string{"A/1x", "B/1x", "B/4x"}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v", keys)
		}
	}
	bs := s.ForWorkload("B")
	if len(bs) != 2 || bs[0].SizeFactor != 1 || bs[1].SizeFactor != 4 {
		t.Fatalf("ForWorkload = %+v", bs)
	}
}

func TestStoreSaveLoadRoundTrip(t *testing.T) {
	pr := &Profiler{Config: gpusim.Config{Seed: 3}}
	w := workload.MustGet("Cholla-Gravity")
	ps, err := pr.ProfileWorkload(w, []string{"1x", "4x"})
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	for _, p := range ps {
		if err := s.Add(p); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != s.Len() {
		t.Fatalf("round trip lost profiles: %d vs %d", loaded.Len(), s.Len())
	}
	a, _ := s.Get("Cholla-Gravity", "4x")
	b, _ := loaded.Get("Cholla-Gravity", "4x")
	if a.EnergyJ != b.EnergyJ || a.MaxMemMiB != b.MaxMemMiB || a.AvgSMUtilPct != b.AvgSMUtilPct {
		t.Fatalf("round trip changed values: %+v vs %+v", a, b)
	}
}

func TestLoadStoreRejectsBadInput(t *testing.T) {
	if _, err := LoadStore(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadStore(strings.NewReader(`{"version": 99, "profiles": []}`)); err == nil {
		t.Fatal("wrong version accepted")
	}
}

// TestSamplingDivergesNearZero is the near-zero regression for the
// sampled-vs-integrated power cross-check: with integrated power ~0 W the
// old hand-rolled 50% band demanded agreement within a vanishing window
// and rejected any sampled value, including tiny absolute differences.
// The floats-based check is absolute (±0.5 W) near zero.
func TestSamplingDivergesNearZero(t *testing.T) {
	cases := []struct {
		name                  string
		sampledW, integratedW float64
		diverges              bool
	}{
		{"exact agreement", 200, 200, false},
		{"within 50 percent", 240, 200, false},
		{"beyond 50 percent", 450, 200, true},
		{"both zero", 0, 0, false},
		{"near-zero integrated, tiny sampled offset", 0.3, 0, false},
		{"near-zero integrated, real divergence", 120, 0.1, true},
		{"sub-watt jitter around a sub-watt signal", 0.6, 0.2, false},
	}
	for _, c := range cases {
		if got := samplingDiverges(c.sampledW, c.integratedW); got != c.diverges {
			t.Errorf("%s: samplingDiverges(%g, %g) = %v, want %v",
				c.name, c.sampledW, c.integratedW, got, c.diverges)
		}
	}
}
