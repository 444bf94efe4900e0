package workload

import (
	"fmt"
	"math"
	"sort"
	"sync"

	"gpushare/internal/gpu"
	"gpushare/internal/kernel"
)

// calibrationDevice is the device the suite's launch configurations and
// grid sizes are calibrated against — the paper's NVIDIA A100X. Demands
// are re-evaluated against whatever device a TaskSpec is built for, but
// grid-size calibration (warp-slot fill targets from Table I) is expressed
// in A100X terms, like the paper's measurements.
var calibrationDevice = gpu.MustLookup("A100X")

// classTmpl is the per-benchmark kernel-class template; grids and demand
// scales are resolved per problem size.
type classTmpl struct {
	name    string
	weight  float64
	threads int
	regs    int
	smem    int
	// fill1x is the warp-slot fill (waves) at 1x; it scales linearly
	// with the problem-size factor (more cells/particles → more blocks).
	fill1x float64
	// balance is the load-balance factor for achieved occupancy.
	balance float64
	// iota1x is the per-covered-SM compute intensity at 1x, before
	// per-size normalization against Table II.
	iota1x float64
	// bw1x is the memory-bandwidth share at 1x, before normalization.
	bw1x float64
}

// sizeCal is one table-backed calibration row (Table II plus the duty
// cycle chosen for the benchmark's host-side behaviour).
type sizeCal struct {
	maxMemMiB int64
	bwPct     float64
	smPct     float64
	powerW    float64
	energyJ   float64
	duty      float64
}

// benchDef is the full calibrated definition of one benchmark.
type benchDef struct {
	name        string
	aliases     []string
	desc        string
	theoOccPct  float64
	achOccPct   float64
	scalingNote string
	// durExp and memExp are fallback scaling exponents used when only a
	// single calibrated size exists (BerkeleyGW-Epsilon).
	durExp  float64
	memExp  float64
	classes []classTmpl
	cal     map[float64]sizeCal
}

// duration returns the solo duration in seconds for a calibration row.
func (c sizeCal) duration() float64 { return c.energyJ / c.powerW }

// suite is the calibrated benchmark suite. Numbers quoted from the paper:
// theo/ach occupancy from Table I; mem/bw/sm/power/energy from Table II.
// Duty cycles, intensities, fills and balances are this reproduction's
// calibration (documented in DESIGN.md §4): duty × intensity must equal
// Table II's SM utilization and fill × balance must map theoretical to
// achieved occupancy per Table I.
var suite = []*benchDef{
	{
		name:    "AthenaPK",
		aliases: []string{"Athena"},
		desc: "Astrophysical AMR (magneto)hydrodynamics on Parthenon+Kokkos; " +
			"test problem: 3D hydro linear-wave convergence.",
		theoOccPct:  51.32,
		achOccPct:   13.3,
		scalingNote: "runtime ≈ factor^2.28 (from Table II 1x→4x); memory ≈ factor^0.95",
		classes: []classTmpl{
			{name: "hydro_flux", weight: 0.55, threads: 64, regs: 61, fill1x: 0.32, balance: 0.81, iota1x: 0.28, bw1x: 0.0004},
			{name: "riemann_solve", weight: 0.25, threads: 64, regs: 61, fill1x: 0.32, balance: 0.81, iota1x: 0.45, bw1x: 0.0004},
			{name: "amr_prolong", weight: 0.20, threads: 64, regs: 56, fill1x: 0.32, balance: 0.81, iota1x: 0.18, bw1x: 0.0004},
		},
		cal: map[float64]sizeCal{
			1: {maxMemMiB: 563, bwPct: 0.01, smPct: 7.54, powerW: 90.09, energyJ: 234.24, duty: 0.25},
			4: {maxMemMiB: 2093, bwPct: 1.78, smPct: 30.29, powerW: 88.86, energyJ: 5407.36, duty: 0.62},
		},
	},
	{
		name:    "BerkeleyGW-Epsilon",
		aliases: []string{"Epsilon", "BerkeleyGW"},
		desc: "Dielectric-function (epsilon) module of BerkeleyGW; complexity " +
			"grows O(N^4) with atom count.",
		theoOccPct:  41.67,
		achOccPct:   23.97,
		scalingNote: "runtime ∝ factor^4 (paper: O(N^4)); memory ∝ factor^2",
		durExp:      4,
		memExp:      2,
		classes: []classTmpl{
			{name: "mtxel", weight: 1.0 / 3, threads: 512, regs: 128, fill1x: 0.68, balance: 0.85, iota1x: 0.25, bw1x: 0.05},
			{name: "chi_summation", weight: 1.0 / 2, threads: 128, regs: 64, fill1x: 0.68, balance: 0.85, iota1x: 0.35, bw1x: 0.10},
			{name: "epsilon_inversion", weight: 1.0 / 6, threads: 128, regs: 64, fill1x: 0.68, balance: 0.85, iota1x: 0.26, bw1x: 0.12},
		},
		cal: map[float64]sizeCal{
			1: {maxMemMiB: 30157, bwPct: 2.63, smPct: 9.04, powerW: 94.41, energyJ: 319448.05, duty: 0.30},
		},
	},
	{
		name:    "Cholla-Gravity",
		aliases: []string{"Gravity"},
		desc: "GPU-native 3D hydrodynamics with self-gravity; test problem: " +
			"gravitational collapse of a spherical overdensity.",
		theoOccPct:  37.5,
		achOccPct:   31.45,
		scalingNote: "runtime ≈ factor^3.02; memory ≈ factor^1.52 (from Table II 1x→4x)",
		classes: []classTmpl{
			{name: "hydro_sweep", weight: 0.6, threads: 64, regs: 80, fill1x: 0.93, balance: 0.90, iota1x: 0.30, bw1x: 0.013},
			{name: "poisson_fft", weight: 0.4, threads: 64, regs: 80, fill1x: 0.93, balance: 0.90, iota1x: 0.40, bw1x: 0.013},
		},
		cal: map[float64]sizeCal{
			1: {maxMemMiB: 615, bwPct: 0.51, smPct: 13.6, powerW: 88.43, energyJ: 309.51, duty: 0.40},
			4: {maxMemMiB: 5063, bwPct: 4.45, smPct: 45.16, powerW: 138.75, energyJ: 20285.8, duty: 0.75},
		},
	},
	{
		name:    "Kripke",
		aliases: nil,
		desc: "LLNL deterministic Sn particle-transport mini-app (ARDRA proxy); " +
			"Discrete Ordinates + Diamond Difference Boltzmann solve.",
		theoOccPct:  43.63,
		achOccPct:   32.61,
		scalingNote: "runtime ≈ factor^2.38; memory ≈ factor^1.57 (from Table II 1x→4x)",
		classes: []classTmpl{
			{name: "ltimes", weight: 0.4, threads: 64, regs: 72, fill1x: 1.00, balance: 0.88, iota1x: 0.45, bw1x: 0.005},
			{name: "scattering", weight: 0.3, threads: 64, regs: 72, fill1x: 0.95, balance: 0.88, iota1x: 0.50, bw1x: 0.005},
			{name: "sweep", weight: 0.3, threads: 64, regs: 72, fill1x: 0.55, balance: 0.88, iota1x: 0.50, bw1x: 0.005},
		},
		cal: map[float64]sizeCal{
			1: {maxMemMiB: 621, bwPct: 0.27, smPct: 26.56, powerW: 123.3, energyJ: 382.24, duty: 0.55},
			4: {maxMemMiB: 5481, bwPct: 3.78, smPct: 63.21, powerW: 148.16, energyJ: 12467.54, duty: 0.85},
		},
	},
	{
		name:    "Cholla-MHD",
		aliases: []string{"MHD"},
		desc: "Magnetohydrodynamic extension of Cholla; test problem: 3D " +
			"advecting field loop (constrained transport).",
		theoOccPct:  19.32,
		achOccPct:   17.72,
		scalingNote: "runtime ≈ factor^1.84; memory ≈ factor^0.82 (from Table II 1x→4x)",
		classes: []classTmpl{
			{name: "ct_update", weight: 0.4544, threads: 128, regs: 32, smem: 56 * 1024, fill1x: 0.96, balance: 0.955, iota1x: 0.76, bw1x: 0.30},
			{name: "mhd_flux", weight: 0.5456, threads: 128, regs: 32, smem: 40 * 1024, fill1x: 0.96, balance: 0.955, iota1x: 0.845, bw1x: 0.38},
		},
		cal: map[float64]sizeCal{
			1: {maxMemMiB: 2175, bwPct: 31.01, smPct: 72.58, powerW: 234.24, energyJ: 9849.99, duty: 0.90},
			4: {maxMemMiB: 6753, bwPct: 41.29, smPct: 88.58, powerW: 261.64, energyJ: 127249.21, duty: 0.95},
		},
	},
	{
		name:    "LAMMPS",
		aliases: nil,
		desc: "Molecular-dynamics simulation (Kokkos backend), the " +
			"performance-critical component of ParSplice workflows.",
		theoOccPct:  35.0,
		achOccPct:   32.7,
		scalingNote: "runtime ≈ factor^2.83; memory ≈ factor^0.55 (from Table II 1x→4x)",
		classes: []classTmpl{
			{name: "pair_force", weight: 0.8, threads: 64, regs: 80, fill1x: 0.97, balance: 0.963, iota1x: 0.82, bw1x: 0.050},
			{name: "neighbor_build", weight: 0.2, threads: 256, regs: 128, fill1x: 0.97, balance: 0.963, iota1x: 0.66, bw1x: 0.065},
		},
		cal: map[float64]sizeCal{
			1: {maxMemMiB: 2321, bwPct: 4.24, smPct: 63.0, powerW: 196.79, energyJ: 580.54, duty: 0.80},
			4: {maxMemMiB: 4977, bwPct: 7.13, smPct: 96.28, powerW: 258.38, energyJ: 29390.48, duty: 0.98},
		},
	},
	{
		name:    "WarpX",
		aliases: nil,
		desc: "Electromagnetic particle-in-cell code; test problem: beam-driven " +
			"plasma-wakefield accelerator (PWFA).",
		theoOccPct: 92.55,
		achOccPct:  24.81,
		scalingNote: "runtime ≈ factor^2.00 (from Table II 1x→4x); memory constant " +
			"(pre-allocated 61453 MiB at both reported sizes)",
		classes: []classTmpl{
			{name: "particle_push", weight: 0.5, threads: 256, regs: 32, fill1x: 0.33, balance: 0.81, iota1x: 0.60, bw1x: 0.0007},
			{name: "current_deposit", weight: 0.2, threads: 256, regs: 32, fill1x: 0.33, balance: 0.81, iota1x: 0.55, bw1x: 0.0007},
			{name: "field_solve", weight: 0.3, threads: 256, regs: 40, fill1x: 0.33, balance: 0.81, iota1x: 0.48, bw1x: 0.0007},
		},
		cal: map[float64]sizeCal{
			1: {maxMemMiB: 61453, bwPct: 0.04, smPct: 33.29, powerW: 117.14, energyJ: 2588.8, duty: 0.60},
			4: {maxMemMiB: 61453, bwPct: 19.75, smPct: 77.28, powerW: 244.32, energyJ: 85756.49, duty: 0.92},
		},
	},
}

var (
	byName = map[string]*benchDef{}
	// workloads caches constructed Workload values per canonical name;
	// workloadsMu guards it, since experiments call Get from parallel
	// workers.
	workloads   = map[string]*Workload{}
	workloadsMu sync.Mutex
)

func init() {
	for _, d := range suite {
		byName[d.name] = d
		for _, a := range d.aliases {
			byName[a] = d
		}
	}
}

// Names returns the canonical benchmark names in the paper's order.
func Names() []string {
	out := make([]string, len(suite))
	for i, d := range suite {
		out[i] = d.name
	}
	return out
}

// Canonical resolves a benchmark name or alias to its canonical suite
// name. It is the allocation-free existence probe for hot paths that
// only need the name mapping: Get builds (and caches) the whole
// Workload and, on a miss, allocates a descriptive error listing every
// known benchmark — at fleet scale the scheduler resolves store-only
// archetype names once per arrival, where that miss cost dominated the
// decision path's allocation profile (BENCH_dispatcher.json).
func Canonical(name string) (string, bool) {
	d, ok := byName[name]
	if !ok {
		return "", false
	}
	return d.name, true
}

// Get returns the workload for a benchmark name or alias (the paper's
// Table III uses short names like "Epsilon", "MHD", "Gravity", "Athena").
func Get(name string) (*Workload, error) {
	d, ok := byName[name]
	if !ok {
		known := make([]string, 0, len(byName))
		for k := range byName {
			known = append(known, k)
		}
		sort.Strings(known)
		return nil, fmt.Errorf("workload: unknown benchmark %q (known: %v)", name, known)
	}
	workloadsMu.Lock()
	defer workloadsMu.Unlock()
	if w, ok := workloads[d.name]; ok {
		return w, nil
	}
	w := &Workload{
		Name:              d.name,
		Description:       d.desc,
		TheoreticalOccPct: d.theoOccPct,
		AchievedOccPct:    d.achOccPct,
		ScalingNote:       d.scalingNote,
		def:               d,
		sizes:             make(map[string]*SizeProfile),
	}
	for f, cal := range d.cal {
		label := sizeLabel(f)
		p, err := d.buildProfile(label, f, cal, false)
		if err != nil {
			return nil, fmt.Errorf("workload %s/%s: %w", d.name, label, err)
		}
		w.sizes[label] = p
	}
	workloads[d.name] = w
	return w, nil
}

// MustGet is Get for statically known names; it panics on a miss.
func MustGet(name string) *Workload {
	w, err := Get(name)
	if err != nil {
		panic(err)
	}
	return w
}

func sizeLabel(f float64) string {
	if f == math.Trunc(f) {
		return fmt.Sprintf("%dx", int(f))
	}
	return fmt.Sprintf("%gx", f)
}

// buildProfile resolves a calibration row into a SizeProfile with
// normalized kernel classes.
func (d *benchDef) buildProfile(label string, factor float64, cal sizeCal, derived bool) (*SizeProfile, error) {
	classes, err := d.resolveClasses(factor, cal)
	if err != nil {
		return nil, err
	}
	return &SizeProfile{
		Size:      label,
		Factor:    factor,
		MaxMemMiB: cal.maxMemMiB,
		AvgBWPct:  cal.bwPct,
		AvgSMPct:  cal.smPct,
		AvgPowerW: cal.powerW,
		EnergyJ:   cal.energyJ,
		Duty:      cal.duty,
		Classes:   classes,
		Derived:   derived,
	}, nil
}

// resolveClasses instantiates the class templates for a problem-size
// factor: grids scale with the factor (fill1x × factor waves) and
// intensity/bandwidth are normalized so the duty-weighted aggregates hit
// the calibration row's Table II targets.
func (d *benchDef) resolveClasses(factor float64, cal sizeCal) ([]kernel.Class, error) {
	spec := calibrationDevice
	classes := make([]kernel.Class, 0, len(d.classes))
	for _, t := range d.classes {
		cfg := kernel.LaunchConfig{
			ThreadsPerBlock:    t.threads,
			RegistersPerThread: t.regs,
			SharedMemPerBlock:  t.smem,
			GridBlocks:         1, // placeholder; sized below
		}
		occ, err := kernel.ComputeOccupancy(spec, cfg)
		if err != nil {
			return nil, fmt.Errorf("class %s: %w", t.name, err)
		}
		cfg.GridBlocks = occ.GridForFill(spec, t.fill1x*factor)
		classes = append(classes, kernel.Class{
			Name:      t.name,
			Weight:    t.weight,
			Launch:    cfg,
			Balance:   t.balance,
			Intensity: t.iota1x,
			BWShare:   t.bw1x,
		})
	}

	if cal.duty <= 0 || cal.duty > 1 {
		return nil, fmt.Errorf("duty %g out of (0,1]", cal.duty)
	}
	targetCompute := cal.smPct / 100 / cal.duty
	targetBW := cal.bwPct / 100 / cal.duty
	if err := normalizeIntensity(spec, classes, targetCompute); err != nil {
		return nil, err
	}
	if err := normalizeBandwidth(classes, targetBW); err != nil {
		return nil, err
	}
	return classes, nil
}

// maxIntensity caps per-class intensity during normalization: a real
// kernel never sustains 100% of issue slots.
const maxIntensity = 0.995

// normalizeIntensity rescales class intensities (respecting the per-class
// cap) so the weighted device-level compute demand matches target.
func normalizeIntensity(spec gpu.DeviceSpec, classes []kernel.Class, target float64) error {
	if target <= 0 {
		return fmt.Errorf("workload: compute target must be positive, got %g", target)
	}
	for iter := 0; iter < 12; iter++ {
		agg, err := kernel.AggregateDemand(spec, classes)
		if err != nil {
			return err
		}
		if agg.Compute <= 0 {
			return fmt.Errorf("workload: zero aggregate compute during normalization")
		}
		ratio := target / agg.Compute
		if math.Abs(ratio-1) < 1e-9 {
			return nil
		}
		moved := false
		for i := range classes {
			ni := classes[i].Intensity * ratio
			if ni > maxIntensity {
				ni = maxIntensity
			}
			if ni < 1e-4 {
				ni = 1e-4
			}
			if ni != classes[i].Intensity {
				classes[i].Intensity = ni
				moved = true
			}
		}
		if !moved {
			break // all classes pinned at a bound; accept closest fit
		}
	}
	return nil
}

// normalizeBandwidth rescales class bandwidth shares to match target.
func normalizeBandwidth(classes []kernel.Class, target float64) error {
	if target < 0 {
		return fmt.Errorf("workload: bandwidth target must be non-negative, got %g", target)
	}
	for iter := 0; iter < 12; iter++ {
		var cur, wsum float64
		for _, c := range classes {
			cur += c.Weight * c.BWShare
			wsum += c.Weight
		}
		cur /= wsum
		if cur <= 0 {
			if target == 0 {
				return nil
			}
			for i := range classes {
				classes[i].BWShare = target
			}
			continue
		}
		ratio := target / cur
		if math.Abs(ratio-1) < 1e-9 {
			return nil
		}
		moved := false
		for i := range classes {
			nb := classes[i].BWShare * ratio
			if nb > 0.98 {
				nb = 0.98
			}
			if nb != classes[i].BWShare {
				classes[i].BWShare = nb
				moved = true
			}
		}
		if !moved {
			break
		}
	}
	return nil
}
