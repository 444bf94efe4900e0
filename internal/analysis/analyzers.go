package analysis

import "strings"

// simulatorPackages are the packages whose behavior feeds simulation
// results: any wall-clock or math/rand use here breaks run-to-run
// reproducibility.
var simulatorPackages = []string{
	"internal/admission",
	"internal/cluster",
	"internal/core",
	"internal/gpusim",
	"internal/eventq",
	"internal/experiments",
	"internal/interference",
	"internal/mps",
	"internal/obs",
	"internal/parallel",
}

// metricPackages carry float64 utilization/energy arithmetic where exact
// ==/!= comparison is a correctness hazard.
var metricPackages = []string{
	"internal/admission",
	"internal/cluster",
	"internal/core",
	"internal/interference",
	"internal/metrics",
}

// writerPackages produce the harness's user-visible output; dropped write
// errors there silently truncate tables and figures.
var writerPackages = []string{
	"internal/report",
	"internal/experiments",
	"cmd/",
}

// matchSuffixes builds a Match function selecting import paths that
// contain any of the given module-relative fragments. Matching on
// fragments rather than exact paths keeps the scopes valid when the
// module is vendored or forked under a different module path, and lets
// the analysistest corpora opt into a scope by choosing a fake import
// path.
func matchSuffixes(fragments ...string) func(string) bool {
	return func(importPath string) bool {
		for _, f := range fragments {
			if strings.Contains(importPath, f) {
				return true
			}
		}
		return false
	}
}

// All returns the project's analyzers in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		NoDeterminism,
		MapOrder,
		FloatEq,
		ErrCheckIO,
		ShadowBuiltin,
		HotPathAlloc,
		FloatFold,
	}
}
