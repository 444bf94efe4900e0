#!/usr/bin/env bash
# Regenerates BENCH_dispatcher.json: runs the dispatcher benchmarks
# (decision path only) on a base revision and on this working tree, one
# after the other on the same host, and records both side by side. The
# base is exported with `git archive` into a temporary directory, and
# this tree's internal/core/online_bench_test.go is copied over it, so
# both sides run the same configurations, the energy-policy fleet sweep
# from 256 to 16,384 GPUs included.
#
# Usage: scripts/bench_dispatcher.sh [out.json]
# BASE=<rev> scripts/bench_dispatcher.sh      # base revision (default HEAD)
# BENCHTIME=5x scripts/bench_dispatcher.sh    # more samples
#
# With the default BASE, run it on an uncommitted change to compare the
# change against the commit it sits on.
set -euo pipefail
cd "$(dirname "$0")/.."
out=${1:-BENCH_dispatcher.json}
base=${BASE:-HEAD}
benchtime=${BENCHTIME:-3x}
base_sha=$(git rev-parse --short "$base")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git archive "$base" | tar -x -C "$tmp"
cp internal/core/online_bench_test.go "$tmp/internal/core/"

run() { # run DIR -> benchmark output
	(cd "$1" && go test -run '^$' -bench 'BenchmarkScheduleOnline|BenchmarkBuildPlan' \
		-benchtime="$benchtime" -count=1 -timeout 60m ./internal/core)
}

echo "running dispatcher benchmarks at $base_sha (-benchtime=$benchtime)..." >&2
base_out=$(run "$tmp")
echo "$base_out" >&2
echo "running dispatcher benchmarks on the working tree (-benchtime=$benchtime)..." >&2
head_out=$(run .)
echo "$head_out" >&2

# metric OUTPUT BENCH_REGEX UNIT -> the value reported for that unit.
metric() {
	echo "$1" | awk -v pat="$2" -v unit="$3" '
		$1 ~ "^"pat"-[0-9]+$" { for (i = 2; i < NF; i++) if ($(i+1) == unit) { print $i; exit } }'
}

# side OUTPUT BENCH_REGEX PER_UNIT -> one JSON object of that side's numbers.
side() {
	local ns b a p
	ns=$(metric "$1" "$2" "$3")
	b=$(metric "$1" "$2" "B/op")
	a=$(metric "$1" "$2" "allocs/op")
	p=$(metric "$1" "$2" "probes/arrival")
	if [ -z "$ns" ] || [ -z "$b" ] || [ -z "$a" ]; then
		echo "bench_dispatcher: incomplete sample for $2" >&2
		exit 1
	fi
	awk -v ns="$ns" -v b="$b" -v a="$a" -v p="$p" -v per="${3#ns/}" 'BEGIN {
		printf "{ \"ns_per_%s\": %d, \"bytes_per_op\": %d, \"allocs_per_op\": %d", per, ns+0.5, b, a
		if (p != "") printf ", \"probes_per_arrival\": %.2f", p
		printf " }"
	}'
}

# emit KEY BENCH_REGEX PER_UNIT LAST -> one configuration's entry.
emit() {
	local bs hs bns hns
	bs=$(side "$base_out" "$2" "$3")
	hs=$(side "$head_out" "$2" "$3")
	bns=$(metric "$base_out" "$2" "$3")
	hns=$(metric "$head_out" "$2" "$3")
	printf '    "%s": {\n      "base": %s,\n      "head": %s,\n' "$1" "$bs" "$hs"
	awk -v b="$bns" -v h="$hns" -v last="$4" 'BEGIN {
		printf "      \"speedup\": %.2f\n    }%s\n", b/h, last ? "" : ","
	}'
}

host="$(awk -F': ' '/model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)"
host="${host:-unknown CPU}, $(getconf _NPROCESSORS_ONLN) cores, $(go env GOOS)/$(go env GOARCH), $(go version | awk '{print $3}')"

{
	cat <<EOF
{
  "description": "Scheduling decision path (planOnline and BuildPlan) at base commit $base_sha and on the tree that wrote this file, measured back to back on the same host. Decision identity between the two is pinned by TestStreamDigestMatchesPlan and the golden dispatch logs (internal/core/testdata).",
  "host": "$host",
  "generated_by": "scripts/bench_dispatcher.sh (make bench-dispatcher), BASE=$base_sha, -benchtime=$benchtime",
  "methodology": {
    "workload": "synthetic fleet arrival streams from core.GenerateFleet (16 archetypes, exponential inter-arrival gaps sized to ~80% pool utilization, seeded xrand), energy policy; see BenchmarkScheduleOnline / BenchmarkBuildPlan in internal/core/online_bench_test.go. The sweep-* configurations hold 16 arrivals per GPU from 256 to 16,384 GPUs.",
    "measurement": "planOnline (decision path only, no simulated execution) and BuildPlan over a pre-built queue; profiles warmed by one untimed run; base exported with git archive and given this tree's benchmark file; speedup is base ns over head ns"
  },
  "schedule_online": {
EOF
	emit 2k_16gpu 'BenchmarkScheduleOnline/2k-16gpu' ns/arrival 0
	emit 10k_64gpu 'BenchmarkScheduleOnline/10k-64gpu' ns/arrival 0
	emit 50k_256gpu 'BenchmarkScheduleOnline/50k-256gpu' ns/arrival 0
	emit sweep_4k_256gpu 'BenchmarkScheduleOnline/sweep-4k-256gpu' ns/arrival 0
	emit sweep_16k_1024gpu 'BenchmarkScheduleOnline/sweep-16k-1024gpu' ns/arrival 0
	emit sweep_64k_4096gpu 'BenchmarkScheduleOnline/sweep-64k-4096gpu' ns/arrival 0
	emit sweep_256k_16384gpu 'BenchmarkScheduleOnline/sweep-256k-16384gpu' ns/arrival 1
	cat <<EOF
  },
  "build_plan": {
EOF
	emit 2k_16gpu 'BenchmarkBuildPlan/2k-16gpu' ns/workflow 0
	emit 10k_64gpu 'BenchmarkBuildPlan/10k-64gpu' ns/workflow 1
	cat <<EOF
  },
  "streaming": {
    "note": "bounded-memory soak: 1M arrivals x 1024 GPUs through core.Streamer with a 4096-entry ring and a counting spill sink peaks under 5 MiB of live heap (TestStreamBoundedMemory, skipped under -short and -race); snapshot at 2/3 and resume reproduces the uninterrupted digest (TestStreamSnapshotResume)"
  },
  "notes": "Remaining allocations are the retained dispatch-event log and its alongside name lists (plan output, carved from 4096-name chunks and necessarily live until the plan is returned) plus profile-cache warming; the admission probe and the first-fit query are allocation-free, pinned by TestAggregateAdmitAllocs, TestPoolAllocs and TestDispatcherAdmitAllocs (testing.AllocsPerRun == 0), and the steady-state planOnline floor is pinned by TestPlanOnlineSteadyAllocs (<= 0.5 allocs/arrival warm). Bit-identity of the aggregate sums against interference.Predict is pinned by FuzzAggregateMatchesPredict, and the first-fit index against a serial scan by FuzzPool.",
  "regression_net": "TestGoldenPlans / TestGoldenDispatchLogs / TestGoldenOnlineOutcome (byte-diff against pre-rewrite testdata), TestWhatIfLeavesAggregateUntouched (preemption what-ifs provably read-only), TestStreamDigestMatchesPlan, TestStreamSnapshotResume, TestDispatcherAdmitAllocs, TestPlanOnlineSteadyAllocs, FuzzAggregateMatchesPredict / FuzzPool / FuzzRing (make fuzz), and the CI bench-smoke step (make bench-smoke, which diffs the batch vs -stream dispatch digests)"
}
EOF
} >"$out"

echo "wrote $out" >&2
