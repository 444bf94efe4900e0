#!/usr/bin/env bash
# Regenerates BENCH_dispatcher.json: runs the dispatcher benchmarks
# (decision path only) on a base revision and on this working tree on
# the same host, and records both side by side. The base is exported
# with `git archive` into a temporary directory, and this tree's
# internal/core/online_bench_test.go is copied over it, so both sides
# run the same configurations, the energy-policy fleet sweep from 256
# to 16,384 GPUs included. The cluster planner row times
# `gpusched bench-cluster -cluster 64x8` built from each side. Every
# row is the median of several runs per side, the sides alternating,
# so a row's speedup is not one sample of host noise.
#
# Usage: scripts/bench_dispatcher.sh [out.json]
# BASE=<rev> scripts/bench_dispatcher.sh      # base revision (default HEAD)
# BENCHTIME=3s scripts/bench_dispatcher.sh    # longer samples (default 1s)
#
# With the default BASE, run it on an uncommitted change to compare the
# change against the commit it sits on.
set -euo pipefail
cd "$(dirname "$0")/.."
out=${1:-BENCH_dispatcher.json}
base=${BASE:-HEAD}
benchtime=${BENCHTIME:-1s}
runs=9 # samples per side and row; each row keeps the median
cluster_args=(bench-cluster -cluster 64x8)
base_sha=$(git rev-parse --short "$base")

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
git archive "$base" | tar -x -C "$tmp"
cp internal/core/online_bench_test.go "$tmp/internal/core/"

echo "building both sides at $base_sha and on the working tree..." >&2
(cd "$tmp" && go test -c -o "$tmp/core-base.test" ./internal/core && go build -o "$tmp/gpusched-base" ./cmd/gpusched)
go test -c -o "$tmp/core-head.test" ./internal/core
go build -o "$tmp/gpusched-head" ./cmd/gpusched

bench() { # bench DIR BINARY -> benchmark output
	(cd "$1/internal/core" && "$2" -test.run '^$' -test.bench 'BenchmarkScheduleOnline|BenchmarkBuildPlan' \
		-test.benchtime="$benchtime" -test.count=1 -test.timeout 60m)
}

base_out="" head_out="" base_cluster="" head_cluster=""
for i in $(seq "$runs"); do
	echo "run $i of $runs: dispatcher benchmarks (-benchtime=$benchtime) and gpusched ${cluster_args[*]}, base then head..." >&2
	base_out+="$(bench "$tmp" "$tmp/core-base.test")"$'\n'
	head_out+="$(bench . "$tmp/core-head.test")"$'\n'
	base_cluster+="$("$tmp/gpusched-base" "${cluster_args[@]}")"$'\n'
	head_cluster+="$("$tmp/gpusched-head" "${cluster_args[@]}")"$'\n'
done
echo "$base_out$head_out$base_cluster$head_cluster" >&2

# metric OUTPUT BENCH_REGEX UNIT -> the median over the runs of the
# value reported for that unit.
metric() {
	echo "$1" | awk -v pat="$2" -v unit="$3" '
		$1 ~ "^"pat"-[0-9]+$" { for (i = 2; i < NF; i++) if ($(i+1) == unit) v[n++] = $i + 0 }
		END {
			if (n == 0) exit
			for (i = 0; i < n; i++) for (j = i + 1; j < n; j++) if (v[j] < v[i]) { t = v[i]; v[i] = v[j]; v[j] = t }
			printf "%.15g\n", v[int((n-1)/2)]
		}'
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

# cluster_side OUTPUT -> one JSON object of a side's bench-cluster
# numbers: the median ns/submission over the runs and the work counters
# (the same in every run). A side that predates skipped retries prints
# none and reports 0.
cluster_side() {
	echo "$1" | awk '
		/ns\/submission/ { s = $0; sub(/.*\(/, "", s); sub(/ ns\/submission.*/, "", s); ns[n++] = s + 0 }
		/ probes / {
			for (i = 1; i < NF; i++) {
				if ($i == "probes") p = $(i+1)
				if ($i == "holds") h = $(i+1)
				if ($i == "retries") k = $(i+1)
			}
		}
		END {
			if (n == 0 || p == "") { print "bench_dispatcher: incomplete bench-cluster sample" > "/dev/stderr"; exit 1 }
			for (i = 0; i < n; i++) for (j = i + 1; j < n; j++) if (ns[j] < ns[i]) { t = ns[i]; ns[i] = ns[j]; ns[j] = t }
			printf "{ \"ns_per_submission\": %d, \"probes\": %d, \"holds\": %d, \"skipped_retries\": %d }", ns[int((n-1)/2)], p, h, k
		}'
}

# cluster_ns SIDE_JSON -> its ns_per_submission.
cluster_ns() { echo "$1" | sed 's/.*"ns_per_submission": \([0-9]*\).*/\1/'; }

host="$(awk -F': ' '/model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)"
host="${host:-unknown CPU}, $(getconf _NPROCESSORS_ONLN) cores, $(go env GOOS)/$(go env GOARCH), $(go version | awk '{print $3}')"

{
	cat <<EOF
{
  "description": "Scheduling decision path (planOnline, BuildPlan and the cluster planner's Plan) at base commit $base_sha and on the tree that wrote this file, measured back to back on the same host. Decision identity between the two is pinned by TestStreamDigestMatchesPlan and the golden dispatch logs (internal/core/testdata, internal/cluster/testdata).",
  "host": "$host",
  "generated_by": "scripts/bench_dispatcher.sh (make bench-dispatcher), BASE=$base_sha, -benchtime=$benchtime, median of $runs runs per side",
  "methodology": {
    "workload": "synthetic fleet arrival streams from core.GenerateFleet (16 archetypes, exponential inter-arrival gaps sized to ~80% pool utilization, seeded xrand), energy policy; see BenchmarkScheduleOnline / BenchmarkBuildPlan in internal/core/online_bench_test.go. The sweep-* configurations hold 16 arrivals per GPU from 256 to 16,384 GPUs.",
    "measurement": "planOnline (decision path only, no simulated execution) and BuildPlan over a pre-built queue; profiles warmed by one untimed run; base exported with git archive and given this tree's benchmark file; every figure is the median of $runs runs per side, base and head alternating; speedup is base ns over head ns"
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
	bc=$(cluster_side "$base_cluster")
	hc=$(cluster_side "$head_cluster")
	cat <<EOF
  },
  "cluster_plan": {
    "64x8": {
      "command": "gpusched ${cluster_args[*]}: 64 nodes of 8 GPUs cycling MPS, MIG and time-slicing, 3 fair-share tenants, preemption, 20,000 seed-42 workflows bundled into gang submissions; median of $runs runs per side, the sides alternating",
      "base": $bc,
      "head": $hc,
      "speedup": $(awk -v b="$(cluster_ns "$bc")" -v h="$(cluster_ns "$hc")" 'BEGIN { printf "%.2f", b/h }')
    }
  },
  "streaming": {
    "note": "bounded-memory soak: 1M arrivals x 1024 GPUs through core.Streamer (no retained events) into a counting spill sink peaks under 5 MiB of live heap (TestStreamBoundedMemory, skipped under -short and -race); snapshot at 2/3 and resume reproduces the uninterrupted digest (TestStreamSnapshotResume)"
  },
  "notes": "Remaining allocations are the retained dispatch-event log and its alongside name lists (plan output, carved from 4096-name chunks and necessarily live until the plan is returned) plus profile-cache warming; the admission probe and the first-fit query are allocation-free, pinned by TestAggregateAdmitAllocs, TestPoolAllocs and TestDispatcherAdmitAllocs (testing.AllocsPerRun == 0), and the steady-state planOnline floor is pinned by TestPlanOnlineSteadyAllocs (<= 0.5 allocs/arrival warm). Bit-identity of the aggregate sums against interference.Predict is pinned by FuzzAggregateMatchesPredict, and the first-fit index against a serial scan by FuzzPool.",
  "regression_net": "TestGoldenPlans / TestGoldenDispatchLogs / TestGoldenOnlineOutcome (byte-diff against pre-rewrite testdata), TestWhatIfLeavesAggregateUntouched (preemption what-ifs provably read-only), TestStreamDigestMatchesPlan, TestStreamSnapshotResume, TestDispatcherAdmitAllocs, TestPlanOnlineSteadyAllocs, FuzzAggregateMatchesPredict / FuzzPool / FuzzIngestResponse (make fuzz), and the CI bench-smoke step (make bench-smoke, which diffs the batch vs -stream dispatch digests)"
}
EOF
} >"$out"

echo "wrote $out" >&2
