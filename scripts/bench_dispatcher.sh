#!/usr/bin/env bash
# Regenerates BENCH_dispatcher.json: runs the dispatcher benchmarks
# (decision path only) and splices the fresh "after" numbers against the
# pinned historical baselines. The "before" columns are measurements of
# older commits and cannot be re-run from this tree, so they are pinned
# here; re-measure them by checking out the named commits.
#
# Usage: scripts/bench_dispatcher.sh [out.json]
# BENCHTIME=5x scripts/bench_dispatcher.sh   # more samples
set -euo pipefail
cd "$(dirname "$0")/.."
out=${1:-BENCH_dispatcher.json}
benchtime=${BENCHTIME:-3x}

echo "running dispatcher benchmarks (-benchtime=$benchtime)..." >&2
bench=$(go test -run '^$' -bench 'BenchmarkScheduleOnline|BenchmarkBuildPlan' \
	-benchtime="$benchtime" -count=1 -timeout 30m ./internal/core)
echo "$bench" >&2

# metric BENCH_REGEX UNIT -> the value reported for that unit.
metric() {
	echo "$bench" | awk -v pat="$1" -v unit="$2" '
		$1 ~ pat { for (i = 2; i < NF; i++) if ($(i+1) == unit) { print $i; exit } }'
}

require() {
	if [ -z "$2" ]; then
		echo "bench_dispatcher: no $3 sample for $1" >&2
		exit 1
	fi
}

emit_size() { # emit_size BENCH_REGEX PER_UNIT BEFORE_NS BEFORE_B BEFORE_A
	local pat=$1 per=$2 bns=$3 bb=$4 ba=$5
	local ns b a
	ns=$(metric "$pat" "$per")
	b=$(metric "$pat" "B/op")
	a=$(metric "$pat" "allocs/op")
	require "$pat" "$ns" "$per"
	require "$pat" "$b" "B/op"
	require "$pat" "$a" "allocs/op"
	# Integer-round the per-item time and compute the speedup in awk
	# (POSIX shell has no float arithmetic).
	awk -v bns="$bns" -v bb="$bb" -v ba="$ba" -v ns="$ns" -v b="$b" -v a="$a" \
		-v per="${per#ns/}" 'BEGIN {
		printf "      \"before\": { \"ns_per_%s\": %d, \"bytes_per_op\": %d, \"allocs_per_op\": %d },\n", per, bns, bb, ba
		printf "      \"after\": { \"ns_per_%s\": %d, \"bytes_per_op\": %d, \"allocs_per_op\": %d },\n", per, ns+0.5, b, a
		printf "      \"speedup\": %.2f, \"allocs_ratio\": %.1f\n", bns/ns, ba/a
	}'
}

host="$(awk -F': ' '/model name/ { print $2; exit }' /proc/cpuinfo 2>/dev/null || true)"
host="${host:-unknown CPU}, $(getconf _NPROCESSORS_ONLN) cores, $(go env GOOS)/$(go env GOARCH), $(go version | awk '{print $3}')"

{
	cat <<EOF
{
  "description": "Scheduling decision path before/after the per-arrival output rewrite. 'before' is the incremental-aggregate dispatcher at commit b152169 (O(1) admission sums and an eventq completion heap, but per-arrival workflow-profile construction, per-event name-list slices, and an append-grown dispatch log). 'after' is the current dispatcher: single-task workflow profiles are cached, co-resident name lists are carved from 4096-name chunks the caller owns, and the streaming path bounds memory with a ring-buffered event log spilled as JSONL. Decision identity is pinned by TestStreamDigestMatchesPlan and the golden dispatch logs (internal/core/testdata, generated pre-rewrite).",
  "host": "$host",
  "generated_by": "scripts/bench_dispatcher.sh (make bench-dispatcher), -benchtime=$benchtime",
  "methodology": {
    "workload": "synthetic fleet arrival streams from core.GenerateFleet (16 archetypes, exponential inter-arrival gaps sized to ~80% pool utilization, seeded xrand); see BenchmarkScheduleOnline / BenchmarkBuildPlan in internal/core/online_bench_test.go",
    "measurement": "planOnline (decision path only, no simulated execution) and BuildPlan over a pre-built queue; profiles warmed by one untimed run; 'before' numbers measured at commit b152169 with -benchtime=5x (recorded in the previous revision of this file); 'after' regenerated by this script"
  },
  "schedule_online": {
    "2k_16gpu": {
EOF
	emit_size 'BenchmarkScheduleOnline/2k-16gpu' ns/arrival 3704 2034633 38992
	cat <<EOF
    },
    "10k_64gpu": {
EOF
	emit_size 'BenchmarkScheduleOnline/10k-64gpu' ns/arrival 4454 11391851 200783
	cat <<EOF
    },
    "50k_256gpu": {
EOF
	emit_size 'BenchmarkScheduleOnline/50k-256gpu' ns/arrival 5315 59133841 992958
	cat <<EOF
    }
  },
  "build_plan": {
    "2k_16gpu": {
EOF
	emit_size 'BenchmarkBuildPlan/2k-16gpu' ns/workflow 7003 2103275 41995
	cat <<EOF
    },
    "10k_64gpu": {
EOF
	emit_size 'BenchmarkBuildPlan/10k-64gpu' ns/workflow 28138 10834193 215092
	cat <<EOF
    }
  },
  "streaming": {
    "note": "bounded-memory soak: 1M arrivals x 1024 GPUs through core.Streamer with a 4096-entry ring and a counting spill sink peaks under 5 MiB of live heap (TestStreamBoundedMemory, skipped under -short and -race); snapshot at 2/3 and resume reproduces the uninterrupted digest (TestStreamSnapshotResume)"
  },
  "notes": "Remaining allocations are the retained dispatch-event log and its alongside name lists (plan output, carved from 4096-name chunks and necessarily live until the plan is returned) plus profile-cache warming; the admission probe itself is allocation-free, pinned by TestAggregateAdmitAllocs and TestDispatcherAdmitAllocs (testing.AllocsPerRun == 0), and the steady-state planOnline floor is pinned by TestPlanOnlineSteadyAllocs (<= 0.5 allocs/arrival warm). Bit-identity of the aggregate sums against interference.Predict is pinned by FuzzAggregateMatchesPredict.",
  "regression_net": "TestGoldenPlans / TestGoldenDispatchLogs / TestGoldenOnlineOutcome (byte-diff against pre-rewrite testdata), TestWhatIfLeavesAggregateUntouched (preemption what-ifs provably read-only), TestStreamDigestMatchesPlan, TestStreamSnapshotResume, TestDispatcherAdmitAllocs, TestPlanOnlineSteadyAllocs, FuzzAggregateMatchesPredict / FuzzRing (make fuzz), and the CI bench-smoke step (make bench-smoke, which diffs the batch vs -stream dispatch digests)"
}
EOF
} >"$out"

echo "wrote $out" >&2
