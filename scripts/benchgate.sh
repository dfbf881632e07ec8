#!/usr/bin/env bash
# The allocation gate: runs the repository benchmark on the merge base and on
# the working tree, at fixed seeds and fixed op counts, and fails when
# alloc_kb_per_op (a count that repeats to 0.15 % at one seed) of any workload
# is more than 10 % above the base, or when any op of the head failed. The
# other end-to-end metrics are timings and memory of a shared runner; they are
# printed as advisory, to the job summary when there is one. One traced
# cluster_read run per side adds three counts: cluster.calls_per_op and
# cluster.kb_per_op — the wire calls and wire bytes of a page view, which
# repeat (to 0.001 %) at a fixed seed and op count and each fail the gate
# when they rise more than 10 % — and harness.allocs_per_op, advisory. One traced
# live_mixed run of the head holds the serving tier's contract under mixed
# traffic: with no failed op above, at least one view must have come from the
# response cache (serve.cache_hit_ratio > 0).
#
#	bash scripts/benchgate.sh [base-ref]        # default origin/main
#
# It edits nothing under benchmark/ and runs benchmark/run.sh of each side
# as it is, so each side is measured by its own copy of the harness.
set -euo pipefail

base_ref=${1:-origin/main}
limit=1.10
# workload:ops — whole rounds (1 pass, 10 views, 10 cycles, 10 views), small
# enough that both sides finish in a few minutes.
runs="batch_fuse:4 read_local:30 live_mixed:30 cluster_read:20"

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
base_sha=$(git -C "$root" merge-base HEAD "$base_ref")
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
# The base as a plain tree: nothing to register in .git and nothing to
# unregister when the run is interrupted.
mkdir "$work/base"
git -C "$root" archive "$base_sha" | tar -x -C "$work/base"

# last_json <checkout> <workload> <ops> [trace]: the run's closing JSON line.
last_json() {
	(cd "$1" && bash benchmark/run.sh --workload "$2" --seed 1 --ops "$3" --trace "${4:-0}") | tail -n 1
}
# metric <json> <name>
metric() {
	sed -n "s/.*\"$2\":{\"value\":\([0-9.eE+-]*\).*/\1/p" <<<"$1" | awk '{ printf "%.3f", $1 }'
}

summary=${GITHUB_STEP_SUMMARY:-/dev/stdout}
{
	echo "### bench gate: HEAD against $base_ref (${base_sha:0:12})"
	echo
	echo "| workload | ops | alloc_kb_per_op base | head | ratio | setup_s base | head | peak_rss_mb base | head | failed ops |"
	echo "|---|---|---|---|---|---|---|---|---|---|"
} >>"$summary"

status=0
for run in $runs; do
	workload=${run%%:*} ops=${run##*:}
	base_json=$(last_json "$work/base" "$workload" "$ops")
	head_json=$(last_json "$root" "$workload" "$ops")
	base_alloc=$(metric "$base_json" alloc_kb_per_op)
	head_alloc=$(metric "$head_json" alloc_kb_per_op)
	failed=$(sed -n 's/.*"failed":\([0-9]*\).*/\1/p' <<<"$head_json")
	if [ -z "$base_alloc" ] || [ -z "$head_alloc" ] || [ -z "$failed" ]; then
		echo "benchgate: $workload printed no result" >&2
		exit 1
	fi
	ratio=$(awk -v h="$head_alloc" -v b="$base_alloc" 'BEGIN { printf "%.3f", h / b }')
	echo "| $workload | $ops | $base_alloc | $head_alloc | $ratio | $(metric "$base_json" setup_s) | $(metric "$head_json" setup_s) | $(metric "$base_json" peak_rss_mb) | $(metric "$head_json" peak_rss_mb) | $failed |" >>"$summary"
	if awk -v r="$ratio" -v l="$limit" 'BEGIN { exit !(r > l) }'; then
		echo "benchgate: $workload alloc_kb_per_op $head_alloc KB is $ratio of the base's $base_alloc KB (limit $limit)" >&2
		status=1
	fi
	if [ "$failed" != 0 ]; then
		echo "benchgate: $workload had $failed failed ops" >&2
		status=1
	fi
done

# The wire calls a page view makes and the bytes they carry: a shard op that
# turns into two, or a route that starts calling per document, shows in the
# first; a query that goes back to shipping whole documents for one field,
# in the second.
base_json=$(last_json "$work/base" cluster_read 20 1)
head_json=$(last_json "$root" cluster_read 20 1)
{
	echo
	echo "| cluster_read --trace 1 --ops 20 | base | head |"
	echo "|---|---|---|"
} >>"$summary"
for count in cluster.calls_per_op cluster.kb_per_op; do
	base_count=$(metric "$base_json" "$count")
	head_count=$(metric "$head_json" "$count")
	if [ -z "$base_count" ] || [ -z "$head_count" ]; then
		echo "benchgate: traced cluster_read printed no $count" >&2
		exit 1
	fi
	echo "| $count | $base_count | $head_count |" >>"$summary"
	if awk -v h="$head_count" -v b="$base_count" -v l="$limit" 'BEGIN { exit !(h > b * l) }'; then
		echo "benchgate: cluster_read $count $head_count is more than $limit of the base's $base_count" >&2
		status=1
	fi
done
echo "| harness.allocs_per_op | $(metric "$base_json" harness.allocs_per_op) | $(metric "$head_json" harness.allocs_per_op) |" >>"$summary"

# Writes beside reads with the default caches on: every cycle repeats a view
# at an unchanged generation, so a ratio of 0 (or none printed) means the
# response cache served nothing.
hit_ratio=$(metric "$(last_json "$root" live_mixed 30 1)" serve.cache_hit_ratio)
{
	echo
	echo "| live_mixed --trace 1 --ops 30 | head |"
	echo "|---|---|"
	echo "| serve.cache_hit_ratio | ${hit_ratio:-absent} |"
} >>"$summary"
if ! awk -v r="${hit_ratio:-0}" 'BEGIN { exit !(r > 0) }'; then
	echo "benchgate: live_mixed serve.cache_hit_ratio is ${hit_ratio:-absent}; the response cache served no view" >&2
	status=1
fi
exit $status
