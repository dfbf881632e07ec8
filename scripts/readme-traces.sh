#!/usr/bin/env bash
# Runs the repository benchmark once per workload and trace mode at seed 1,
# writes each run's standard output to docs/traces/<workload>-seed1-trace<0|1>.txt
# under three header lines (the command, the tree, the machine), then
# re-renders README.md's cost tables from those files. The tree is the
# commit checked out, with "+changes" when the working tree differs from it
# outside docs/traces/ and README.md: the commit that adds the files.
#
#	bash scripts/readme-traces.sh
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
tree=$(git rev-parse --short HEAD)
if [ -n "$(git status --porcelain -- . ':!docs/traces' ':!README.md')" ]; then
  tree="$tree+changes"
fi
cpu=$(grep -m1 'model name' /proc/cpuinfo | cut -d: -f2 | sed 's/^ *//')
machine="$(nproc) CPUs, $cpu, $(go env GOVERSION)"
for w in batch_fuse read_local live_mixed cluster_read; do
  for trace in 0 1; do
    run="bash benchmark/run.sh --workload $w --seed 1 --trace $trace"
    out="docs/traces/$w-seed1-trace$trace.txt"
    { echo "# run: $run"; echo "# tree: $tree"; echo "# machine: $machine"; $run; } >"$out.tmp"
    mv "$out.tmp" "$out"
  done
done
go test -run '^TestREADMECostTables$' -count 1 . -args -update
