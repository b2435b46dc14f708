#!/bin/sh
# Makes one acceptance run-set: every workload on seeds 1..10, exactly as the
# driver runs them, concatenated into the file named by $1. A second argument
# of 1 makes the runs traced ones.
#
#	sh bench/runset.sh bench/baseline/set1.json
#	sh bench/runset.sh bench/baseline/traced.json 1
set -e
dest=$(realpath -m "$1")
trace=${2:-0}
here=$(dirname "$0")
mkdir -p "$here/out" "$(dirname "$dest")"
: > "$dest"
for workload in steady_raw steady_sketch incident fleet_churn; do
	for seed in 1 2 3 4 5 6 7 8 9 10; do
		sh "$here/run.sh" --workload $workload --seed $seed --seconds 20 --trace "$trace" \
			--out out/last.json >/dev/null
		cat "$here/out/last.json" >> "$dest"
	done
done
