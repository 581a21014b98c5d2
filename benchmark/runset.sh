#!/usr/bin/env bash
# Runs every workload of BENCHMARK.json once per seed (end-to-end metrics,
# tracing off, its run_seconds) and collects the results in one set file
# for `-compare`.
#
#   bash benchmark/runset.sh setA.jsonl            # seeds 1..10
#   bash benchmark/runset.sh setB.jsonl 11 20      # seeds 11..20
#   go run ./benchmark -compare setA.jsonl setB.jsonl
set -euo pipefail

set_file="${1:?usage: runset.sh <set.jsonl> [first-seed last-seed]}"
first="${2:-1}"
last="${3:-10}"
read -r seconds workloads < <(python3 -c '
import json
b = json.load(open("BENCHMARK.json"))
print(b["run_seconds"], *[w["name"] for w in b["workloads"]])')

for workload in $workloads; do
	for seed in $(seq "$first" "$last"); do
		bash benchmark/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0 \
			--out "$set_file" | tail -n 1
	done
done
