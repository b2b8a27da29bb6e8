#!/usr/bin/env bash
# Measure two checkouts of the repository against each other.
#
#   bash benchmark/pairs.sh PARENT_DIR CHANGE_DIR [PAIRS]
#
# Pair k (1..PAIRS, default 10) runs every workload untraced once on each
# side with seed k; the side that goes first alternates from pair to pair.
# Results are appended as JSON lines to parent.jsonl and change.jsonl in
# the current directory, then compared with `main.exe --compare`, which
# prints one row per workload and exits 1 if any metric regressed.
set -euo pipefail
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
pairs=${3:-10}
here=$(pwd)
workloads="null_table1 sql_read_mix sql_vote_insert gateway_failover"
: > "$here/parent.jsonl"
: > "$here/change.jsonl"

run() { # checkout seed workload output
  local line
  line=$(cd "$1" && bash benchmark/run.sh --workload "$3" --seed "$2" --seconds 10 --trace 0 | tail -n 1)
  printf '{"workload": "%s", "seed": %s, "result": %s}\n' "$3" "$2" "$line" >> "$4"
}

for k in $(seq 1 "$pairs"); do
  for w in $workloads; do
    if (( k % 2 )); then
      run "$parent" "$k" "$w" "$here/parent.jsonl"
      run "$change" "$k" "$w" "$here/change.jsonl"
    else
      run "$change" "$k" "$w" "$here/change.jsonl"
      run "$parent" "$k" "$w" "$here/parent.jsonl"
    fi
  done
done
cd "$change"
./_build/default/benchmark/main.exe --compare "$here/parent.jsonl" "$here/change.jsonl"
