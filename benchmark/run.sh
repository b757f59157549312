#!/usr/bin/env bash
# Build the benchmark (Release) and run every workload N times (default 5),
# each run in its own process, alternating the workload order between
# rounds. Every run prints its metrics with units and writes one JSON file;
# --trace adds the traced run. Further options go to run.py (--out DIR,
# --seed S, --seconds S).
#
#   benchmark/run.sh [N] [--trace] [run.py options]
set -euo pipefail
n=5
if [[ $# -gt 0 && $1 =~ ^[0-9]+$ ]]; then
  n=$1
  shift
fi
exec python3 "$(dirname "$0")/run.py" --repeat "$n" "$@"
