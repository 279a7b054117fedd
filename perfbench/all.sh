#!/bin/sh
# Run every workload once at one seed, each in a fresh process, and print all
# their end-to-end metrics. Usage, from the repository root:
#   sh perfbench/all.sh [seed] [--trace 1]
# The default seed 0 runs the committed configs and byte-compares results/.
set -e
seed="${1:-0}"
[ $# -gt 0 ] && shift
for workload in enum-scan defect-cover-oracle; do
    python3 perfbench/run.py --workload "$workload" --seed "$seed" "$@"
done
