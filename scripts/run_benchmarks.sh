#!/usr/bin/env bash
# Wall-time scaling of the structured matvec, the structured solve and the
# factored solve that the steppers use; asserts that doubling the size
# roughly doubles the time of each at the largest sizes.
set -euo pipefail
outdir="${1:-artifacts}"
mkdir -p "$outdir"

ssjacobi bench --assert-linear --out "$outdir/bench.csv"
echo "timings written to $outdir/bench.csv"
