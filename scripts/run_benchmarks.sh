#!/usr/bin/env bash
# Wall-time scaling of the structured matvec, the structured solve and the
# factored solve that the steppers use; asserts that doubling the size
# roughly doubles the time of each at the largest sizes.
set -euo pipefail
# Run the package from this checkout; it need not be installed.
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
ssjacobi() { python3 -m ssjacobi.cli "$@"; }

outdir="${1:-artifacts}"
mkdir -p "$outdir"

ssjacobi bench --assert-linear --out "$outdir/bench.csv"
echo "timings written to $outdir/bench.csv"
