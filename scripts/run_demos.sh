#!/usr/bin/env bash
# Model time-steppers: implicit-Euler diffusion (norm contracts) and
# Cayley advection (norm conserved), both on the structured fast path.
set -euo pipefail
# Run the package from this checkout; it need not be installed.
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
ssjacobi() { python3 -m ssjacobi.cli "$@"; }

outdir="${1:-artifacts}"
mkdir -p "$outdir"

ssjacobi demo diffusion --n 64 --dt 0.01 --steps 1000 \
    --out "$outdir/demo_diffusion.csv"
ssjacobi demo advection --n 64 --dt 0.01 --steps 1000 \
    --out "$outdir/demo_advection.csv"

echo "norm series written to $outdir"
