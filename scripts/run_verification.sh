#!/usr/bin/env bash
# Cross-validation reports for the default and an asymmetric parameter pair.
set -euo pipefail
# Run the package from this checkout; it need not be installed.
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
export PYTHONPATH="$root/src${PYTHONPATH:+:$PYTHONPATH}"
ssjacobi() { python3 -m ssjacobi.cli "$@"; }

outdir="${1:-artifacts}"
mkdir -p "$outdir"

ssjacobi verify --out "$outdir/verify_default.json"
ssjacobi verify --alpha 4 --beta 2 --n 64 --out "$outdir/verify_a4b2_n64.json"

ssjacobi gen --alpha 4 --beta 2 --n 64 --format json --source generators \
    --out "$outdir/generators_a4b2_n64.json"
ssjacobi verify --alpha 4 --beta 2 --n 64 \
    --against "$outdir/generators_a4b2_n64.json" \
    --out "$outdir/verify_against_file.json"

echo "reports written to $outdir"
