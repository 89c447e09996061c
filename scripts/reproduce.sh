#!/usr/bin/env bash
# Run every survey and produce the CSV/JSON artifacts in one go.
#
# Usage:
#   scripts/reproduce.sh [OUTDIR] [--full]
#
# Desk scale (default) finishes in a couple of minutes. --full bumps the
# surveys to publication scale (1e5-state scatter, 5e3-state basis search)
# and can take a few hours on one machine. Only fig2 runs on THREADS threads.
#
# Every run is seeded, so re-running the script reproduces the data files
# byte for byte. Override the seed with ENTROSTEER_SEED or edit SEED below.

set -euo pipefail

OUTDIR=results
FULL=0
for arg in "$@"; do
    case "$arg" in
        --full) FULL=1 ;;
        -*) echo "unknown flag: $arg" >&2; exit 2 ;;
        *) OUTDIR="$arg" ;;
    esac
done

SEED="${ENTROSTEER_SEED:-7}"
THREADS="${THREADS:-4}"
RUN="python3 -m entrosteer"

FIG1_N=10000; FIG2_N=500; FIG2_TRIALS=500; SWEEP_N=10000; AUDIT_N=10000
if [ "$FULL" = 1 ]; then
    FIG1_N=100000; FIG2_N=5000
fi

mkdir -p "$OUTDIR"
echo "writing artifacts to $OUTDIR (seed $SEED, threads $THREADS)"

$RUN werner-threshold --settings 2 --tol 1e-6 --seed "$SEED" \
    --out "$OUTDIR/threshold_pair.json"
$RUN werner-threshold --settings 3 --tol 1e-6 --seed "$SEED" \
    --out "$OUTDIR/threshold_mub.json"

$RUN fig1 --ensemble mixed --n "$FIG1_N" --seed "$SEED" \
    --out "$OUTDIR/fig1_mixed.csv"
$RUN fig1 --ensemble pure --n "$FIG1_N" --seed "$SEED" \
    --out "$OUTDIR/fig1_pure.csv"

$RUN fig2 --ensemble mixed --n "$FIG2_N" --trials "$FIG2_TRIALS" --seed "$SEED" \
    --threads "$THREADS" --out "$OUTDIR/fig2_mixed.csv"
$RUN fig2 --ensemble pure --n "$FIG2_N" --trials "$FIG2_TRIALS" --seed "$SEED" \
    --threads "$THREADS" --out "$OUTDIR/fig2_pure.csv"

# fixed-state basis sweep (scatter of directional violations for one state)
$RUN sweep --werner 0.9 --n "$SWEEP_N" --seed "$SEED" \
    --out "$OUTDIR/sweep_werner09.csv"

$RUN cv-scan --r-min 0 --r-max 2 --steps 41 --seed "$SEED" \
    --out "$OUTDIR/cv_scan.csv"

$RUN separable-audit --n "$AUDIT_N" --k-max 4 --seed "$SEED" \
    --out "$OUTDIR/separable_audit.json"

echo "done; manifests sit next to each artifact"
