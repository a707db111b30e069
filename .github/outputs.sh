#!/usr/bin/env bash
# Write the declared CLI outputs of one source tree, so that two trees can be
# compared byte for byte with `diff -r`.
#
#   .github/outputs.sh SOURCE_DIR OUT_DIR
#
# SOURCE_DIR is a checkout of the repository (its `src/` is imported) and
# OUT_DIR is created.  The outputs are the default n = 5 sweep; for n = 5..8
# the sweeps on 2:128:64:log, on 2:16:8:log at t = 0.3 and on 2:512:9:log;
# for n = 5..8 at alpha = 2, 8, 32, 128 a mode-1 solve, a solve from its
# field file and a diagnose of that file, and a mode-1 solve at alpha = 512;
# for n = 5..8 the one-peak far start 1 + 0.3 cos(s + 0.2) on 64 points,
# written by the tree's own `save_field` as it is and scaled by 1e-100 and
# by 1e100, a solve from it at alpha = 32 and 128, and from each scaled
# copy at alpha = 32; bubble-check at lambda0 = 1.7 for n = 5, 6, 7, 8, 12;
# and for n = 5 and 8 bubble-check at lambda0 = 1e-3 and 1e5, and at
# lambda0 = 1.7 with rmax = 1 and 1e6, since the ball's depth,
# max(0, ln(rmax lambda0)) + acosh(e^(80/n)), depends on lambda0 and rmax.
# A command that exits nonzero does not stop the others; the script then
# exits 1 once all have run.
set -u

if [ $# -ne 2 ]; then
    echo "usage: $0 SOURCE_DIR OUT_DIR" >&2
    exit 64
fi
src=$(cd "$1" && pwd)/src || exit 64
mkdir -p "$2" || exit 64
out=$(cd "$2" && pwd) || exit 64
# one BLAS thread: threaded reductions may round differently from run to run
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1
export PYTHONPATH="$src"

status=0
# run NAME ARGS...: stdout of `paneitz ARGS...` to OUT_DIR/NAME
run() {
    local name=$1
    shift
    if ! python -m paneitz.cli "$@" > "$out/$name"; then
        echo "$0: failed: paneitz $*" >&2
        status=1
    fi
}

# a sweep writes its CSV to --out only; /dev/stdout is the file run() opened
run dim5-default.csv sweep --dim 5 --out /dev/stdout
for n in 5 6 7 8; do
    run dim$n-dense.csv sweep --dim $n --alpha 2:128:64:log --out /dev/stdout
    run dim$n-t0.3.csv sweep --dim $n --t 0.3 --alpha 2:16:8:log --out /dev/stdout
    run dim$n-wide.csv sweep --dim $n --alpha 2:512:9:log --out /dev/stdout
    for alpha in 2 8 32 128; do
        stem=dim$n-alpha$alpha
        run $stem-solve.json solve --dim $n --alpha $alpha --field-out "$out/$stem.field"
        run $stem-file.json solve --dim $n --alpha $alpha --init file --field-in "$out/$stem.field"
        run $stem-diagnose.json diagnose "$out/$stem.field" --alpha $alpha
    done
    run dim$n-alpha512-solve.json solve --dim $n --alpha 512
    far="$out/dim$n-far"
    if ! python -c 'import sys, numpy as np
from paneitz.field import PeriodicField, save_field
from paneitz.geometry import ManifoldSpec
start = PeriodicField.from_function(ManifoldSpec(int(sys.argv[1]), 1.0), lambda s: 1.0 + 0.3 * np.cos(s + 0.2), 64)
save_field(start, sys.argv[2] + ".field")
for scale in ("1e-100", "1e100"):
    save_field(start.scaled(float(scale)), sys.argv[2] + "-" + scale + ".field")' $n "$far"; then
        echo "$0: failed: far start for n=$n" >&2
        status=1
    fi
    for alpha in 32 128; do
        run dim$n-alpha$alpha-far.json solve --dim $n --alpha $alpha --init file --field-in "$far.field"
    done
    for scale in 1e-100 1e100; do
        run dim$n-alpha32-far-$scale.json solve --dim $n --alpha 32 --init file --field-in "$far-$scale.field"
    done
done
for n in 5 6 7 8 12; do
    run bubble-dim$n.json bubble-check --dim $n --lambda0 1.7
done
for n in 5 8; do
    for lambda0 in 1e-3 1e5; do
        run bubble-dim$n-lambda$lambda0.json bubble-check --dim $n --lambda0 $lambda0
    done
    for rmax in 1 1e6; do
        run bubble-dim$n-rmax$rmax.json bubble-check --dim $n --lambda0 1.7 --rmax $rmax
    done
done
exit $status
