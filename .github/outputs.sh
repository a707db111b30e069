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
# field file and a diagnose of that file; and bubble-check at lambda0 = 1.7
# for n = 5, 6, 7, 8, 12.  A command that exits nonzero does not stop the
# others; the script then exits 1 once all have run.
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
done
for n in 5 6 7 8 12; do
    run bubble-dim$n.json bubble-check --dim $n --lambda0 1.7
done
exit $status
