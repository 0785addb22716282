#!/usr/bin/env sh
# Cross-commit golden fixture. Reruns one small pinned grid (all apps x
# all EMTs x 3 voltages x 2 pathologies at --reps 2, 12 items) and
# byte-compares its columnar raw store and aggregate CSV against the
# copies committed in tests/golden/. Thread count, shard split and SIMD
# tier never change these bytes, so a result that moves by one ulp fails
# here, on every build configuration.
#
# Usage:
#   golden_fixture.sh check      /path/to/campaign GOLDEN_DIR OUT_DIR
#   golden_fixture.sh regenerate /path/to/campaign GOLDEN_DIR
#
# A deliberate numeric change regenerates the fixture in the same change
# and says why.
set -eu

mode=${1:?usage: golden_fixture.sh check|regenerate CAMPAIGN GOLDEN_DIR [OUT_DIR]}
bin=${2:?missing campaign binary}
golden=${3:?missing golden directory}

run_grid() {  # $1 output directory
    mkdir -p "$1"
    "$bin" --apps all --emts all --vmin 0.55 --vmax 0.85 --step 0.15 \
        --pathologies normal_sinus,afib --reps 2 --store-format columnar \
        --store-out "$1/grid.ulpdcol" --csv "$1/grid.csv" >/dev/null
}

case $mode in
    check)
        out=${4:?missing output directory}
        run_grid "$out"
        status=0
        for f in grid.ulpdcol grid.csv; do
            if cmp "$golden/$f" "$out/$f"; then
                echo "ok: $f is byte-identical to the golden copy"
            else
                echo "FAIL: $out/$f differs from $golden/$f" >&2
                status=1
            fi
        done
        exit $status
        ;;
    regenerate)
        run_grid "$golden"
        echo "regenerated $golden/grid.ulpdcol and $golden/grid.csv"
        ;;
    *)
        echo "golden_fixture.sh: unknown mode '$mode' (check|regenerate)" >&2
        exit 2
        ;;
esac
