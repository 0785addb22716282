#!/usr/bin/env sh
# Cross-commit golden fixture. Reruns one small pinned grid (all apps x
# all EMTs x 3 voltages x 2 pathologies at --reps 2, 12 items) and
# byte-compares its columnar raw store and aggregate CSV against the
# copies committed in tests/golden/. Thread count, shard split and SIMD
# tier never change these bytes, so a result that moves by one ulp fails
# here, on every build configuration.
#
# The same run's work counters are pinned too (tests/golden/counters.txt,
# one "name value" line each): every codec.<emt>.{encode,decode}_{calls,
# words}, mem.fault_patch_words, sim.clean_runs and session.items_executed
# of its --metrics-out. None of them depends on the thread count, so a
# change to how the data path reads or writes memory that moves one of
# them fails here and names it. cs.* stays out: the CS memo's hits depend
# on which worker ran which item.
#
# Usage:
#   golden_fixture.sh check      /path/to/campaign GOLDEN_DIR OUT_DIR
#   golden_fixture.sh regenerate /path/to/campaign GOLDEN_DIR
#
# A deliberate numeric change (or a deliberate change to the accesses a
# run makes) regenerates the fixture in the same change and says why.
set -eu

mode=${1:?usage: golden_fixture.sh check|regenerate CAMPAIGN GOLDEN_DIR [OUT_DIR]}
bin=${2:?missing campaign binary}
golden=${3:?missing golden directory}

run_grid() {  # $1 output directory (the metrics JSON goes to $2)
    mkdir -p "$1"
    "$bin" --apps all --emts all --vmin 0.55 --vmax 0.85 --step 0.15 \
        --pathologies normal_sinus,afib --reps 2 \
        --store-out "$1/grid.ulpdcol" --csv "$1/grid.csv" \
        --metrics-out "$2" >/dev/null
}

pinned_counters() {  # $1 metrics JSON -> the pinned "name value" lines
    grep -E '^ *"(codec\.[a-z0-9_]+\.(encode|decode)_(calls|words)|mem\.fault_patch_words|sim\.clean_runs|session\.items_executed)": [0-9]+,?$' "$1" |
        sed -E 's/^ *"([^"]+)": ([0-9]+),?$/\1 \2/'
}

case $mode in
    check)
        out=${4:?missing output directory}
        run_grid "$out" "$out/metrics.json"
        pinned_counters "$out/metrics.json" > "$out/counters.txt"
        status=0
        for f in grid.ulpdcol grid.csv; do
            if cmp "$golden/$f" "$out/$f"; then
                echo "ok: $f is byte-identical to the golden copy"
            else
                echo "FAIL: $out/$f differs from $golden/$f" >&2
                status=1
            fi
        done
        # One line per counter on either side; the first that differs
        # (or is missing on one side) fails the check by name.
        if LC_ALL=C join -a 1 -a 2 -e absent -o 0,1.2,2.2 \
                "$golden/counters.txt" "$out/counters.txt" |
            awk '$2 != $3 { print "FAIL: counter " $1 " is " $3 \
                                  ", pinned at " $2; bad = 1; exit }
                 END { exit bad }' >&2; then
            echo "ok: $(wc -l < "$golden/counters.txt") work counters equal the pinned values"
        else
            status=1
        fi
        exit $status
        ;;
    regenerate)
        metrics=$(mktemp)
        trap 'rm -f "$metrics"' EXIT
        run_grid "$golden" "$metrics"
        pinned_counters "$metrics" > "$golden/counters.txt"
        if [ ! -s "$golden/counters.txt" ]; then
            echo "golden_fixture.sh: no pinned counters in the metrics" >&2
            exit 1
        fi
        echo "regenerated $golden/grid.ulpdcol, grid.csv and counters.txt"
        ;;
    *)
        echo "golden_fixture.sh: unknown mode '$mode' (check|regenerate)" >&2
        exit 2
        ;;
esac
