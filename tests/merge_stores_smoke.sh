#!/usr/bin/env sh
# `campaign --merge-stores` end to end. Three --shard i/3 stores of one
# grid are merged by append (with --store-out) and in memory (without
# it); both merged CSVs must be byte-identical to the single-process
# CSV, and so must the appended store and a store re-saved by resuming
# from it.
#
# Usage: merge_stores_smoke.sh /path/to/campaign WORK_DIR
set -eu

bin=${1:?usage: merge_stores_smoke.sh /path/to/campaign WORK_DIR}
work=${2:?missing work directory}
bin=$(cd "$(dirname "$bin")" && pwd)/$(basename "$bin")
rm -rf "$work"
mkdir -p "$work"
cd "$work"

axes="--apps dwt,cs --emts none,dream --vmin 0.6 --vmax 0.8 --step 0.1 \
      --reps 3"

"$bin" $axes --store-out single.ulpdcol --csv single.csv >/dev/null
for i in 0 1 2; do
    "$bin" $axes --shard "$i/3" --store-out "shard$i.ulpdcol" >/dev/null
done
shards=shard0.ulpdcol,shard1.ulpdcol,shard2.ulpdcol
"$bin" $axes --merge-stores "$shards" --store-out merged.ulpdcol \
    --csv append.csv >/dev/null
"$bin" $axes --merge-stores "$shards" --csv memory.csv >/dev/null
"$bin" $axes --resume merged.ulpdcol --store-out resumed.ulpdcol >/dev/null

status=0
same() {  # $1 $2: byte-compare, report
    if cmp "$1" "$2"; then
        echo "ok: $1 is byte-identical to $2"
    else
        echo "FAIL: $1 differs from $2" >&2
        status=1
    fi
}
same append.csv single.csv
same memory.csv single.csv
same merged.ulpdcol single.ulpdcol
same resumed.ulpdcol single.ulpdcol
exit $status
