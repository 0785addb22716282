#!/usr/bin/env sh
# Exit-code discipline of the campaign CLI, pinned for scripts and CI:
#   0  success (--help, --list, a completed run)
#   2  usage error naming the offender (unknown flag/verb, missing
#      required flag, unparseable value) — "fix your invocation"
#   1  runtime failure (bad input file, socket error) — "fix your world"
# Usage: cli_smoke.sh /path/to/campaign
set -u

bin=${1:?usage: cli_smoke.sh /path/to/campaign}
fails=0

# expect <exit-code> <stderr-substring|-> <args...>
expect() {
    want=$1
    needle=$2
    shift 2
    err=$("$bin" "$@" 2>&1 >/dev/null)
    got=$?
    if [ "$got" -ne "$want" ]; then
        echo "FAIL: campaign $* -> exit $got, want $want" >&2
        echo "      stderr: $err" >&2
        fails=$((fails + 1))
    elif [ "$needle" != "-" ] && ! printf '%s' "$err" | grep -qF -e "$needle"; then
        echo "FAIL: campaign $* stderr lacks '$needle'" >&2
        echo "      stderr: $err" >&2
        fails=$((fails + 1))
    else
        echo "ok: campaign $* -> exit $got"
    fi
}

# Success paths.
expect 0 - --help
expect 0 - --list

# Usage errors (exit 2) must name the offender.
expect 2 '--bogus-flag' --bogus-flag=1
expect 2 'frobnicate' frobnicate
expect 2 'serve' serve
expect 2 '--connect' work
expect 2 '--shard' work --connect=unix:/tmp/nowhere.sock --shard=0/2
# daemon and work take no grid axes: a lease names its grid, a query
# names its own.
expect 2 '--apps' work --connect=unix:/tmp/nowhere.sock --apps=dwt
expect 2 '--reps' daemon --listen=unix:/tmp/nowhere.sock \
    --cache-dir=/dev/null/cache --reps=3
# An idle worker polls every heartbeat; one that outlives the lease TTL
# gets healthy workers dropped.
expect 2 '--heartbeat-ms must be below --lease-ttl' daemon \
    --listen=unix:/tmp/nowhere.sock --cache-dir=/dev/null/cache \
    --lease-ttl=100 --heartbeat-ms=1000
expect 2 'step' --step=0 --max-items=1
expect 2 'repetitions' --reps=-1 --max-items=1
expect 2 '--checkpoint-every' --checkpoint-every=4 --max-items=1
expect 2 '--merge-stores' --merge-stores=,
expect 2 '--store-format' --store-format=columnar --max-items=1
expect 2 '--listen' daemon
expect 2 '--cache-dir' daemon --listen=unix:/tmp/nowhere.sock
expect 2 '--connect' query
expect 2 '--shard' query --connect=unix:/tmp/nowhere.sock --shard=0/2
# Numeric flags parse their whole value: a fraction, a sign, trailing
# junk or a word exits 2 naming the flag instead of running on whatever
# a prefix parse made of it.
dwt="--apps=dwt --emts=none --vmin=0.9 --vmax=0.9 --reps=3 --threads=1"
expect 2 '--reps' $dwt --reps=2.5
expect 2 '--shard' $dwt --shard=1.5/3
expect 2 '--shard' $dwt --shard=-1/3
expect 2 '--shard' $dwt --shard=3/3
expect 2 '--seed' $dwt --seed=12abc
expect 2 '--vmin' $dwt --vmin=0.9x
expect 2 '--threads' $dwt --threads=four
expect 2 '--max-items' $dwt --max-items=1.5
# A grid may not repeat an axis value (two rows would share one key),
# and every voltage and noise scale is finite.
one="--reps=1 --threads=1 --max-items=1"
v07="--vmin=0.7 --vmax=0.7"
expect 2 "emt 'dream' is repeated" $one $v07 --apps=dwt --emts=dream,dream
expect 2 "app 'dwt' is repeated" $one $v07 --apps=dwt,dwt --emts=dream
expect 2 "record 'normal_sinus_n1_s7' is repeated" $one $v07 --apps=dwt \
    --emts=dream --pathologies=normal_sinus,normal_sinus
expect 2 "voltage '0.5' is repeated" $one --apps=dwt --emts=dream \
    --vmin=0.5 --vmax=0.5000000001 --step=1e-10
expect 2 'vmin = nan' $one --apps=dwt --emts=dream --vmin=nan
expect 2 'vmax = inf' $one --apps=dwt --emts=dream --vmax=inf
expect 2 'step = nan' $one --apps=dwt --emts=dream --step=nan
expect 2 'noise_scale' $one $v07 --apps=dwt --emts=dream --noise=nan
expect 2 '--threads' work --connect=unix:/nonexistent/daemon.sock \
    --threads=four
expect 2 '--checkpoint-every' work --connect=unix:/nonexistent/daemon.sock \
    --checkpoint-every=1e3
# (/dev/null/cache cannot be created even by root, so a build that let
# the bad value through fails at the cache instead of serving forever.)
expect 2 '--lease-items' daemon --listen=unix:/tmp/nowhere.sock \
    --cache-dir=/dev/null/cache --lease-items=4x

# Runtime failures (exit 1): a well-formed invocation against a broken
# world.
expect 1 - --resume=/nonexistent/resume.bin --max-items=1
# A store in the retired line-oriented text format is foreign to the
# columnar reader: it fails typed ("bad magic"), naming the file.
text_store=$(mktemp)
printf 'ulpdream-campaign-store v1\nfingerprint x\nmax_snr %s\nend\n' \
    "30 31 32 33 34 35 36 37 38 39 40 41 42 43 44" >"$text_store"
expect 1 "$text_store" --resume="$text_store" --max-items=1
expect 1 "$text_store" --merge-stores="$text_store"
rm -f "$text_store"
expect 1 - work --connect=unix:/nonexistent/daemon.sock
expect 1 - query --connect=unix:/nonexistent/daemon.sock

if [ "$fails" -ne 0 ]; then
    echo "$fails CLI smoke check(s) failed" >&2
    exit 1
fi
echo "all CLI smoke checks passed"
