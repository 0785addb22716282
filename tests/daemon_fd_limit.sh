#!/usr/bin/env sh
# A burst of connections past the daemon's descriptor limit must not
# kill it: accept() failing with EMFILE is logged, counted and retried
# after a back-off, and once the burst's connections close, a query is
# answered as usual. The daemon runs under `ulimit -n 24` while a Python
# client holds 30 connections open.
#
# Usage: daemon_fd_limit.sh /path/to/campaign WORK_DIR
set -eu

bin=${1:?usage: daemon_fd_limit.sh /path/to/campaign WORK_DIR}
work=${2:?missing work directory}
bin=$(cd "$(dirname "$bin")" && pwd)/$(basename "$bin")
rm -rf "$work"
mkdir -p "$work"
cd "$work"
sock="$work/d.sock"

( ulimit -n 24 && exec "$bin" daemon --listen "unix:$sock" \
    --cache-dir cache --threads 1 ) 2>daemon.err &
pid=$!
trap 'kill "$pid" 2>/dev/null || true' EXIT

python3 - "$sock" daemon.err "$pid" <<'PY'
import os, socket, sys, time

path, log, pid = sys.argv[1], sys.argv[2], int(sys.argv[3])

def wait_for(what, ready):
    deadline = time.monotonic() + 60
    while not ready():
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            sys.exit("the daemon died waiting for " + what + ":\n" +
                     open(log).read())
        if time.monotonic() > deadline:
            sys.exit("timed out waiting for " + what)
        time.sleep(0.01)

wait_for("the daemon's socket", lambda: os.path.exists(path))
held = []
for _ in range(30):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.connect(path)
    held.append(s)
wait_for("an accept failure in the log",
         lambda: "Too many open files" in open(log).read())
for s in held:
    s.close()
PY

"$bin" query --connect "unix:$sock" --apps dwt --emts none --vmin 0.8 \
    --vmax 0.8 --reps 1 >/dev/null 2>query.err || {
    echo "FAIL: no answer after the connection burst" >&2
    cat query.err daemon.err >&2
    exit 1
}
kill -TERM "$pid"
wait "$pid" || {
    echo "FAIL: daemon exited $? after the connection burst" >&2
    cat daemon.err >&2
    exit 1
}
trap - EXIT
echo "daemon survived the burst and answered:"
grep -m1 "Too many open files" daemon.err
