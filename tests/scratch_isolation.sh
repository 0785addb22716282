#!/usr/bin/env sh
# Two runs of one test case at once must not share scratch paths: the
# tests and benches name their temporary directories, stores and sockets
# after their process id. This runs each daemon case below twice at the
# same time, as two build trees running ctest side by side do, and fails
# unless all four runs pass. A case that no longer exists fails too, so
# a rename cannot turn this check into a no-op.
#
# Usage: scratch_isolation.sh /path/to/dist_test /path/to/serve_test
set -u

dist=${1:?usage: scratch_isolation.sh /path/to/dist_test /path/to/serve_test}
serve=${2:?missing serve_test}
log=$(mktemp -d)
trap 'rm -rf "$log"' EXIT
status=0

# Runs test case $2 of binary $1 twice at once; each run must pass.
twice() {
  "$1" --gtest_filter="$2" >"$log/1" 2>&1 &
  first=$!
  "$1" --gtest_filter="$2" >"$log/2" 2>&1 &
  second=$!
  for run in 1 2; do
    if [ "$run" = 1 ]; then pid=$first; else pid=$second; fi
    if wait "$pid" && grep -q '^\[  PASSED  \] 1 test\.' "$log/$run"; then
      echo "ok: $2, run $run"
    else
      echo "FAIL: $2, run $run"
      cat "$log/$run"
      status=1
    fi
  done
}

twice "$dist" LeasedDaemon.WorkerDeathBetweenLeasesIsAbsorbed
twice "$serve" ServeDaemon.ColdThenExactHitAnswerByteIdenticalStores
exit "$status"
