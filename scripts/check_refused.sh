#!/usr/bin/env bash
# Run a command that must refuse its input, and check how it refuses: exit code 1,
# exactly one line on stderr, that line starting with PREFIX (a grep pattern), no
# Python traceback, and none of the named files left behind.  The stderr line is
# echoed to stdout.  Exits 1 on the first check that fails.
#
#   scripts/check_refused.sh PREFIX [FILE ...] -- COMMAND [ARG ...]
set -u

usage() {
  echo "usage: $0 PREFIX [FILE ...] -- COMMAND [ARG ...]" >&2
  exit 2
}
[ "$#" -ge 3 ] || usage
prefix=$1
shift
absent=()
while [ "$#" -gt 0 ] && [ "$1" != "--" ]; do
  absent+=("$1")
  shift
done
[ "$#" -ge 2 ] || usage
shift

cmd="$*"
err=$(mktemp)
trap 'rm -f "$err"' EXIT
"$@" 2> "$err"
code=$?
cat "$err"

fail() {
  echo "check_refused: $cmd: $1" >&2
  exit 1
}
[ "$code" -eq 1 ] || fail "exit code $code, expected 1"
[ "$(wc -l < "$err")" -eq 1 ] || fail "expected one line on stderr"
grep -q "^$prefix" "$err" || fail "stderr does not start with '$prefix'"
if grep -q Traceback "$err"; then fail "a traceback on stderr"; fi
for f in ${absent[@]+"${absent[@]}"}; do
  [ ! -e "$f" ] || fail "$f was written"
done
