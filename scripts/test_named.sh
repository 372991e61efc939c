#!/bin/sh
# go test with a -run filter that has to match something. `go test -run`
# exits 0 when the pattern matches no test, so a renamed or moved test
# silently drops out of a CI step that names it; this wrapper fails the
# step instead. Arguments pass through to `go test` unchanged.
out="$(go test "$@" 2>&1)"
status=$?
printf '%s\n' "$out"
[ "$status" -eq 0 ] || exit "$status"
case "$out" in
*"[no tests to run]"*)
  echo "test_named: a -run filter matched no test in: go test $*" >&2
  exit 1
  ;;
esac
