#!/usr/bin/env bash
# test-by-name.sh PACKAGE PATTERN [GO TEST FLAGS...]
#
# Runs `go test FLAGS PACKAGE -run PATTERN`, first failing unless every
# |-separated alternative of PATTERN names at least one test of PACKAGE.
# Plain `go test -run` prints "[no tests to run]" and exits 0 when nothing
# matches, so without the check a renamed test turns a step that selects
# tests by name into a silent pass.
set -euo pipefail
pkg=$1
pattern=$2
shift 2
tests=$(go test -list . "$pkg" | grep -E '^(Test|Example|Fuzz)')
status=0
IFS='|' read -ra alts <<< "$pattern"
for alt in "${alts[@]}"; do
	if ! grep -qE -- "$alt" <<< "$tests"; then
		echo "test-by-name.sh: no test in $pkg matches '$alt'" >&2
		status=1
	fi
done
if [ "$status" -ne 0 ]; then
	exit "$status"
fi
exec go test "$@" "$pkg" -run "$pattern"
