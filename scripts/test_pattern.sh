#!/usr/bin/env bash
# Run `go test -run PATTERN ARGS...`, but first fail if any `|`
# alternative of PATTERN names no test in the given packages — plain
# `go test -run <typo>` passes with "no tests to run", so a renamed test
# silently drops out of a CI step.
#
# usage: scripts/test_pattern.sh 'Foo|Bar' [go test flags] ./pkg/...
#
# PATTERN must be a flat alternation (no groups containing `|`).
# Packages are the arguments that start with "./".
set -euo pipefail

if [ "$#" -lt 2 ]; then
    echo "usage: $0 PATTERN [go test flags] ./pkg..." >&2
    exit 2
fi
pattern="$1"
shift
pkgs=()
for arg in "$@"; do
    case "$arg" in
    ./*) pkgs+=("$arg") ;;
    esac
done
if [ "${#pkgs[@]}" -eq 0 ]; then
    echo "$0: no ./package argument" >&2
    exit 2
fi

listed="$(go test -list "$pattern" "${pkgs[@]}" | grep -E '^(Test|Benchmark|Fuzz|Example)' || true)"
IFS='|' read -ra alternatives <<<"$pattern"
for alt in "${alternatives[@]}"; do
    if ! grep -Eq -- "$alt" <<<"$listed"; then
        echo "$0: pattern alternative '$alt' matches no test in ${pkgs[*]}" >&2
        exit 1
    fi
done

exec go test -run "$pattern" "$@"
