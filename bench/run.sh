#!/usr/bin/env bash
# Builds ksym, ksymd and the benchmark harness from the checkout this is
# run in, then runs one workload. Run it from the repository root:
#
#   bash bench/run.sh --workload paper-exact --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build) in the current directory.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build=$root/$build ;; esac

# The go command's cache, temporary files, module path and config
# directory (where it keeps telemetry counters) all stay in $build.
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath XDG_CONFIG_HOME=$build/config
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
mkdir -p "$build/bin" "$GOTMPDIR"

(cd "$root/bench" && go build -o "$build/bin/" ksymmetry/cmd/ksym ksymmetry/cmd/ksymd .) >&2

exec "$build/bin/bench" -bin "$build/bin" -work "$build/run" "$@"
