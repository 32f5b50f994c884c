#!/usr/bin/env bash
# Builds perfbench and the vpackd daemon from the checkout's sources,
# then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload suite-cold --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export GOWORK=off
export GOTOOLCHAIN=local
export GOFLAGS=

go build -C "$root/perfbench" -o "$build/perfbench" .
go build -o "$build/vpackd" ./cmd/vpackd
exec "$build/perfbench" -build "$build" "$@"
