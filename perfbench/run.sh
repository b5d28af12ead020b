#!/usr/bin/env bash
# Builds cpackd and the perfbench command from the sources of the
# checkout, then runs perfbench. Run it from the repository root:
#
#   bash perfbench/run.sh --workload hits-large --seed 1 --seconds 22 --trace 0
#
# Binaries, the Go build cache and the servers' temporary logs stay under
# .bench_build/ in the checkout. Build output goes to stderr, so the last
# line of stdout is the benchmark's JSON summary.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/bin" "$out/gotmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "$out/bin/cpackd" ./cmd/cpackd >&2
go build -C perfbench -o "$out/bin/perfbench" . >&2
exec "$out/bin/perfbench" -cpackd "$out/bin/cpackd" "$@"
