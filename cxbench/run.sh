#!/usr/bin/env bash
# Builds cxrpq-serve and the cxbench command from the checkout's sources, then
# runs one benchmark workload. Run from the repository root:
#
#   bash cxbench/run.sh --workload read-hot --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, temporary files and run artifacts stay
# under $CARGO_TARGET_DIR (default .bench_build) inside the checkout; the
# build uses only the local toolchain and fetches nothing.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp" "$out/config"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off

if [ ! -f go.mod ] || [ ! -d cmd/cxrpq-serve ]; then
	echo "cxbench: run from the root of a cxrpq source checkout" >&2
	exit 2
fi
go build -o "$out/cxbench/cxrpq-serve" ./cmd/cxrpq-serve
(cd cxbench && go build -o "$out/cxbench/cxbench" .)
exec "$out/cxbench/cxbench" -server "$out/cxbench/cxrpq-serve" -work "$out/cxbench/work" -root . "$@"
