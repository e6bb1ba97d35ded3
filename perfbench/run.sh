#!/usr/bin/env bash
# Builds the benchmark and the replica binary from this checkout's
# sources, then runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload live-n4-closed --seed 1 --seconds 20 --trace 0
#
# Everything built or written (Go build cache included) stays under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
  GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go build -o "$out/minsync-node" ./cmd/minsync-node
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -node "$out/minsync-node" -work "$out" "$@"
