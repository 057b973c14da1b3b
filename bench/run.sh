#!/usr/bin/env bash
# Builds the benchmark and the aptserve binary from this checkout, then runs
# the benchmark with the given flags. Run it from the repository root:
#
#	bash bench/run.sh -workload scale-10k -seed 7 -seconds 24 -trace 0
#
# Every build product, the Go build cache, the go command's own state
# (GOPATH, telemetry under XDG_CONFIG_HOME) and trace files stay under
# .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/aptserve" || ! -f "$root/bench/go.mod" ]]; then
	echo "bench: run from the repository root (go.mod, cmd/aptserve and bench/ are required)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C "$root/bench" build -o "$out/bin/bench" .
go build -o "$out/bin/aptserve" ./cmd/aptserve

exec "$out/bin/bench" -root "$root" -aptserve "$out/bin/aptserve" "$@"
