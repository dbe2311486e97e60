#!/usr/bin/env bash
# run.sh builds relacc, relaccd and the benchmark program from the
# checkout's source, then runs the benchmark with the arguments given:
#
#	bash relaccbench/run.sh --workload batch_med --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in that root (Go's build cache included), so a
# fresh checkout's first run compiles the toolchain's standard library
# and takes minutes; later runs reuse the cache.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/relacc" ] || [ ! -d "$root/cmd/relaccd" ]; then
	echo "relaccbench: run from the repository root (go.mod, cmd/relacc and cmd/relaccd not found in $root)" >&2
	exit 2
fi
build="$root/${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/bin" "$build/gocache" "$build/tmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" # the go command's config and telemetry files
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0

go build -o "$build/bin/relacc" ./cmd/relacc >&2
go build -o "$build/bin/relaccd" ./cmd/relaccd >&2
(cd "$root/relaccbench" && go build -o "$build/bin/relaccbench" .) >&2

exec "$build/bin/relaccbench" -root "$root" -build "$build" "$@"
