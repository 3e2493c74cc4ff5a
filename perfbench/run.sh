#!/usr/bin/env bash
# Builds the perfbench binary from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 12 --trace 0
#
# Every build and run artifact (Go build cache, binary, span files) lands
# under .bench_build/ in the current directory; nothing is fetched from
# the network.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/home" "$out/gocache" "$out/gopath"

export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off

(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .) >&2

exec "$out/perfbench" "$@"
