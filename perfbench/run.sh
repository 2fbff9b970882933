#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and
# runs one workload:
#
#   bash perfbench/run.sh --workload fleet-lossless --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build at
# the checkout root (Go caches, the binary, file-NVM temporary
# directories). Build output goes to stderr; the benchmark's last
# stdout line is its JSON result.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" XDG_CACHE_HOME="$out/home"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$here" && go build -trimpath -o "$out/perfbench" .) >&2
exec "$out/perfbench" -workdir "$out" "$@"
