#!/bin/sh
# Builds the perfbench program from this checkout and runs it with the
# given arguments (see perfbench/README.md). Run from the repository
# root. Every build product and temporary file stays under
# .bench_build/ in the working directory.
set -eu

if [ ! -f go.mod ] || [ ! -d cmd/motifserve ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the root of a trajmotif checkout (go.mod, cmd/motifserve and perfbench/ must be present)" >&2
	exit 2
fi

root=$(pwd)
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOWORK=off
mkdir -p "$root/.bench_build/bin"

(cd perfbench && go build -o "$root/.bench_build/bin/perfbench" .)
exec "$root/.bench_build/bin/perfbench" "$@"
