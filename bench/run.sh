#!/usr/bin/env bash
# Builds questperf and the two CLIs it measures, then runs questperf with the
# given flags. Run it from the repository root:
#
#   bash bench/run.sh --workload memory-sweep --seed 3 --seconds 20 --trace 0
#   bash bench/run.sh                      # every workload, both phases
#
# Every build artifact, the Go build cache and Go's temporary and config
# files stay under .bench_build/ in the repository, so a run reads and writes
# nothing outside it. The builds are not timed.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/questbench || ! -f bench/go.mod ]]; then
	echo "bench/run.sh: run from the repository root (go.mod, cmd/ and bench/ must be present)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/tmp" "$build/config" "$build/bin"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=

go build -o "$build/bin/" ./cmd/questbench ./cmd/questsim
(cd bench && go build -o "$build/questperf" ./questperf)
exec "$build/questperf" -bin "$build/bin" "$@"
