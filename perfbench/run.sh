#!/usr/bin/env bash
# Builds the benchmark and usrepro from the source in the current
# directory (the repository root) and runs one benchmark workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write goes under .bench_build/perfbench.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/usrepro" ]]; then
	echo "run.sh: run from the repository root (no go.mod or cmd/usrepro here)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
# Keep the toolchain's caches and its telemetry counters (kept under
# the user config directory) inside the checkout too.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/pkg/mod" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false GOENV=off
go build -o "$out/usrepro" ./cmd/usrepro >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -root "$root" -bin "$out" "$@"
