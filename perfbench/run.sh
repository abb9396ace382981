#!/usr/bin/env bash
# Builds perfbench from the sources of the checkout it is run in, then
# runs it with the given arguments. Run it from the checkout's root:
#
#   bash perfbench/run.sh --workload sim-churn --seed 1 --seconds 24 --trace 0
#
# Everything the build writes (binary, build cache, temporary files) goes
# under $CARGO_TARGET_DIR, or .bench_build when that is unset.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a checkout of the repository (go.mod, internal/ and perfbench/ not found)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp" "$out/config"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
