#!/usr/bin/env bash
# Builds the benchmark program from source and runs it with the given
# arguments. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload oltp-skewed --seed 42 --seconds 20 --trace 0
#
# Every file the build writes (binary, Go build cache, Go's config and
# module directories) lands under .bench_build/ in the checkout, or under
# $CARGO_TARGET_DIR when that is set.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of the checkout" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out"

export GOCACHE="$out/go-cache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -buildvcs=false -trimpath -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
