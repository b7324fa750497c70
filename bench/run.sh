#!/usr/bin/env bash
# Builds freqload and runs it against the checkout this script sits in.
#
#   bash bench/run.sh --workload bulk-zipf --seed 7 --seconds 10 --trace 0
#
# Everything the run writes (Go caches, binaries, daemon data dirs, span
# files) stays under .bench_build/ at the checkout root. Arguments are
# passed to freqload unchanged; see bench/README.md.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/freqd" || ! -d "$root/internal" ]]; then
	echo "run.sh: $root is not a streamfreq checkout (no go.mod, cmd/freqd or internal/)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/home" "$build/tmp"
# Keep the Go toolchain's caches, config and temporary files inside the
# checkout, and never reach for the network: the module has no
# dependencies outside itself.
export TMPDIR="$build/tmp"
export GOTMPDIR="$build/tmp"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOPATH="$build/gopath"
export GOPROXY=off
export GOTOOLCHAIN=local

go -C "$root/bench" build -o "$build/bin/freqload" ./freqload
cd "$root"
exec "$build/bin/freqload" -root "$root" -build "$build" "$@"
