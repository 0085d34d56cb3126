#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh --list
#
# Run from the repository root. Every build output, cache and Go config
# write stays under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/home"

HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod CGO_ENABLED=0 \
	go -C "$root/perfbench" build -o "$out/perfbench" .

exec "$out/perfbench" "$@"
