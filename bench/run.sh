#!/usr/bin/env bash
# Build the benchmark and become it. This is the `command` of BENCHMARK.json:
#
#   bash bench/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#
# Everything the build writes stays under .bench_build in the checkout: the
# binary, the go build cache, and a config directory that switches the go
# command's telemetry off so that it starts no upload child. The binary is
# reached by exec, never `go run`: go run does not forward SIGTERM and
# would leave its child behind.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out="$root/.bench_build"
mkdir -p "$out/config/go/telemetry"
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/gdbe2e" ./bench

# stat_of PID sets comm and pgrp from /proc/PID/stat; it fails if PID is gone.
stat_of() {
	local stat rest
	{ read -r stat <"/proc/$1/stat"; } 2>/dev/null || return 1
	rest=${stat##*) }
	set -- $rest
	pgrp=$3
	comm=${stat#*(}
	comm=${comm%)*}
}

# The go command has returned, but a helper it started may outlive it by a
# moment. Wait until none is left in this process group, so that after the
# exec the group holds the benchmark alone.
stat_of $$
mine=$pgrp
for _ in $(seq 1 100); do
	left=0
	for p in /proc/[0-9]*; do
		stat_of "${p#/proc/}" || continue
		[ "$pgrp" = "$mine" ] || continue
		case "$comm" in
		go | compile | link | asm | cgo | vet | buildid | cover | pack) left=1 ;;
		esac
	done
	[ "$left" = 0 ] && break
	sleep 0.05
done

exec "$out/gdbe2e" "$@"
