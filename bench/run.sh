#!/bin/sh
# Driver entry point (BENCHMARK.json "command"): build the benchmark from the
# checkout's source into .bench_build/, then run it from the checkout's root
# with the driver's flags. Everything the build writes (binary, Go build
# cache, module and toolchain state) stays inside the checkout.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
(
	cd "$root/bench"
	GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
		GOTOOLCHAIN=local GOWORK=off GOFLAGS= \
		go build -o "$out/terradir-bench" .
)
cd "$root"
exec "$out/terradir-bench" "$@"
