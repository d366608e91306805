#!/usr/bin/env bash
# Builds chatlsd and the harness from the checkout this script sits in, then
# runs the harness. Everything the build and the run write stays under
# bench/.build and bench/out. Fails (non-zero, no result line) when the
# repository sources are missing.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$here/.build"
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOFLAGS= GOTOOLCHAIN=local GOWORK=off
export XDG_CONFIG_HOME="$build/config"
# With a config directory it has not seen before, the go command detaches a
# telemetry child that outlives it (and this script, when the build fails
# fast). Telemetry off: the go command starts nothing but compilers.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off > "$XDG_CONFIG_HOME/go/telemetry/mode"

(cd "$root" && go build -o "$build/bin/chatlsd" ./cmd/chatlsd) >&2
(cd "$here" && go build -o "$build/bin/harness" .) >&2

exec "$build/bin/harness" -chatlsd "$build/bin/chatlsd" -tmp "$build/tmp" -out "$here/out" "$@"
