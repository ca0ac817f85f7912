#!/usr/bin/env bash
# Builds the end-to-end benchmark program and runs it from the repository
# root with the arguments given, e.g.
#
#   bash e2ebench/run.sh --workload paper-read --seed 20061 --seconds 20 --trace 0
#
# Build outputs, the Go build and module caches, the go command's
# configuration and every data directory stay under .bench_build in the
# repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build/bin
export GOCACHE="$PWD/.bench_build/gocache"
export GOPATH="$PWD/.bench_build/gopath"
export XDG_CONFIG_HOME="$PWD/.bench_build/config"
export GOTOOLCHAIN=local
export GOFLAGS=
go -C e2ebench build -o ../.bench_build/bin/e2ebench .
exec .bench_build/bin/e2ebench "$@"
