#!/bin/sh
# Builds the benchmark inside this directory and runs it with the given
# flags. The Go build cache, temporary files and the toolchain's own
# bookkeeping are kept under .build/ too, so a run reads and writes nothing
# outside its checkout; the first run in a checkout compiles the standard
# library and takes about half a minute.
set -e
cd "$(dirname "$0")"
mkdir -p .build/tmp .build/home
HOME="$PWD/.build/home" XDG_CONFIG_HOME="$PWD/.build/home" GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local \
	GOCACHE="$PWD/.build/gocache" GOPATH="$PWD/.build/gopath" GOTMPDIR="$PWD/.build/tmp" \
	go build -o .build/bench .
exec .build/bench "$@"
