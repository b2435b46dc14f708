#!/bin/sh
# Prints the repo's size as every [simplicity] PR and ROADMAP re-anchor
# quotes it: non-test Go lines outside bench/ (the benchmark harness is
# counted separately, by bench/README.md).
cd "$(dirname "$0")/.."
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -print0 | xargs -0 cat | wc -l
