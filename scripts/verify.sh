#!/bin/sh
# Tier-1 verification: build, vet, full test suite, then the race
# detector over the concurrent packages (worker pools, fallback chain,
# solver cache, FFT plan cache, shared MatVec scratch) in short mode so
# the whole script stays a few minutes.
set -eux

go build ./...
go vet ./...
# One cache: the LRU lives in internal/rescache (Cache[K, V]); any other
# non-test file importing container/list is a hand-rolled copy.
if git ls-files '*.go' | grep -v '_test\.go$' | grep -v '^internal/rescache/' |
    xargs grep -l '"container/list"'; then
    echo "container/list imported outside internal/rescache: use rescache.Cache" >&2
    exit 1
fi
# staticcheck when available (CI pin-installs it; local runs without
# network skip it rather than fail).
if command -v staticcheck >/dev/null 2>&1; then
    staticcheck ./...
fi
go test ./...
go test -race -short ./internal/montecarlo/... ./internal/sscm/... \
    ./internal/resilience/... ./internal/mom/... ./internal/core/... \
    ./internal/fft/... ./internal/cmplxmat/... \
    ./internal/server/... ./internal/jobs/... ./internal/rescache/... \
    ./internal/telemetry/... ./internal/sweepengine/... \
    ./internal/surrogate/... ./internal/trace/... ./internal/journal/... \
    ./internal/campaign/... ./internal/cluster/... ./internal/sparams/...
# The journal and retry machinery also get a full (non-short) race pass:
# WAL replay and backoff-requeue races only show up off the fast paths.
go test -race -count=1 ./internal/journal/... ./internal/jobs/... ./internal/cluster/...
