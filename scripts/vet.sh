#!/usr/bin/env bash
# vet.sh — static-analysis gate for CI, run before the test steps.
#
# Three layers, each of which must pass:
#
#   1. gofmt -l over the tree (excluding testdata fixtures, which are
#      formatted but exercise deliberately odd code) must print nothing.
#   2. go vet ./... must exit 0.
#   3. diffkv-vet ./... (the project's determinism checks: wallclock,
#      globalrand, maprange, goroutine, timeunits, allowaudit — and
#      deadcode) must exit 0 — every finding either fixed or carrying a
#      reasoned //diffkv:allow directive. deadcode reports every func,
#      method, type and var under internal/ unreachable from its roots:
#      declarations outside internal/ (root package, cmd/, examples/,
#      benchmark/), main, init and package-level var initialisers. It
#      never reports constants, struct fields or methods that may
#      satisfy an interface, and test files are not callers. Its only
#      allow is an accessor a test of live behaviour reads (an
#      observation point), the reason naming that behaviour.
#
# Before trusting layer 3, the script proves the gate can actually fail:
# diffkv-vet is run over the injected-violation fixture
# internal/analysis/testdata/ci_violation and MUST exit non-zero there.
# A vet binary that waves the fixture through is broken, and the build
# fails rather than green-lighting silently.
#
# Usage: scripts/vet.sh

set -uo pipefail
cd "$(dirname "$0")/.."

fail=0

echo "vet: gofmt"
unformatted="$(gofmt -l . | grep -v '/testdata/' || true)"
if [[ -n "${unformatted}" ]]; then
    echo "vet: gofmt needed on:" >&2
    echo "${unformatted}" >&2
    fail=1
fi

echo "vet: go vet ./..."
if ! go vet ./...; then
    fail=1
fi

echo "vet: building diffkv-vet"
bindir="$(mktemp -d)"
trap 'rm -rf "${bindir}"' EXIT
if ! go build -o "${bindir}/diffkv-vet" ./cmd/diffkv-vet; then
    echo "vet: diffkv-vet does not build" >&2
    exit 1
fi

echo "vet: self-test (injected violations must fail the gate)"
if "${bindir}/diffkv-vet" internal/analysis/testdata/ci_violation >/dev/null 2>&1; then
    echo "vet: SELF-TEST FAILED — diffkv-vet exited 0 on the injected-violation fixture" >&2
    echo "vet: the gate cannot be trusted; failing the build" >&2
    exit 1
fi

echo "vet: diffkv-vet ./..."
if ! "${bindir}/diffkv-vet" ./...; then
    fail=1
fi

if [[ "${fail}" -ne 0 ]]; then
    echo "vet: FAILED" >&2
    exit 1
fi
echo "vet: OK"
