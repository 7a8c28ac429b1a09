#!/usr/bin/env bash
# vet.sh — static-analysis gate for CI, run before the test steps.
#
# Three layers, each of which must pass:
#
#   1. gofmt -l over the tree (excluding testdata fixtures, which are
#      formatted but exercise deliberately odd code) must print nothing.
#   2. go vet ./... must exit 0.
#   3. diffkv-vet ./... (the project's determinism checks: wallclock,
#      globalrand, maprange, goroutine, timeunits, foreach, allowaudit — and
#      deadcode) must exit 0 — every finding either fixed or carrying a
#      reasoned //diffkv:allow directive. deadcode reports every func,
#      method, type and var in the root package or under internal/
#      unreachable from its roots: declarations in cmd/,
#      examples/scenario and benchmark/, main, init and package-level
#      var initialisers. It also reports every struct field declared
#      there that non-test code never reads, or never sets (so it
#      always holds its zero value). It never reports constants,
#      embedded, blank or tagged fields, fields reflection may touch,
#      or the methods a live type uses to implement an interface
#      (matched by method set), and test files are not callers or
#      readers. Its only allow is an accessor or field a test of live
#      behaviour reads (an observation point), the reason naming that
#      behaviour or pinned test.
#
#   4. GOARCH=arm64's listing of internal/mathx must show no fused
#      multiply-add (FMADD/FMSUB, FNMADD/FNMSUB) in the row kernels: Dot,
#      Axpy, AxpyRows, DotCols and axpy4 with its Go body; nor in
#      the polar normal samplers: RNG.Norm, RNG.LogNorm and RNG.LogNormInto,
#      whose batched body must round as the scalar ones do. They convert
#      every product explicitly, which forbids fusing it into the add
#      that follows; arm64 fuses an unconverted x*y+z and amd64 never
#      does, so the arm64 listing is where a lost conversion shows. The
#      step fails too if any of those symbols is missing from the listing.
#      GOARCH=arm64's listing of internal/quant must show no fused op at
#      all: every product its packing and page kernels add is converted.
#
# Before trusting layer 3, the script proves the gate can actually fail:
# diffkv-vet is run over the injected-violation fixture
# internal/analysis/testdata/ci_violation, which it loads typechecked as
# it loads the tree, and MUST exit 1 there (findings; 2 would be a load
# failure) with a finding from each of wallclock, globalrand, maprange,
# goroutine, timeunits and foreach. A vet binary that waves the fixture through,
# or fails it for any other reason, is broken, and the build fails
# rather than green-lighting silently.
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
selftest="$("${bindir}/diffkv-vet" internal/analysis/testdata/ci_violation 2>&1)"
code=$?
if [[ "${code}" -ne 1 ]]; then
    echo "${selftest}" >&2
    echo "vet: SELF-TEST FAILED — diffkv-vet exited ${code} on the injected-violation fixture, want 1" >&2
    echo "vet: the gate cannot be trusted; failing the build" >&2
    exit 1
fi
for check in wallclock globalrand maprange goroutine timeunits foreach; do
    if ! grep -q ": ${check}: " <<<"${selftest}"; then
        echo "${selftest}" >&2
        echo "vet: SELF-TEST FAILED — no ${check} finding on the injected-violation fixture" >&2
        echo "vet: the gate cannot be trusted; failing the build" >&2
        exit 1
    fi
done

echo "vet: diffkv-vet ./..."
if ! "${bindir}/diffkv-vet" ./...; then
    fail=1
fi

echo "vet: no fused multiply-add in the row kernels and normal samplers (GOARCH=arm64)"
kernels='Dot Axpy AxpyRows DotCols DotColsAt axpy4 axpy4Go (*RNG).Norm (*RNG).LogNorm (*RNG).LogNormInto'
if ! listing="$(GOARCH=arm64 go build -gcflags=-S ./internal/mathx 2>&1)"; then
    echo "${listing}" >&2
    echo "vet: GOARCH=arm64 go build ./internal/mathx failed" >&2
    fail=1
else
    read -ra symbols <<<"${kernels}" # no glob expansion of (*RNG)
    for k in "${symbols[@]}"; do
        if ! grep -qF "diffkv/internal/mathx.${k} STEXT" <<<"${listing}"; then
            echo "vet: mathx.${k} is missing from the GOARCH=arm64 listing" >&2
            fail=1
        fi
    done
    fused="$(awk -v kernels="${kernels}" '
        BEGIN { split(kernels, k, " "); for (i in k) want["diffkv/internal/mathx." k[i]] = 1 }
        /^[^ \t].* STEXT/ { sym = $1 }
        /\tF(N)?M(ADD|SUB)[SD]\t/ && (sym in want) { n[sym]++ }
        END { for (s in n) print s ": " n[s] " fused" }' <<<"${listing}" | sort)"
    if [[ -n "${fused}" ]]; then
        echo "${fused}" >&2
        echo "vet: a product is fused on arm64; convert it explicitly (float32(x*y) in a row kernel, float64(x*y) in a sampler)" >&2
        fail=1
    fi
fi

echo "vet: no fused multiply-add in internal/quant (GOARCH=arm64)"
qkernels='dotPacked4Go axpyPacked4Go dotPacked dotSumPacked axpyPacked dotF16 code QuantizeInto DequantizeInto DequantDot DequantAxpy DequantDotSlots DequantAxpySlots'
if ! listing="$(GOARCH=arm64 go build -gcflags=-S ./internal/quant 2>&1)"; then
    echo "${listing}" >&2
    echo "vet: GOARCH=arm64 go build ./internal/quant failed" >&2
    fail=1
else
    for k in ${qkernels}; do
        if ! grep -qF "diffkv/internal/quant.${k} STEXT" <<<"${listing}"; then
            echo "vet: quant.${k} is missing from the GOARCH=arm64 listing" >&2
            fail=1
        fi
    done
    fused="$(awk '
        /^[^ \t].* STEXT/ { sym = $1 }
        /\tF(N)?M(ADD|SUB)[SD]\t/ { n[sym]++ }
        END { for (s in n) print s ": " n[s] " fused" }' <<<"${listing}" | sort)"
    if [[ -n "${fused}" ]]; then
        echo "${fused}" >&2
        echo "vet: a product is fused on arm64 in internal/quant; convert it explicitly (float32(x*y))" >&2
        fail=1
    fi
fi

if [[ "${fail}" -ne 0 ]]; then
    echo "vet: FAILED" >&2
    exit 1
fi
echo "vet: OK"
