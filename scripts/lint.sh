#!/usr/bin/env bash
# Static-analysis gate, the local mirror of CI's static-analysis job:
#
#   1. uerlvet (cmd/uerlvet) over the whole module — the repo's own
#      go/analysis-style suite checking the //uerl: contract surface:
#      determinism, hotpath allocations, concurrency (Decider coverage,
#      guarded-by/restrict-to fields), floating-point reduction order,
#      plus shadow/unusedwrite/nilness. Must be clean.
#   2. A self-check that uerlvet still *fails* on every analyzer's
#      testdata fixtures — if an analyzer silently stops firing, the
#      clean ./... run above would pass vacuously.
#   3. govulncheck, when installed (CI installs it; locally optional).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== uerlvet ./... =="
go run ./cmd/uerlvet ./...

# Explicit passes over the declared-deterministic serving layers, so each
# stays covered even if the module-wide run above is ever narrowed. The
# marker grep fails loudly if a package drops its //uerl:deterministic
# declaration, which would silently exempt it from the determinism
# analyzers. One row per layer: name, packages to vet, marker file.
#   - guardrail: the budget ledger runs on telemetry time only.
#   - scenario: summaries are byte-identical across runs and GOMAXPROCS
#     (telemetry time and forked spec-seeded RNGs only).
#   - fleet: the coordinator/transport/journal decision stream is
#     byte-identical for a seed + fault schedule at any GOMAXPROCS (no wall
#     clock in failover or backoff decisions).
explicit_passes=(
  "guardrail layer|./internal/guard ./internal/evalx .|internal/guard/guard.go"
  "scenario harness|./internal/scenario|internal/scenario/spec.go"
  "fleet serving layer|./internal/fleet|internal/fleet/coordinator.go"
)
for row in "${explicit_passes[@]}"; do
  IFS='|' read -r name pkgs marker <<<"$row"
  echo "== uerlvet $name (explicit pass) =="
  # shellcheck disable=SC2086 # pkgs is a deliberate word-split list
  go run ./cmd/uerlvet $pkgs
  if ! grep -q '^//uerl:deterministic' "$marker"; then
    echo "lint: $(dirname "$marker") lost its //uerl:deterministic package marker" >&2
    exit 1
  fi
done

echo "== uerlvet fixture self-check (each must produce findings) =="
fixtures=(
  internal/analysis/determinism/testdata/src/det
  internal/analysis/hotpath/testdata/src/hot
  internal/analysis/concurrency/testdata/src/conc
  internal/analysis/fpreduce/testdata/src/fpr
  internal/analysis/vetextra/testdata/src/shadowfix
  internal/analysis/vetextra/testdata/src/unusedfix
  internal/analysis/vetextra/testdata/src/nilfix
)
for d in "${fixtures[@]}"; do
  if go run ./cmd/uerlvet "./$d" >/dev/null 2>&1; then
    echo "lint: expected uerlvet findings in $d, got none — analyzer gone dark?" >&2
    exit 1
  fi
done

echo "== govulncheck =="
if command -v govulncheck >/dev/null 2>&1; then
  govulncheck ./...
else
  echo "govulncheck not installed; skipping (CI installs and runs it)"
fi

echo "lint: OK"
