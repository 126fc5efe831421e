#!/usr/bin/env bash
# Scenario regression harness, the local mirror of CI's
# scenario-regression job:
#
#   scripts/scenarios.sh          replay every named scenario under
#                                 scenarios/ against its committed golden
#                                 summary, uncached and under -race, then
#                                 re-run the golden/determinism tests at
#                                 GOMAXPROCS=2 to vary the scheduler shape
#   scripts/scenarios.sh update   regenerate the goldens (and canonicalize
#                                 the spec files) after an intentional
#                                 behaviour change, then verify the
#                                 regenerated goldens replay clean,
#                                 through the harness and through
#                                 uerlserve
#
# The goldens are byte-exact: a diff means either nondeterminism in the
# compile→serve→score pipeline (a bug — fix it) or an intentional change
# to scenario semantics (regenerate with `update` and review the golden
# diff like code).
set -euo pipefail
cd "$(dirname "$0")/.."

if [[ "${1:-}" == "update" ]]; then
  echo "== regenerating scenario goldens =="
  go test -count=1 -run 'TestScenarioGoldens' ./internal/scenario -update
  git --no-pager diff --stat -- scenarios/ || true
fi

echo "== scenario goldens + determinism + adversarial e2e (race, uncached) =="
go test -race -count=1 -run 'TestScenario|TestAdversarial|TestRowhammer' ./internal/scenario

echo "== uerlserve replays every golden (race, uncached) =="
go test -race -count=1 ./cmd/uerlserve

echo "== scenario goldens at GOMAXPROCS=2 =="
GOMAXPROCS=2 go test -race -count=1 -run 'TestScenarioGoldens|TestScenarioDeterminism' ./internal/scenario

echo "scenarios: OK"
