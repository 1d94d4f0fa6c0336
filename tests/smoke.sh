#!/usr/bin/env bash
# Smoke test of the installed tagmon command: it is on PATH, and it
# validates and runs a shipped scenario with the exact output expected.
# It checks only the installed entry point: every other command-line case
# is a row of tests/test_cli.py, which the tier-1 suite runs in process.
# Run it from the root of a checkout:
#
#   bash tests/smoke.sh
#
# Scratch files go to $RUNNER_TEMP, a new temporary directory by default.
# The shell options are those of a GitHub Actions bash step.
set -eo pipefail
RUNNER_TEMP=${RUNNER_TEMP:-$(mktemp -d)}
# the import cost of each tagmon module (self and cumulative us),
# logged for comparison between runs; no timing is checked
python -X importtime -c "import tagmon.cli" 2>&1 \
    | grep -E "imported package|tagmon"
command -v tagmon
tagmon validate scenarios/curfew.scenario > "$RUNNER_TEMP/validate.stdout"
echo 'scenarios/curfew.scenario: ok' | diff - "$RUNNER_TEMP/validate.stdout"
tagmon run scenarios/curfew.scenario --out "$RUNNER_TEMP/out" \
    > "$RUNNER_TEMP/run.stdout"
printf '%s\n' \
    'entity PID-9: cycles=7 absent-signal=1 compliant=5 violation=1' \
    'notifications: 2' 'first violation: t=4740' 'exit status: 0' \
    | diff - "$RUNNER_TEMP/run.stdout"
