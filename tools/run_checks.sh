#!/usr/bin/env bash
# One-shot local gate: tier-1 tests, the invariant linter, the whole-program
# analyzer, the docs gate (links, dotted paths and API-reference
# freshness), the repro-serve smoke, the cross-process claims smoke, and
# (when installed) the strict typing gate — the same jobs CI runs.
#
#   ./tools/run_checks.sh
#
# Exits non-zero on the first failing check.

set -u

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
cd "$ROOT"

export PYTHONPATH="$ROOT/src${PYTHONPATH:+:$PYTHONPATH}"

failures=0

run() {
    echo
    echo "== $*"
    if "$@"; then
        echo "-- ok"
    else
        echo "-- FAILED: $*"
        failures=$((failures + 1))
    fi
}

run python -m pytest -x -q
run python -m repro.lint src/repro
run python -m repro.analyze check --baseline tools/analyze_baseline.json src/repro
run python tools/check_docs.py

api_fresh() {
    local generated
    generated="$(mktemp "${TMPDIR:-/tmp}/API.XXXXXX.md")" || return 1
    python tools/gen_api_docs.py --output "$generated" >/dev/null \
        && diff -u docs/API.md "$generated"
    local status=$?
    rm -f "$generated"
    return "$status"
}
run api_fresh

run python tools/serve_smoke.py
run python tools/claims_smoke.py

if python -c "import mypy" >/dev/null 2>&1; then
    run python -m mypy --strict src/repro
else
    echo
    echo "== mypy --strict src/repro"
    echo "-- skipped (mypy not installed; pip install -e .[dev])"
fi

echo
if [ "$failures" -ne 0 ]; then
    echo "run_checks: $failures check(s) failed"
    exit 1
fi
echo "run_checks: all checks passed"
