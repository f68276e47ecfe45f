#!/bin/sh
# Lint entry point (run via `make lint`).
#
# The analyzer is `psched lint` (lib/lint): an AST pass over the
# project's own sources with the project rules, the determinism audit,
# the Domain-race heuristic and the per-file invalid_arg ratchet
# against tools/lint_baseline.json (DESIGN.md section 16).  This
# wrapper builds and execs it; it needs dune.

set -u
cd "$(dirname "$0")/.."

if ! command -v dune >/dev/null 2>&1; then
  echo "lint: dune not found; psched lint is built from source with dune" >&2
  exit 1
fi

# A tree that does not build fails lint: do not silence the compiler.
dune build bin/psched.exe || exit 1
exec dune exec --no-build bin/psched.exe -- lint --json lint_report.json \
  lib bin examples test perfbench
