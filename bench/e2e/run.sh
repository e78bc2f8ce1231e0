#!/usr/bin/env bash
# Build vgbench from source, then run one benchmark invocation:
#
#   bash bench/e2e/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Run it from the repository root.  Build output goes to stderr; the
# last line on stdout is the JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: dune-project or lib/ not found; run from the root of a full checkout" >&2
  exit 2
fi
dune build --root . --display quiet ./bench/e2e/vgbench.exe >&2
exec ./_build/default/bench/e2e/vgbench.exe bench "$@"
