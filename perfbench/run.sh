#!/usr/bin/env bash
# Builds the benchmark and the mcc libraries it links from source, then
# runs it from the root of the checkout:
#
#   bash perfbench/run.sh --workload cold-build|run-heavy|edit-session \
#        --seed N --seconds S --trace 0|1
#   bash perfbench/run.sh --self-test
#
# Build output goes to stderr, so the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib/core ]; then
  echo "perfbench: the mcc sources (dune-project, lib/) are not next to perfbench/" >&2
  exit 2
fi
DUNE_CACHE=disabled dune build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
