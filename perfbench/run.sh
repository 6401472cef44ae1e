#!/usr/bin/env bash
# Build the benchmark from the sources of this checkout and run it.
#
#   bash perfbench/run.sh --workload campaign|fuzz|shrink|serve \
#       --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout.  Build output goes to stderr; the last
# line of stdout is the result object.  Outside a source checkout (no
# dune-project or lib/) it fails without printing a result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: $(pwd) is not a source checkout of the repository" >&2
  exit 2
fi
# keep every build artefact inside the checkout
export DUNE_CACHE=disabled
dune build --root . perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
