#!/bin/sh
# Builds the benchmark driver from source in this checkout (release
# profile, build tree .bench_build/) and runs it.
#
#   sh perf/run.sh --workload W --seed N --seconds S --trace 0|1
#   sh perf/run.sh [--seed N] [--seconds S]   every workload, one process each
#
# The last stdout line of a workload run is its JSON result.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib/testgen ]; then
  echo "perf/run.sh: library sources not found; run from a full checkout" >&2
  exit 2
fi
export DUNE_BUILD_DIR=.bench_build
export DUNE_CACHE=disabled
dune build --root . --profile release -j 2 --display quiet ./perf/pfi_perf.exe >&2
exe=.bench_build/default/perf/pfi_perf.exe
case " $* " in
  *" --workload "*|*" --smoke "*|*" --list "*) exec "$exe" "$@" ;;
esac
status=0
for w in $("$exe" --list); do
  "$exe" --workload "$w" "$@" || status=1
done
exit $status
