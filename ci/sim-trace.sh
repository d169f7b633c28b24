#!/usr/bin/env bash
# Print the sha256 of the `spgemm trace --tiny` exports (JSONL and
# Chrome trace) over a dataset x policy x estimator matrix that reaches
# every sim kernel: symbolic_{tb,pwarp,esc,merge,global,replan} and
# numeric_{tb,pwarp,esc,merge,global}. The exports carry only logical
# and simulated clocks, so the digests pin the sim backend's whole
# device-operation sequence: kernel names, launch order, block costs,
# probe counts and telemetry events.
#
#   ci/sim-trace.sh | diff ci/sim-trace.sha256 -   # check (ci/check.sh)
#   ci/sim-trace.sh > ci/sim-trace.sha256          # re-pin after an
#                                                  # intended change
set -euo pipefail
cd "$(dirname "$0")/.."
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT
cargo build -q --release --offline -p bench --bin spgemm
for ds in QCD Protein Economics Circuit Epidemiology webbase cit-Patents; do
  for policy in hash adaptive; do
    for est in exact sampled:1; do
      name="$ds-$policy-${est/:/}"
      cargo run -q --release --offline -p bench --bin spgemm -- \
        trace --dataset "$ds" --tiny --policy "$policy" --estimator "$est" \
        --jsonl "$out/$name.jsonl" --chrome-trace "$out/$name.json" \
        >/dev/null 2>&1
    done
  done
done
cd "$out" && LC_ALL=C sha256sum -- *
