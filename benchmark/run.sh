#!/usr/bin/env bash
# The one entry point the pipeline and people share: build offline, then
# hand every argument to stackbench. The exit code is 0 only if the build
# succeeded and every check passed.
#
#   bash benchmark/run.sh                                  # all five workloads, end to end
#   bash benchmark/run.sh --workload W --seed S --seconds T --trace 0|1   # one workload; what the pipeline runs
#   bash benchmark/run.sh --trace 1                        # per-layer tables + out/trace-*.json
#   bash benchmark/run.sh selftest --sets 3                # does the benchmark repeat within its bounds?
#   bash benchmark/run.sh check                            # every workload at 1/8 size, no timing
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml"
exec "$target/release/stackbench" "$@"
