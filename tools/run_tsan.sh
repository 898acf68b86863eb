#!/usr/bin/env sh
# Build the concurrency-sensitive tests under ThreadSanitizer and run
# them. Any reported data race fails the script (TSan exits non-zero).
#
# Covers the parallel sweep machinery: the SweepExecutor pool itself,
# the jobs=N vs jobs=1 grid determinism (which exercises concurrent
# Cluster/Engine runs), the fabric tests (static next-hop resolver), the
# NIC admission/drain path, the
# scenario-layer tests (registry materialization plus the rvma_run grid
# replay, which fans cells out over the executor), and the PDES tests (the ShardedEngine's
# window barriers, cross-shard SPSC channels, and the windowed-vs-serial
# exactness runs, which exercise the full multi-threaded shard path,
# RDMA handshakes and sockets connects included),
# the lookahead-matrix tests (per-destination windows, unreachable-pair
# handling, and windowed-vs-serial identity at K in {2,3,5}, including
# every adaptive router: dragonfly-adaptive shards with UGAL's
# content-keyed Valiant draw),
# and the flight-recorder tests (per-shard rings attached to windowed
# engines, recorded at K=1 and K=4 for the JSONL export check),
# and the rvma.h API tests (API-motif contexts driven from shard threads:
# per-rank endpoint state, cross-shard puts/gets, and the serial-vs-
# sharded identity runs for remote_paging / kv_store / alltoall).
#
# Usage: tools/run_tsan.sh [build-dir]
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build_dir=${1:-"$repo_root/build-tsan"}

cmake -B "$build_dir" -S "$repo_root" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo -DRVMA_SANITIZE=thread
cmake --build "$build_dir" --target \
  test_sweep_executor test_sweep_determinism test_fabric_features \
  test_routing_algebra test_nic test_obs \
  test_scenario test_pdes test_pdes_matrix test_flight_recorder \
  test_api -j "$(nproc)"

for test in test_sweep_executor test_sweep_determinism test_fabric_features \
  test_routing_algebra test_nic test_obs \
  test_scenario test_pdes test_pdes_matrix test_flight_recorder test_api
do
  echo "== tsan: $test =="
  "$build_dir/tests/$test"
done
echo "tsan: all clean"
