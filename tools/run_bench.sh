#!/usr/bin/env sh
# Build the perf benchmarks in Release mode and run them, writing
# BENCH_engine.json and BENCH_sweep.json into a temporary directory. Every
# gate reads those copies; they replace the committed files at the repo
# root only after the last gate passes, so a failed run never overwrites
# the committed record. On failure the script prints where this run's
# files are.
#
# BENCH_sweep.json records the parallel-sweep experiment: fig8_halo3d
# --quick is run serially (--jobs=1) and then with all host cores, the
# printed tables are diffed (they must be byte-identical — the sweep
# executor's determinism contract), and the parallel run's JSON gains a
# speedup_vs_serial field computed from the serial wall-clock.
#
# Both runs also emit --metrics documents; the script asserts they are
# byte-identical (the metrics determinism contract) and gates them
# through `rvma_metrics check` (schema + required instruments +
# histogram + timeseries).
#
# The two timing gates (fabric throughput and recorder overhead) compare
# paired runs, because one reading against a recorded value fails on
# host phase as often as on a regression. The script extracts the base
# commit (--base=<ref>, default HEAD: the parent of an uncommitted
# change; pass HEAD~1 to gate a committed one) with `git archive`,
# builds its engine_throughput, and runs 5 alternating pairs of the
# base and this tree's binary (odd pairs run the base first, even pairs
# this tree first). It prints each run's rows and fails when the median
# this-tree/base fabric pkt/s ratio is below 0.9 or the median
# armed-recorder chain overhead of this tree's runs exceeds 5%. The
# other gates, and the published BENCH_engine.json, use this tree's run
# with the median fabric reading; its `current` and `recorder` blocks
# are informational, and no gate reads the committed copy.
#
# The flight recorder (DESIGN.md §14) gets the same treatment: arming it
# must leave the table and metrics byte-identical (serial and at
# --par-shards=8), every cell's `rvma_trace jsonl` export must be
# byte-identical serial and at --par-shards=8, the recorder-armed chain
# bench must stay within 5% of the plain run (the paired gate above),
# and BENCH_engine.json must carry the pdes_profile block (per-shard
# utilization + barrier wait/drain/completion for K=1/2/4/8).
#
# The pdes_windows block gates the lookahead-matrix payoff: the matrix
# must need >= 1.5x fewer barrier rounds than the scalar ablation on the
# 1024-rank sweep gate — a deterministic count, enforced on every host.
#
# The api row gates the rvma.h put/completion path: a steady-state
# single-packet put into a catch-all window must allocate nothing — also
# a count, enforced on every host.
#
# Usage: tools/run_bench.sh [--base=<ref>] [build-dir]
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
base_ref=HEAD
pairs=5
build_dir="$repo_root/build-bench"
for arg in "$@"; do
  case $arg in
    --base=*) base_ref=${arg#--base=} ;;
    -*)
      echo "usage: $0 [--base=<ref>] [build-dir]" >&2
      exit 2
      ;;
    *) build_dir=$arg ;;
  esac
done
base_commit=$(git -C "$repo_root" rev-parse --verify --quiet \
  "$base_ref^{commit}") || {
  echo "ERROR: --base=$base_ref names no commit" >&2
  exit 2
}

cmake -B "$build_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Release
cmake --build "$build_dir" --target engine_throughput fig8_halo3d \
  rvma_metrics rvma_run rvma_trace -j "$(nproc)"

out_dir=$(mktemp -d)
tmp_dir=$(mktemp -d)
engine_json="$out_dir/BENCH_engine.json"
sweep_json="$out_dir/BENCH_sweep.json"
on_exit() {
  status=$?
  rm -rf "$tmp_dir"
  if [ "$status" -ne 0 ]; then
    echo "run_bench.sh failed; the files this run wrote (pair<N>_base" \
      "and pair<N>_change engine_throughput readings, and" \
      "BENCH_engine.json and BENCH_sweep.json if it got that far) are" \
      "in $out_dir (the committed files are unchanged)" >&2
  fi
}
trap on_exit EXIT

# bench_value FILE NAME: the last "NAME": number in FILE (the "current"
# block's reading; the first match of a chain/fanout/fabric name is the
# seed baseline).
bench_value() {
  sed -n "s/.*\"$2\": \(-\{0,1\}[0-9.]*\).*/\1/p" "$1" | tail -n 1
}
# median: the median of the numbers on stdin, one a line.
median() {
  sort -g | awk '{ v[NR] = $1 }
    END { if (NR % 2) print v[(NR + 1) / 2]
          else print (v[NR / 2] + v[NR / 2 + 1]) / 2 }'
}

# --- Paired timing gates ------------------------------------------------
echo "paired: building engine_throughput of $base_ref ($base_commit)"
base_src="$tmp_dir/base"
mkdir "$base_src"
git -C "$repo_root" archive "$base_commit" | tar -x -C "$base_src"
cmake -B "$base_src/build" -S "$base_src" -DCMAKE_BUILD_TYPE=Release
cmake --build "$base_src/build" --target engine_throughput -j "$(nproc)"
base_bin="$base_src/build/bench/engine_throughput"
change_bin="$build_dir/bench/engine_throughput"
echo "paired: $pairs alternating pairs; rates in millions per second," \
  "paper_s = the 8,192-rank cell's simulate seconds"
printf '%-4s %-6s %6s %6s %6s %6s %6s %7s %8s %8s %9s\n' pair side \
  chain fanout fabric incast api paper_s rec_ch% rec_fab% fab_ratio
pair=1
while [ "$pair" -le "$pairs" ]; do
  if [ $((pair % 2)) -eq 1 ]; then order="base change"
  else order="change base"; fi
  for side in $order; do
    if [ "$side" = base ]; then bin=$base_bin; else bin=$change_bin; fi
    "$bin" "$out_dir/pair${pair}_$side.json" \
      > "$out_dir/pair${pair}_$side.txt"
  done
  awk -v r="$(bench_value "$out_dir/pair${pair}_change.json" \
      fabric_packets_per_sec)" \
    -v b="$(bench_value "$out_dir/pair${pair}_base.json" \
      fabric_packets_per_sec)" \
    'BEGIN { printf "%.4f\n", r / b }' >> "$tmp_dir/fabric_ratios"
  bench_value "$out_dir/pair${pair}_change.json" chain_overhead_pct \
    >> "$tmp_dir/rec_overheads"
  for side in base change; do
    f="$out_dir/pair${pair}_$side.json"
    for name in chain_events_per_sec fanout_events_per_sec \
      fabric_packets_per_sec incast_packets_per_sec api_messages_per_sec
    do
      bench_value "$f" "$name"
    done | awk -v p="$pair" -v s="$side" '
      { printf (NR == 1 ? "%-4s %-6s " : ""), p, s; printf "%6.2f ", $1 / 1e6 }'
    printf '%7s %8s %8s %9s\n' "$(bench_value "$f" sim_seconds)" \
      "$(bench_value "$f" chain_overhead_pct)" \
      "$(bench_value "$f" fabric_overhead_pct)" \
      "$([ "$side" = change ] && tail -n 1 "$tmp_dir/fabric_ratios")"
  done
  pair=$((pair + 1))
done
ratio=$(median < "$tmp_dir/fabric_ratios")
overhead=$(median < "$tmp_dir/rec_overheads")
if ! awk -v r="$ratio" 'BEGIN { exit !(r >= 0.9) }'; then
  echo "ERROR: median fabric pkt/s ratio $ratio < 0.9 against" \
    "$base_ref over $pairs pairs" >&2
  exit 1
fi
echo "paired fabric gate: median ratio $ratio vs $base_ref" \
  "over $pairs pairs (>= 0.9)"
# An armed recorder must not slow the event loop: the chain bench rerun
# with a recorder attached has to stay within 5% of the plain run
# (negative deltas are timing noise and pass).
if ! awk -v o="$overhead" 'BEGIN { exit !(o <= 5.0) }'; then
  echo "ERROR: median recorder-armed chain overhead ${overhead}% > 5%" \
    "over $pairs runs" >&2
  exit 1
fi
echo "paired recorder overhead gate: median ${overhead}% over" \
  "$pairs runs (<= 5%)"
# Publish this tree's run with the median fabric reading, not the last
# or the best one.
median_pair=$(
  pair=1
  while [ "$pair" -le "$pairs" ]; do
    echo "$(bench_value "$out_dir/pair${pair}_change.json" \
      fabric_packets_per_sec) $pair"
    pair=$((pair + 1))
  done | sort -g | awk -v n="$pairs" 'NR == int((n + 1) / 2) { print $2 }')
cp "$out_dir/pair${median_pair}_change.json" "$engine_json"

# --- API allocation gate ------------------------------------------------
api_allocs=$(sed -n 's/.*"api_allocs_per_message": \([0-9.]*\).*/\1/p' \
  "$engine_json")
if [ -z "$api_allocs" ]; then
  echo "ERROR: api row missing from BENCH_engine.json" >&2
  exit 1
fi
if ! awk -v a="$api_allocs" 'BEGIN { exit !(a <= 0) }'; then
  echo "ERROR: rvma.h put path allocates: $api_allocs allocations per" \
    "message (> 0.000)" >&2
  exit 1
fi
echo "api allocation gate: $api_allocs allocations per message"

# --- Flight-recorder block presence -------------------------------------
if [ -z "$(bench_value "$engine_json" chain_overhead_pct)" ]; then
  echo "ERROR: recorder block missing from BENCH_engine.json" >&2
  exit 1
fi

# --- PDES profile presence gate -----------------------------------------
# BENCH_engine.json must carry the pdes_profile block: one row per K in
# {1,2,4,8} with per-shard utilization and barrier wait, i.e. 1+2+4+8 =
# 15 shard entries.
if ! grep -q '"pdes_profile"' "$engine_json"; then
  echo "ERROR: pdes_profile block missing from BENCH_engine.json" >&2
  exit 1
fi
util_rows=$(grep -c '"utilization_pct"' "$engine_json")
if [ "$util_rows" -ne 15 ]; then
  echo "ERROR: pdes_profile has $util_rows shard rows, expected 15" >&2
  exit 1
fi
echo "pdes profile gate: 15 per-shard rows across K=1/2/4/8"

# --- PDES windows-reduction gate ----------------------------------------
# The per-shard-pair lookahead matrix must cut barrier rounds on the
# 1024-rank sweep3d pipeline (8-group dragonfly mesh, K=8) by >= 1.5x
# versus the scalar global-minimum ablation. Window counts are pure
# functions of the event timeline and the lookahead — no wall clock
# involved — so this gate is deterministic and never skipped, even on
# single-core hosts.
win_matrix=$(sed -n 's/.*"windows_matrix": \([0-9]*\).*/\1/p' \
  "$engine_json")
win_scalar=$(sed -n 's/.*"windows_scalar": \([0-9]*\).*/\1/p' \
  "$engine_json")
if [ -z "$win_matrix" ] || [ -z "$win_scalar" ]; then
  echo "ERROR: pdes_windows block missing from BENCH_engine.json" >&2
  exit 1
fi
if ! awk -v m="$win_matrix" -v s="$win_scalar" \
  'BEGIN { exit !(m > 0 && s >= 1.5 * m) }'
then
  echo "ERROR: lookahead matrix saved too few windows: $win_matrix" \
    "matrix vs $win_scalar scalar (< 1.5x reduction)" >&2
  exit 1
fi
echo "pdes windows gate: $win_matrix matrix vs $win_scalar scalar" \
  "rounds (>= 1.5x reduction)"

# --- PDES shard speedup gate --------------------------------------------
# On multi-core hosts the sharded engine must actually buy wall clock:
# the recorded K=4 row has to beat serial by >= 1.3x. Single- to
# three-core hosts cannot meaningfully parallelize 4 shards, so the gate
# skips loudly there instead of failing.
host_cores=$(nproc)
speedup_k4=$(sed -n \
  's/.*"shards": 4,.*"speedup_vs_serial": \([0-9.]*\).*/\1/p' \
  "$engine_json")
if [ "$host_cores" -ge 4 ]; then
  if [ -z "$speedup_k4" ]; then
    echo "ERROR: pdes shards=4 row missing from BENCH_engine.json" >&2
    exit 1
  fi
  if ! awk -v s="$speedup_k4" 'BEGIN { exit !(s >= 1.3) }'; then
    echo "ERROR: pdes shards=4 speedup $speedup_k4 < 1.3x on a" \
      "$host_cores-core host" >&2
    exit 1
  fi
  echo "pdes speedup gate: ${speedup_k4}x at shards=4 (>= 1.3x)"
else
  echo "pdes speedup gate: SKIPPED - host has $host_cores core(s)," \
    "need >= 4 for a meaningful shards=4 wall-clock bar" \
    "(measured ${speedup_k4:-n/a}x, informational only)"
fi

# --- Parallel sweep benchmark -------------------------------------------
jobs=$(nproc)

echo "sweep: serial run (--jobs=1)"
"$build_dir/bench/fig8_halo3d" --quick --jobs=1 \
  --json="$tmp_dir/serial.json" \
  --metrics="$tmp_dir/serial_metrics.json" > "$tmp_dir/serial.txt"
serial_wall=$(sed -n 's/.*"wall_seconds": \([0-9.]*\).*/\1/p' \
  "$tmp_dir/serial.json")

echo "sweep: parallel run (--jobs=$jobs)"
"$build_dir/bench/fig8_halo3d" --quick --jobs="$jobs" \
  --json="$sweep_json" \
  --metrics="$tmp_dir/parallel_metrics.json" \
  --serial-wall-s="$serial_wall" > "$tmp_dir/parallel.txt"

# The tables must be byte-identical regardless of job count; only the
# wall-clock/speedup footer lines and the metrics-path status line (each
# run writes its own file) may differ.
grep -v '^grid wall-clock\|^speedup vs serial\|^metrics written' \
  "$tmp_dir/serial.txt" > "$tmp_dir/serial_table.txt"
grep -v '^grid wall-clock\|^speedup vs serial\|^metrics written' \
  "$tmp_dir/parallel.txt" > "$tmp_dir/parallel_table.txt"
if ! diff -u "$tmp_dir/serial_table.txt" "$tmp_dir/parallel_table.txt"; then
  echo "ERROR: parallel sweep output differs from serial" >&2
  exit 1
fi
echo "sweep: tables identical at jobs=1 and jobs=$jobs"

# --- Metrics smoke gate -------------------------------------------------
# The metrics documents must be byte-identical across job counts, parse
# cleanly, and contain the required instruments, a populated latency
# histogram, and sampled gauge timeseries. The fig8 grid has RDMA cells,
# so the RDMA transport's rdma.* instruments are required too.
if ! cmp -s "$tmp_dir/serial_metrics.json" "$tmp_dir/parallel_metrics.json"
then
  echo "ERROR: metrics document differs between jobs=1 and jobs=$jobs" >&2
  exit 1
fi
"$build_dir/tools/rvma_metrics" check "$tmp_dir/parallel_metrics.json" \
  fabric.packets_delivered fabric.pkt_latency_ns rvma.completions \
  engine.events_executed nic.messages_sent \
  rdma.control_messages rdma.credit_stalls rdma.handshakes_served \
  --need-histogram --need-timeseries
"$build_dir/tools/rvma_metrics" summarize "$tmp_dir/parallel_metrics.json" \
  > /dev/null
echo "metrics: documents identical, schema + instruments validated"

# --- Scenario equivalence gate ------------------------------------------
# The declarative path must be the same experiment: fig8 emits its grid
# as an rvma-scenario-grid-v1 document, rvma_run executes it, and the
# table and metrics document must be byte-identical to the bench's own
# serial run above.
echo "scenario: rvma_run replay of the emitted fig8 grid"
"$build_dir/bench/fig8_halo3d" --quick --emit-grid="$tmp_dir/fig8_grid.json" \
  > /dev/null
"$build_dir/tools/rvma_run" "$tmp_dir/fig8_grid.json" --jobs=1 \
  --metrics="$tmp_dir/scenario_metrics.json" > "$tmp_dir/scenario.txt"
grep -v '^grid wall-clock\|^speedup vs serial\|^metrics written' \
  "$tmp_dir/scenario.txt" > "$tmp_dir/scenario_table.txt"
if ! diff -u "$tmp_dir/serial_table.txt" "$tmp_dir/scenario_table.txt"; then
  echo "ERROR: rvma_run grid output differs from the fig8 bench" >&2
  exit 1
fi
if ! cmp -s "$tmp_dir/serial_metrics.json" "$tmp_dir/scenario_metrics.json"
then
  echo "ERROR: rvma_run metrics differ from the fig8 bench" >&2
  exit 1
fi
echo "scenario: rvma_run table and metrics byte-identical to the bench"

# --- Sharded-engine exactness gate --------------------------------------
# The PDES path (--par-shards=K) must be a pure wall-clock optimization
# too: replaying the same grid with 8 shards per cell must print an
# identical table and produce an identical metrics document
# (DESIGN.md §12). Both replays turn gauge sampling off
# (--metrics-period-us=0): the scenario runner runs a sampled cell on
# one shard, so with sampling on the "sharded" replay would be serial.
# --pdes-profile proves every cell ran on more than one shard. Engine
# event counts are compared too: a sharded run executes exactly the
# serial run's events.
echo "pdes: sharded replay (--par-shards=8)"
"$build_dir/tools/rvma_run" "$tmp_dir/fig8_grid.json" --jobs=1 \
  --metrics-period-us=0 \
  --metrics="$tmp_dir/unsampled_metrics.json" > "$tmp_dir/unsampled.txt"
"$build_dir/tools/rvma_run" "$tmp_dir/fig8_grid.json" --jobs=1 \
  --par-shards=8 --metrics-period-us=0 \
  --pdes-profile="$tmp_dir/pdes_profile.json" \
  --metrics="$tmp_dir/pdes_metrics.json" > "$tmp_dir/pdes.txt"
for f in unsampled pdes; do
  grep -v '^grid wall-clock\|^speedup vs serial\|^metrics written' \
    "$tmp_dir/$f.txt" > "$tmp_dir/${f}_pdes_table.txt"
done
if ! diff -u "$tmp_dir/unsampled_pdes_table.txt" \
  "$tmp_dir/pdes_pdes_table.txt"
then
  echo "ERROR: --par-shards=8 changed the rvma_run table" >&2
  exit 1
fi
if ! cmp -s "$tmp_dir/unsampled_metrics.json" "$tmp_dir/pdes_metrics.json"
then
  echo "ERROR: --par-shards=8 changed the metrics document" >&2
  exit 1
fi
pdes_runs=0
for profile in "$tmp_dir"/pdes_profile.json.run*; do
  if ! grep -q '"pdes.shard1\.' "$profile"; then
    echo "ERROR: $profile ran on one shard at --par-shards=8" >&2
    exit 1
  fi
  pdes_runs=$((pdes_runs + 1))
done
if [ "$pdes_runs" -eq 0 ]; then
  echo "ERROR: the sharded replay wrote no PDES profiles" >&2
  exit 1
fi
echo "pdes: table and metrics byte-identical at par-shards=1 and 8" \
  "($pdes_runs runs, every one sharded)"

# --- Flight-recorder exactness gate -------------------------------------
# Arming the flight recorder must change no simulation output (the spans
# are keyed purely off simulated time the run already computes,
# DESIGN.md §14): replaying the same grid with --flight-recorder must
# print an identical table and produce an identical metrics document,
# serially and at --par-shards=8 (unsampled, so the cells really shard).
echo "recorder: armed replay (--flight-recorder, serial)"
"$build_dir/tools/rvma_run" "$tmp_dir/fig8_grid.json" --jobs=1 \
  --flight-recorder="$tmp_dir/frec.rvfr" \
  --metrics="$tmp_dir/frec_metrics.json" > "$tmp_dir/frec.txt"
grep -v '^grid wall-clock\|^speedup vs serial\|^metrics written' \
  "$tmp_dir/frec.txt" > "$tmp_dir/frec_table.txt"
if ! diff -u "$tmp_dir/scenario_table.txt" "$tmp_dir/frec_table.txt"; then
  echo "ERROR: --flight-recorder changed the rvma_run table" >&2
  exit 1
fi
if ! cmp -s "$tmp_dir/scenario_metrics.json" "$tmp_dir/frec_metrics.json"; then
  echo "ERROR: --flight-recorder changed the metrics document" >&2
  exit 1
fi
if ! ls "$tmp_dir"/frec.rvfr.run* > /dev/null 2>&1; then
  echo "ERROR: armed run wrote no flight-recorder dumps" >&2
  exit 1
fi
echo "recorder: armed replay (--flight-recorder --par-shards=8)"
"$build_dir/tools/rvma_run" "$tmp_dir/fig8_grid.json" --jobs=1 \
  --par-shards=8 --metrics-period-us=0 \
  --flight-recorder="$tmp_dir/frec_pdes.rvfr" \
  --metrics="$tmp_dir/frec_pdes_metrics.json" > "$tmp_dir/frec_pdes.txt"
grep -v '^grid wall-clock\|^speedup vs serial\|^metrics written' \
  "$tmp_dir/frec_pdes.txt" > "$tmp_dir/frec_pdes_table.txt"
if ! diff -u "$tmp_dir/pdes_pdes_table.txt" "$tmp_dir/frec_pdes_table.txt"
then
  echo "ERROR: --flight-recorder at --par-shards=8 changed the table" >&2
  exit 1
fi
if ! cmp -s "$tmp_dir/pdes_metrics.json" "$tmp_dir/frec_pdes_metrics.json"
then
  echo "ERROR: --flight-recorder at --par-shards=8 changed the metrics" >&2
  exit 1
fi
echo "recorder: table and metrics byte-identical with the recorder armed"
# The spans themselves: `rvma_trace jsonl` orders records by content, so
# each cell's export must not depend on the shard count. A ring that
# overwrote records (rvma_trace warns on stderr) would void the check.
jsonl_runs=0
for serial_dump in "$tmp_dir"/frec.rvfr.run*; do
  run=${serial_dump##*.}
  for dump in "$serial_dump" "$tmp_dir/frec_pdes.rvfr.$run"; do
    "$build_dir/tools/rvma_trace" jsonl "$dump" > "$dump.jsonl" \
      2> "$dump.jsonl.err"
    if [ -s "$dump.jsonl.err" ]; then
      cat "$dump.jsonl.err" >&2
      echo "ERROR: rvma_trace jsonl warned on $dump" >&2
      exit 1
    fi
  done
  if ! cmp -s "$serial_dump.jsonl" "$tmp_dir/frec_pdes.rvfr.$run.jsonl"; then
    echo "ERROR: rvma_trace jsonl of $run differs at --par-shards=8" >&2
    exit 1
  fi
  jsonl_runs=$((jsonl_runs + 1))
done
echo "recorder: rvma_trace jsonl byte-identical at par-shards=1 and 8" \
  "($jsonl_runs runs)"

# --- Paper-scale smoke gate ---------------------------------------------
# Four 8,192-rank cells must run to completion through rvma_run inside a
# wall-time and memory budget. Construction is reported separately from
# simulation via --timing.
#  * halo3d: a fig8-style cell (torus3d-static, RVMA, serial). Budgets
#    60 s wall, 1 GiB RSS: ~100x headroom over the measured 0.4 s /
#    120 MiB, so the gate catches regressions in kind, not noise.
#  * sweep3d: the Fig 7 torus3d-static cell at 100 Gb/s with the fig7
#    motif parameters, RVMA at --par-shards=4: 3.63M executed program
#    ops from 0.52M stored ones (each octant's z-step is one loop
#    block), and 129,592 channels, each a transport record and a
#    mailbox. Peak RSS is deterministic, so its budget is the measured
#    228.6 MiB (239,665,152 bytes, Release build, 4-vCPU host) plus 10%.
#    Wall budget 60 s: it simulates in ~3.7 s on 4 cores.
#  * sweep3d_df: the paper's headline Fig 7 cell, dragonfly-adaptive at
#    2 Tb/s with the fig7 motif parameters, RVMA at --par-shards=4:
#    UGAL's Valiant group is a hash of the packet, so the sharded run
#    routes every packet as the serial one does (serially it takes
#    ~5.5 s). Budgets: 10 s wall, 5x the measured 1.9-2.0 s (Release
#    build, 4-vCPU host), and the measured peak RSS of 220.5 MiB
#    (231,215,104 bytes) plus 10%.
#  * sweep3d_rdma: the sweep3d cell's RDMA half, the heavier half of
#    perfbench's sweep3d_8192, at --par-shards=4. Its 129,592
#    buffer-negotiation handshakes run in PDES windows like the motif
#    traffic after them (serially the cell takes ~19.5 s). Budgets: 25 s
#    wall, 5x the measured 3.8-4.8 s simulate (Release build, 4-vCPU
#    host), and the measured peak RSS of 150.4 MiB (157,720,576 bytes)
#    plus 10%.
# The two sharded Sweep3D cells after the first are paper_sharded_gate
# cells: --pdes-profile must show four shards, and the table and metrics
# must cmp equal to a serial replay of the same cell.
printf '{"format": "rvma-scenario-v1", "scenario": {}}\n' \
  > "$tmp_dir/paper_cell.json"
# paper_gate NAME TOPOLOGY ROUTING TRANSPORT WALL_BUDGET_S RSS_BUDGET_BYTES
#            RVMA_RUN_FLAGS...
paper_gate() {
  name=$1 topology=$2 routing=$3 transport=$4 wall_budget=$5 rss_budget=$6
  shift 6
  echo "paper-scale: 8192-rank $topology-$routing $transport $name cell" \
    "via rvma_run"
  paper_start=$(date +%s)
  "$build_dir/tools/rvma_run" "$tmp_dir/paper_cell.json" \
    --topology="$topology" --routing="$routing" --nodes=8192 \
    --transport="$transport" --timing "$@" > "$tmp_dir/paper_$name.txt" \
    2> "$tmp_dir/paper_${name}_timing.txt"
  paper_wall=$(( $(date +%s) - paper_start ))
  cat "$tmp_dir/paper_${name}_timing.txt"
  if ! grep -q '^  packets: [1-9][0-9]* injected' "$tmp_dir/paper_$name.txt"
  then
    echo "ERROR: 8192-rank $name cell delivered no packets" >&2
    exit 1
  fi
  if [ "$paper_wall" -gt "$wall_budget" ]; then
    echo "ERROR: 8192-rank $name cell took ${paper_wall}s" \
      "(budget ${wall_budget}s)" >&2
    exit 1
  fi
  paper_rss=$(sed -n 's/.*peak_rss \([0-9]*\) bytes.*/\1/p' \
    "$tmp_dir/paper_${name}_timing.txt")
  if [ -n "$paper_rss" ] && [ "$paper_rss" -gt "$rss_budget" ]; then
    echo "ERROR: 8192-rank $name cell peak rss $paper_rss bytes" \
      "(budget $rss_budget bytes)" >&2
    exit 1
  fi
  echo "paper-scale: $name completed in ${paper_wall}s, peak rss" \
    "${paper_rss:-unknown} bytes (budgets: ${wall_budget}s," \
    "$rss_budget bytes)"
}
# paper_sharded_gate: paper_gate's arguments, run at --par-shards=4 and
# then replayed serially; both runs' tables and metrics must cmp equal.
paper_sharded_gate() {
  paper_gate "$@" --par-shards=4 \
    --pdes-profile="$tmp_dir/paper_$1_profile.json" \
    --metrics="$tmp_dir/paper_$1.json"
  shift 6
  if ! grep -q '"pdes.shard3\.' "$tmp_dir/paper_${name}_profile.json"; then
    echo "ERROR: the $name cell did not run on 4 shards" >&2
    exit 1
  fi
  echo "paper-scale: serial replay of the $name cell"
  "$build_dir/tools/rvma_run" "$tmp_dir/paper_cell.json" \
    --topology="$topology" --routing="$routing" --nodes=8192 \
    --transport="$transport" --par-shards=1 "$@" \
    --metrics="$tmp_dir/paper_${name}_serial.json" \
    > "$tmp_dir/paper_${name}_serial.txt"
  for run in "$name" "${name}_serial"; do
    grep -v '^metrics written' "$tmp_dir/paper_$run.txt" \
      > "$tmp_dir/paper_${run}_table.txt"
  done
  if ! cmp -s "$tmp_dir/paper_${name}_table.txt" \
    "$tmp_dir/paper_${name}_serial_table.txt"
  then
    diff -u "$tmp_dir/paper_${name}_serial_table.txt" \
      "$tmp_dir/paper_${name}_table.txt" >&2
    echo "ERROR: --par-shards=4 changed the $name cell" >&2
    exit 1
  fi
  if ! cmp -s "$tmp_dir/paper_$name.json" \
    "$tmp_dir/paper_${name}_serial.json"
  then
    echo "ERROR: --par-shards=4 changed the $name metrics" >&2
    exit 1
  fi
  echo "paper-scale: $name table and metrics identical at par-shards=1" \
    "and 4"
}
# The fig7 motif parameters; expanded unquoted, one flag per word.
fig7_motif="--motif=sweep3d --motif.nx=48 --motif.ny=48 --motif.nz=64"
fig7_motif="$fig7_motif --motif.kba=8 --motif.vars=4"
fig7_motif="$fig7_motif --motif.compute_per_cell=20ps"
paper_gate halo3d torus3d static rvma 60 1073741824 \
  --motif=halo3d --motif.nx=4 --motif.ny=4 --motif.nz=4 --motif.vars=4 \
  --motif.iterations=1 --motif.compute_per_cell=50ps
paper_gate sweep3d torus3d static rvma 60 263631667 --par-shards=4 \
  --seed=2021 $fig7_motif
paper_sharded_gate sweep3d_df dragonfly adaptive rvma 10 254336614 \
  --seed=2021 --bandwidth=2Tbps $fig7_motif
paper_sharded_gate sweep3d_rdma torus3d static rdma 25 173492633 \
  --seed=2021 $fig7_motif

# --- Motif registry completeness gate -----------------------------------
# `rvma_run --list` must name every built-in motif, including the
# rvma.h API-layer ones (remote_paging / kv_store / alltoall) — a motif
# that never registers cannot be swept by any grid.
for motif in allreduce alltoall barrier broadcast halo3d incast kv_store \
  remote_paging sweep3d
do
  if ! "$build_dir/tools/rvma_run" --list | grep -q "^  $motif "; then
    echo "ERROR: rvma_run --list does not name motif \"$motif\"" >&2
    exit 1
  fi
done
echo "registry: rvma_run --list names all 9 built-in motifs"

# --- KV-store doorbell-batching gate ------------------------------------
# The RDMAbox-style doorbell batching knob must be a pure NIC-occupancy
# optimization: --doorbell-batch=1 must reproduce the unbatched run
# byte-for-byte (table and metrics), while --doorbell-batch=8 must merge
# a strictly positive number of doorbells — and every send still crosses
# PCIe exactly once (doorbells + merged is conserved).
echo "kv: doorbell-batching ablation (kv_store, 16 nodes, 4 servers)"
printf '{"format": "rvma-scenario-v1", "scenario": {}}\n' \
  > "$tmp_dir/kv_cell.json"
kv_run() {
  "$build_dir/tools/rvma_run" "$tmp_dir/kv_cell.json" \
    --topology=fattree --nodes=16 --transport=rvma --motif=kv_store \
    --motif.servers=4 --motif.requests=64 --motif.outstanding=4 "$@"
}
kv_run --metrics="$tmp_dir/kv_plain.json" > "$tmp_dir/kv_plain.txt"
kv_run --doorbell-batch=1 --metrics="$tmp_dir/kv_b1.json" \
  > "$tmp_dir/kv_b1.txt"
kv_run --doorbell-batch=8 --metrics="$tmp_dir/kv_b8.json" \
  > "$tmp_dir/kv_b8.txt"
sed 's/^metrics written.*//' "$tmp_dir/kv_plain.txt" > "$tmp_dir/kv_plain.flt"
sed 's/^metrics written.*//' "$tmp_dir/kv_b1.txt" > "$tmp_dir/kv_b1.flt"
if ! diff -u "$tmp_dir/kv_plain.flt" "$tmp_dir/kv_b1.flt" \
  || ! cmp -s "$tmp_dir/kv_plain.json" "$tmp_dir/kv_b1.json"
then
  echo "ERROR: --doorbell-batch=1 changed the kv_store run" >&2
  exit 1
fi
kv_doorbells() { sed -n 's/.*"nic.doorbells": *\([0-9]*\).*/\1/p' "$1"; }
kv_merged() {
  sed -n 's/.*"nic.doorbells_merged": *\([0-9]*\).*/\1/p' "$1"
}
db_plain=$(kv_doorbells "$tmp_dir/kv_plain.json")
db_b8=$(kv_doorbells "$tmp_dir/kv_b8.json")
merged_b8=$(kv_merged "$tmp_dir/kv_b8.json")
if [ "$merged_b8" -le 0 ] || [ "$db_b8" -ge "$db_plain" ] \
  || [ $((db_b8 + merged_b8)) -ne "$db_plain" ]
then
  echo "ERROR: doorbell batching broken: plain=$db_plain batch8=$db_b8" \
    "merged=$merged_b8" >&2
  exit 1
fi
kv_makespan_ms=$(sed -n 's/.*makespan: \([0-9.]*\) ms.*/\1/p' \
  "$tmp_dir/kv_plain.txt")
kv_requests=$(sed -n 's/.*"kv.requests": *\([0-9]*\).*/\1/p' \
  "$tmp_dir/kv_plain.json")
kv_rps=$(awk -v r="$kv_requests" -v ms="$kv_makespan_ms" \
  'BEGIN { printf "%d", r / (ms / 1000) }')
echo "kv gate: $db_plain doorbells unbatched vs $db_b8 at batch=8" \
  "($merged_b8 merged); $kv_requests requests in ${kv_makespan_ms} ms" \
  "= $kv_rps req/s simulated"

# Record the kv_store block in BENCH_engine.json (the engine bench wrote
# the file fresh above, so this append never duplicates).
kv_json="$tmp_dir/kv_engine.json"
sed '$d' "$engine_json" > "$kv_json"
printf ',\n  "kv_store": {"nodes": 16, "servers": 4, "requests": %s, "makespan_ms": %s, "requests_per_sec_sim": %s, "doorbells_unbatched": %s, "doorbells_batch8": %s, "doorbells_merged_batch8": %s}\n}\n' \
  "$kv_requests" "$kv_makespan_ms" "$kv_rps" \
  "$db_plain" "$db_b8" "$merged_b8" >> "$kv_json"
mv "$kv_json" "$engine_json"
echo "kv: block recorded in BENCH_engine.json"

cat "$tmp_dir/parallel.txt"

# Every gate passed: publish this run's readings as the new baseline.
cp "$engine_json" "$repo_root/BENCH_engine.json"
cp "$sweep_json" "$repo_root/BENCH_sweep.json"
rm -rf "$out_dir"
echo "wrote $repo_root/BENCH_engine.json and $repo_root/BENCH_sweep.json"
