#!/usr/bin/env bash
# Tier-1 verification gate for the caf-audit reproduction.
#
# Mirrors what reviewers run before merging: formatting, a std-only
# gate (`cargo metadata` must list no registry package), a layering
# gate (`caf-serve` must not depend on `caf-bench`), an offline
# release build, the full test suite offline (unit + integration +
# doc), clippy at deny-warnings across every target (lib, bins,
# benches, tests), a rustdoc gate (`cargo doc --no-deps --workspace`
# at `-D warnings`: no broken or private intra-doc link), the cold-path equivalence suite at two different
# worker-pool shapes, a world-bench run whose `BENCH_world.json` must pass the caf-obs
# schema gate (and, on hosts with >= 4 cores, the shard scheduler's
# 4-worker speedup gate plus the >= 1.3x bootstrap speedup gate), a
# campaign bench smoke whose `BENCH_campaign.json` must pass the schema
# gate (with the campaign speedup gate on >= 4 cores) and which
# self-asserts checkpoint resume equality, a checkpoint/resume smoke
# that SIGKILLs a `campaign_run` mid-flight and byte-diffs the resumed
# result against an uninterrupted reference, a torn-tail gate that
# holds a finished checkpoint log to at most 32 bytes per task, cuts its
# last 13 bytes and byte-diffs the resumed result the same way, an observability smoke run (a tiny repro
# experiment whose run report must pass the full metrics_check gate), a
# Q3 on-demand gate (`repro table2` must draw no Q3 state and `repro
# table4` all seven, read off `caf.synth.q3.states_built`), a CAF-Map
# on-demand gate (`repro table2 table3 table4 fig9 ext-oversight` must
# build no USAC record, read off `caf.synth.usac.records_built`), a
# paper-scale peak gate (`repro validate --scale 1 --workers 2` must
# peak under 1 GiB, read off `caf.process.peak_rss_kb`), a
# one-budget gate (`repro table2 table4 --workers 1` must record no
# `caf.exec.worker.*` gauge: no pool, BQT campaigns included), a
# repro output gate (every listed experiment but `dump` and `validate`
# must print exactly the committed `repro_output.txt` up to its dump
# section), and the serving-layer gate: `caf-serve` is started on an
# ephemeral port at two HTTP worker counts, its `/v1/table2` response is
# byte-compared against the golden artifact the same repro run wrote,
# its `/v1/debug/traces` flight recorder must show the request's span
# path (route -> cache lookup -> render), its `/metrics` report must
# pass the full metrics_check gate including the per-route SLO burn
# gate, its Prometheus exposition must render, and it must shut down
# cleanly via `/quitquitquit` (a leaked thread or hung process fails
# the gate). The snapshot restart gate boots a server with
# `--snapshot-dir`, advances three challenge epochs, snapshots, and
# restarts: the restarted server must report the snapshot loaded and
# serve byte-identical `/v1/table2` bytes at epoch 0 and epoch 3 (plus
# `/v1/serviceability?isp=Frontier` and `/v1/compliance?q3_scale=12`
# warm vs cold), then take a fourth challenge batch on the restored
# world whose epoch-4 `/v1/table2` must equal a cold server's fed the
# same four batches, and
# (on >= 4 cores) the in-process restore must be >= 10x faster than the
# cold first-200 wall. The challenge-replay gate runs the committed
# sample delta stream through `challenge_replay` in incremental and
# full mode and byte-compares the artifact sets (the epoch-versioned
# incremental-recompute determinism contract), and the challenge bench
# smoke validates `BENCH_challenge.json` (with the >= 5x incremental
# speedup gate on hosts with >= 4 cores). The sweep determinism gate
# runs the release `caf-sweep` binary over the committed
# `testdata/sweep_spec.json` at 1, 2 and 4 workers and byte-compares
# the 2- and 4-worker results.json/results.csv emissions against the
# 1-worker reference (the grid-cell determinism contract), and the
# sweep bench smoke validates
# `BENCH_sweep.json` (with the >= 1.0x 4-worker sweep speedup gate on
# hosts with >= 4 cores). A supply-chain check
# (`cargo deny`) runs when the tool is installed, and the script fails
# if any gate left the git worktree dirtier than it found it. A
# per-gate wall-clock summary is printed just before the final
# all-passed line.
#
# All generated reports/artifacts land in $CAF_CI_OUT (a temp dir by
# default; CI sets it to a workspace path and uploads it), never in
# tracked files.
#
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

# Snapshot worktree state up front: the final gate asserts that no CI
# step modified tracked files (e.g. a bench overwriting its committed
# baseline).
status_before=""
if command -v git >/dev/null && git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  status_before=$(git status --porcelain)
fi

ci_out=${CAF_CI_OUT:-}
cleanup_out=""
if [ -z "$ci_out" ]; then
  ci_out=$(mktemp -d /tmp/caf_ci.XXXXXX)
  cleanup_out="$ci_out"
fi
mkdir -p "$ci_out"
serve_pid=""
cleanup() {
  if [ -n "$serve_pid" ] && kill -0 "$serve_pid" 2>/dev/null; then
    kill -9 "$serve_pid" 2>/dev/null || true
  fi
  if [ -n "$cleanup_out" ]; then
    rm -rf "$cleanup_out"
  fi
}
trap cleanup EXIT

# Per-gate wall-clock accounting: `gate NAME` closes the previous
# gate's clock, starts a new one, and prints the usual `==>` marker.
# `gate_summary` (called just before the final all-passed line) flushes
# the last gate and prints the whole table, so slow gates are obvious
# from the log without timestamp archaeology.
gate_names=()
gate_ms=()
current_gate=""
gate_started_ns=0
gate_close() {
  if [ -n "$current_gate" ]; then
    gate_names+=("$current_gate")
    gate_ms+=($(( ($(date +%s%N) - gate_started_ns) / 1000000 )))
    current_gate=""
  fi
}
gate() {
  gate_close
  current_gate="$1"
  gate_started_ns=$(date +%s%N)
  echo "==> $1"
}
gate_summary() {
  gate_close
  echo "==> per-gate timing summary"
  local i
  for i in "${!gate_names[@]}"; do
    printf '    %5d.%03ds  %s\n' \
      $(( gate_ms[i] / 1000 )) $(( gate_ms[i] % 1000 )) "${gate_names[i]}"
  done
}

gate "cargo fmt --all -- --check"
cargo fmt --all -- --check

# The workspace is std-only: every package must be a path crate in
# this repository, so the build never needs a registry.
gate "std-only gate: cargo metadata lists no registry package"
metadata=$(cargo metadata --offline --format-version 1)
registry_pkgs=$(printf '%s' "$metadata" | grep -oE '"(registry|sparse)\+[^"]*"' | sort -u || true)
if [ -n "$registry_pkgs" ]; then
  echo "registry packages in the dependency graph:" >&2
  printf '%s\n' "$registry_pkgs" >&2
  exit 1
fi

# caf-serve and caf-bench are sibling front ends on the caf-core
# scenario pipeline; the server must not reach it through the harness.
gate "layering gate: caf-serve does not depend on caf-bench"
serve_deps=$(cargo tree --offline -p caf-serve -e normal --prefix none)
if grep -q '^caf-bench ' <<<"$serve_deps"; then
  echo "caf-serve depends on caf-bench:" >&2
  cargo tree --offline -p caf-serve -e normal -i caf-bench >&2 || true
  exit 1
fi

gate "cargo build --release --offline"
cargo build --release --offline

gate "cargo test -q --offline"
cargo test -q --offline

gate "cargo clippy --all-targets -- -D warnings"
cargo clippy --all-targets -- -D warnings

# Every intra-doc link must resolve, and public docs must not link to
# private items.
gate "rustdoc gate: cargo doc --no-deps --workspace at -D warnings"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline --keep-going

gate "cold-path equivalence at two pool shapes (2 and 5 workers)"
CAF_EQUIV_WORKERS=2 cargo test -q -p caf-tests --test parallel_cold_paths
CAF_EQUIV_WORKERS=5 cargo test -q -p caf-tests --test parallel_cold_paths

gate "world bench smoke: BENCH_world.json + schema gate"
CAF_BENCH_DIR="$ci_out" cargo bench -q -p caf-bench --bench world
cargo run --release -q -p caf-bench --bin metrics_check -- --schema-only "$ci_out/BENCH_world.json"

# Speedup regression gate for the cost-aware shard scheduler: the
# 4-worker world build must not be slower than the 1-worker build.
# Only meaningful with real parallelism, so skip on small hosts.
cores=$(nproc 2>/dev/null || echo 1)
if [ "$cores" -ge 4 ]; then
  gate "world bench speedup gate (host has $cores cores)"
  cargo run --release -q -p caf-bench --bin metrics_check -- \
    --schema-only --min-world-speedup 1.0 "$ci_out/BENCH_world.json"
  # The bootstrap plateau fix (DESIGN.md §2.3): hoisted stream-base
  # keying, scratch-buffer reuse, and the stealing executor must hold a
  # >= 1.3x 4-worker speedup on the ext-ci replicate budget.
  gate "bootstrap speedup gate (host has $cores cores)"
  cargo run --release -q -p caf-bench --bin metrics_check -- \
    --schema-only --min-bootstrap-speedup 1.3 "$ci_out/BENCH_world.json"
else
  echo "==> skipping world bench speedup gate (host has $cores cores, need 4)"
  echo "==> skipping bootstrap speedup gate (host has $cores cores, need 4)"
fi

gate "campaign bench smoke: BENCH_campaign.json + schema gate"
CAF_BENCH_DIR="$ci_out" cargo bench -q -p caf-bench --bench campaign
cargo run --release -q -p caf-bench --bin metrics_check -- \
  --schema-only "$ci_out/BENCH_campaign.json"
# The work-stealing campaign scheduler must not be slower at 4 workers
# than serial (same host-size caveat as the world gate; the bench
# summary also self-asserts checkpoint resume equality).
if [ "$cores" -ge 4 ]; then
  gate "campaign speedup gate (host has $cores cores)"
  cargo run --release -q -p caf-bench --bin metrics_check -- \
    --schema-only --min-campaign-speedup 1.0 "$ci_out/BENCH_campaign.json"
else
  echo "==> skipping campaign speedup gate (host has $cores cores, need 4)"
fi

# Checkpoint/resume smoke: an uninterrupted campaign_run is the
# reference; a second run is SIGKILLed mid-flight (wherever the kill
# lands — world build, mid-campaign, or after the final flush — resume
# must converge), then resumed from its checkpoint directory and its
# snap-encoded result byte-diffed against the reference.
gate "campaign checkpoint/resume smoke: SIGKILL -> resume -> byte-diff"
ckpt_smoke="$ci_out/campaign_ckpt"
rm -rf "$ckpt_smoke"
./target/release/campaign_run --scale 20 --workers 2 \
  --out "$ci_out/campaign_ref.bin" 2>/dev/null
timeout -s KILL 2 ./target/release/campaign_run --scale 20 --workers 2 \
  --checkpoint-dir "$ckpt_smoke" --checkpoint-every 500 2>/dev/null || true
./target/release/campaign_run --scale 20 --workers 2 \
  --checkpoint-dir "$ckpt_smoke" --checkpoint-every 500 \
  --out "$ci_out/campaign_resumed.bin" 2>/dev/null
cmp "$ci_out/campaign_ref.bin" "$ci_out/campaign_resumed.bin"
echo "    resumed campaign result is byte-identical to the uninterrupted run"

# Torn-tail gate: the deterministic companion of the SIGKILL smoke, whose
# kill mostly lands after a checkpointed run has finished. A completed
# checkpoint log loses its last 13 bytes — a torn final append — and the
# resumed run must cut the torn frame, re-run its tasks and match the
# uninterrupted reference byte for byte. Before the cut, the finished log
# must hold at most 32 bytes per task (SPAN records are stored relative
# to their task, plans as catalog indices: about 16 bytes a task here).
gate "campaign checkpoint torn-tail gate: size -> truncate -> resume -> byte-diff"
torn_smoke="$ci_out/campaign_torn"
rm -rf "$torn_smoke"
./target/release/campaign_run --scale 20 --workers 2 \
  --checkpoint-dir "$torn_smoke" --checkpoint-every 500 2>"$ci_out/campaign_torn.log"
torn_tasks=$(sed -n 's/^campaign: \([0-9]*\) tasks.*/\1/p' "$ci_out/campaign_torn.log")
torn_bytes=$(cat "$torn_smoke"/campaign-*.ckpt | wc -c)
if [ -z "$torn_tasks" ] || [ "$torn_bytes" -gt $((32 * torn_tasks)) ]; then
  echo "finished checkpoint holds $torn_bytes bytes for ${torn_tasks:-?} tasks (limit: 32 a task)" >&2
  exit 1
fi
echo "    finished checkpoint: $torn_bytes bytes for $torn_tasks tasks"
truncate -s -13 "$torn_smoke"/campaign-*.ckpt
./target/release/campaign_run --scale 20 --workers 2 \
  --checkpoint-dir "$torn_smoke" --checkpoint-every 500 \
  --out "$ci_out/campaign_torn.bin" 2>/dev/null
cmp "$ci_out/campaign_ref.bin" "$ci_out/campaign_torn.bin"
echo "    torn-tail resume is byte-identical to the uninterrupted run"

gate "observability smoke: repro --metrics + golden artifacts + full gate"
golden="$ci_out/golden"
cargo run --release -q -p caf-bench --bin repro -- \
  table2 --scale 150 --workers 2 --metrics "$ci_out/obs_smoke.json" \
  --artifacts "$golden" --quiet
cargo run --release -q -p caf-bench --bin metrics_check -- "$ci_out/obs_smoke.json"

# Q3 blocks are drawn only by the Q3 analysis, one block at a time as
# it queries them, and stored nowhere: the Q1/Q2 path (Table 2 over the
# 15 study states, seven of them Q3 states) draws none, and the Q3
# analysis behind Table 4 draws each of the seven Q3 states once
# (Table 4's per-ISP address counts come from the block specs, which
# draw nothing). A counter nothing incremented is absent from the
# report, which reads as 0.
gate "Q3 on-demand gate: repro table2 draws 0 Q3 states, table4 draws 7"
q3_states_built() {
  ./target/release/repro "$1" --workers 2 --metrics "$ci_out/q3_$1.json" --quiet >/dev/null
  sed -n 's/^ *"caf\.synth\.q3\.states_built": \([0-9]*\),\{0,1\}$/\1/p' "$ci_out/q3_$1.json"
}
q3_table2=$(q3_states_built table2)
q3_table4=$(q3_states_built table4)
if [ "${q3_table2:-0}" != 0 ] || [ "${q3_table4:-0}" != 7 ]; then
  echo "caf.synth.q3.states_built: table2 ${q3_table2:-0} (want 0), table4 ${q3_table4:-0} (want 7)" >&2
  exit 1
fi
echo "    table2 drew 0 Q3 states, table4 drew 7"

# A USAC record is built only for a reader of its fields: the audit,
# Table 3's block lookup, fig9's sensitivity sweep and the oversight
# sample read address ids, ISPs and blocks off the geography.
gate "CAF-Map on-demand gate: repro table2 table3 table4 fig9 ext-oversight builds 0 records"
./target/release/repro table2 table3 table4 fig9 ext-oversight --workers 2 \
  --metrics "$ci_out/usac_records.json" --quiet >/dev/null
records_built=$(sed -n 's/^ *"caf\.synth\.usac\.records_built": \([0-9]*\),\{0,1\}$/\1/p' \
  "$ci_out/usac_records.json")
if [ "${records_built:-0}" != 0 ]; then
  echo "caf.synth.usac.records_built: $records_built (want 0)" >&2
  exit 1
fi
echo "    0 USAC records built"

# The paper-scale run (every count at 1:1) must stay under 1 GiB of
# resident memory, read off the report's VmHWM gauge.
gate "paper-scale peak gate: repro validate --scale 1 --workers 2 peaks under 1 GiB"
./target/release/repro validate --scale 1 --workers 2 \
  --metrics "$ci_out/paper_scale.json" --quiet >/dev/null
peak_kb=$(sed -n 's/^ *"caf\.process\.peak_rss_kb": \([0-9]*\),\{0,1\}$/\1/p' \
  "$ci_out/paper_scale.json")
if [ -z "$peak_kb" ] || [ "$peak_kb" -ge 1048576 ]; then
  echo "caf.process.peak_rss_kb: ${peak_kb:-absent} (want < 1048576)" >&2
  exit 1
fi
echo "    peak resident set ${peak_kb} KiB"

# `--workers` is the run's only thread budget: at one worker no stage,
# BQT campaigns included, starts a pool, so the run report holds no
# per-lane `caf.exec.worker.<i>.*` gauge.
gate "one-budget gate: repro table2 table4 --workers 1 starts no worker pool"
./target/release/repro table2 table4 --workers 1 --metrics "$ci_out/one_worker.json" --quiet >/dev/null
if grep -q '"caf\.exec\.worker\.' "$ci_out/one_worker.json"; then
  echo "repro --workers 1 ran a worker pool:" >&2
  grep -o '"caf\.exec\.worker\.[^"]*"' "$ci_out/one_worker.json" | sort -u >&2
  exit 1
fi
echo "    no caf.exec.worker.* gauge at --workers 1"

# The committed repro_output.txt is what `repro` prints at its defaults.
# Every experiment `repro --help` lists runs, except `dump` (it writes
# CSVs into repro_artifacts/ in the working tree) and `validate` (its
# shape checks do not all pass yet, so it exits 1; ROADMAP item 1). The
# stdout must equal the committed file cut before the dump section
# (each section header is printed after a blank line, so the cut drops
# that line too).
gate "repro output gate: repro stdout == committed repro_output.txt"
repro_experiments=$(./target/release/repro --help 2>&1 | sed -n 's/^experiments: //p' \
  | tr ' ' '\n' | grep -vx -e dump -e validate)
[ -n "$repro_experiments" ]
# shellcheck disable=SC2086 # one argument per experiment
./target/release/repro $repro_experiments --quiet > "$ci_out/repro_output.txt"
dump_line=$(grep -n '^################ dump ################$' repro_output.txt | cut -d: -f1)
head -n "$((dump_line - 2))" repro_output.txt | cmp - "$ci_out/repro_output.txt"
echo "    $(echo $repro_experiments | wc -w) experiments reproduce repro_output.txt byte for byte"

# The serving-layer gate. The /v1/table2 bytes must equal the golden
# artifact repro just wrote — the determinism contract extended across
# the network boundary — at both 1 and 4 HTTP workers.
serve_seed=212803620 # 0xCAF_2024, the repro default
for http_workers in 1 4; do
  gate "serve gate: caf-serve with $http_workers HTTP worker(s)"
  port_file="$ci_out/serve_port.$http_workers"
  rm -f "$port_file"
  ./target/release/caf-serve --addr 127.0.0.1:0 --workers "$http_workers" \
    --engine-workers 2 --port-file "$port_file" --quiet &
  serve_pid=$!
  for _ in $(seq 1 100); do
    [ -s "$port_file" ] && break
    if ! kill -0 "$serve_pid" 2>/dev/null; then
      echo "caf-serve exited before startup" >&2
      exit 1
    fi
    sleep 0.1
  done
  [ -s "$port_file" ] || { echo "caf-serve never wrote its port file" >&2; exit 1; }
  addr=$(cat "$port_file")

  health=$(curl -fsS "http://$addr/healthz")
  case "$health" in
    *'"status":"ok"'*) ;;
    *) echo "unexpected /healthz body: $health" >&2; exit 1 ;;
  esac

  curl -fsS "http://$addr/v1/table2?seed=$serve_seed&scale=150" \
    -o "$ci_out/served_table2.$http_workers.json"
  cmp "$ci_out/served_table2.$http_workers.json" "$golden/table2.json"
  echo "    /v1/table2 is byte-identical to the repro golden"

  # Warm requests: the SLO burn gate below must see cheap cache hits,
  # not just the one slow cold build.
  for _ in 1 2 3; do
    curl -fsS "http://$addr/v1/table2?seed=$serve_seed&scale=150" >/dev/null
  done

  # The request must be followable in the flight recorder: the route
  # span, the cache lookup under it, and the artifact render.
  traces=$(curl -fsS "http://$addr/v1/debug/traces?route=v1.table2")
  for span_path in \
    "serve.request/serve.route.v1.table2/cache.lookup" \
    "serve.request/serve.route.v1.table2/render"; do
    case "$traces" in
      *"$span_path"*) ;;
      *) echo "span path $span_path missing from /v1/debug/traces" >&2; exit 1 ;;
    esac
  done
  echo "    /v1/debug/traces shows the route -> cache -> render span path"

  prom=$(curl -fsS "http://$addr/metrics?format=prometheus")
  case "$prom" in
    *"# TYPE"*caf_span_duration_ns*) ;;
    *) echo "Prometheus exposition did not render span families" >&2; exit 1 ;;
  esac
  echo "    /metrics?format=prometheus renders"

  curl -fsS "http://$addr/metrics" -o "$ci_out/serve_metrics.$http_workers.json"
  cargo run --release -q -p caf-bench --bin metrics_check -- \
    --max-slo-burn 0.5 "$ci_out/serve_metrics.$http_workers.json"

  curl -fsS "http://$addr/quitquitquit" >/dev/null
  for _ in $(seq 1 100); do
    kill -0 "$serve_pid" 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 "$serve_pid" 2>/dev/null; then
    echo "caf-serve did not exit within 10s of /quitquitquit (leaked threads?)" >&2
    exit 1
  fi
  wait "$serve_pid"
  serve_pid=""
  echo "    clean shutdown"
done

# The snapshot restart gate: a server started with --snapshot-dir must,
# after a restart, answer /v1/table2 with byte-identical responses —
# both the epoch-0 view and a post-challenge epoch — without rebuilding
# the world. The committed delta stream's `isp` fields are placeholders
# (cell ownership is RNG-dependent), so challenge_replay first resolves
# them against the generated world; a live server validates ISPs
# strictly and would reject the raw stream.
gate "snapshot restart gate: byte-identity across a warm restart"
cargo run --release -q -p caf-serve --bin challenge_replay -- \
  --deltas testdata/challenge_deltas.jsonl --scale 150 --mode full \
  --workers 2 --emit-resolved "$ci_out/resolved_deltas.jsonl" --quiet
snap_dir="$ci_out/snapshots"
mkdir -p "$snap_dir"
# Bodies of the restored entries beyond table2: an isp= form, and a
# q3_scale override (the one query value outside the cache key).
snap_queries=("serviceability?isp=Frontier" "compliance?q3_scale=12")
cold_first_200_ms=0
for boot in cold warm; do
  port_file="$ci_out/serve_port.snap.$boot"
  rm -f "$port_file"
  boot_start=$(date +%s%N)
  ./target/release/caf-serve --addr 127.0.0.1:0 --workers 2 \
    --engine-workers 2 --snapshot-dir "$snap_dir" \
    --port-file "$port_file" --quiet &
  serve_pid=$!
  for _ in $(seq 1 100); do
    [ -s "$port_file" ] && break
    if ! kill -0 "$serve_pid" 2>/dev/null; then
      echo "caf-serve ($boot boot) exited before startup" >&2
      exit 1
    fi
    sleep 0.1
  done
  [ -s "$port_file" ] || { echo "caf-serve never wrote its port file" >&2; exit 1; }
  addr=$(cat "$port_file")

  curl -fsS "http://$addr/v1/table2?seed=$serve_seed&scale=150" \
    -o "$ci_out/snap_table2.e0.$boot.json"
  first_200_ms=$(( ($(date +%s%N) - boot_start) / 1000000 ))
  cmp "$ci_out/snap_table2.e0.$boot.json" "$golden/table2.json"
  echo "    $boot boot: epoch-0 /v1/table2 matches the golden (first 200 in ${first_200_ms} ms)"

  if [ "$boot" = cold ]; then
    cold_first_200_ms=$first_200_ms
    # Advance three epochs (one delta per batch crosses the batching
    # axis with the incremental refresh), then persist synchronously.
    for i in 1 2 3; do
      sed -n "${i}p" "$ci_out/resolved_deltas.jsonl" | curl -fsS -X POST \
        --data-binary @- "http://$addr/v1/challenge" >/dev/null
    done
    curl -fsS "http://$addr/v1/table2?epoch=3" -o "$ci_out/snap_table2.e3.cold.json"
    for query in "${snap_queries[@]}"; do
      curl -fsS "http://$addr/v1/$query" -o "$ci_out/snap_${query//[?=]/_}.cold.json"
    done
    snap_reply=$(curl -fsS -X POST "http://$addr/v1/snapshot")
    case "$snap_reply" in
      *'"epoch":3'*) ;;
      *) echo "unexpected /v1/snapshot reply: $snap_reply" >&2; exit 1 ;;
    esac
  else
    health=$(curl -fsS "http://$addr/healthz")
    case "$health" in
      *'"loaded":true'*) ;;
      *) echo "warm boot did not restore a snapshot: $health" >&2; exit 1 ;;
    esac
    curl -fsS "http://$addr/v1/table2?epoch=3" -o "$ci_out/snap_table2.e3.warm.json"
    cmp "$ci_out/snap_table2.e3.warm.json" "$ci_out/snap_table2.e3.cold.json"
    echo "    warm boot: epoch-3 /v1/table2 is byte-identical to the pre-restart bytes"
    for query in "${snap_queries[@]}"; do
      curl -fsS "http://$addr/v1/$query" -o "$ci_out/snap_${query//[?=]/_}.warm.json"
      cmp "$ci_out/snap_${query//[?=]/_}.warm.json" "$ci_out/snap_${query//[?=]/_}.cold.json"
      echo "    warm boot: /v1/$query is byte-identical to the pre-restart bytes"
    done
    curl -fsS "http://$addr/metrics" -o "$ci_out/snap_metrics.json"
    # The no-rebuild proof: both warm requests must be cache hits served
    # from restored views. The miss counter only appears once it
    # increments, so its absence (plus present hits) is the assertion.
    if ! grep -q '"caf.serve.cache.hits"' "$ci_out/snap_metrics.json"; then
      echo "warm boot served no cache hits — restored views unused" >&2
      exit 1
    fi
    if grep -q '"caf.serve.cache.misses"' "$ci_out/snap_metrics.json"; then
      echo "warm boot recomputed a scenario (cache miss) despite the snapshot" >&2
      exit 1
    fi
    echo "    warm boot: zero cache misses (both epochs served from the snapshot)"
    # Everything above is served from restored views and never reads
    # the restored world's truth. A fourth batch does: it refreshes the
    # audit over the restored world, and its epoch-4 bytes are checked
    # against a cold server fed the same four batches below.
    sed -n "4p" "$ci_out/resolved_deltas.jsonl" | curl -fsS -X POST \
      --data-binary @- "http://$addr/v1/challenge" >/dev/null
    curl -fsS "http://$addr/v1/table2?epoch=4" -o "$ci_out/snap_table2.e4.warm.json"
  fi

  curl -fsS "http://$addr/quitquitquit" >/dev/null
  for _ in $(seq 1 100); do
    kill -0 "$serve_pid" 2>/dev/null || break
    sleep 0.1
  done
  if kill -0 "$serve_pid" 2>/dev/null; then
    echo "caf-serve ($boot boot) did not exit within 10s of /quitquitquit" >&2
    exit 1
  fi
  wait "$serve_pid"
  serve_pid=""
done

gate "snapshot restart gate: a restored world takes a challenge like a cold one"
port_file="$ci_out/serve_port.snap.cold4"
rm -f "$port_file"
./target/release/caf-serve --addr 127.0.0.1:0 --workers 2 \
  --engine-workers 2 --port-file "$port_file" --quiet &
serve_pid=$!
for _ in $(seq 1 100); do
  [ -s "$port_file" ] && break
  if ! kill -0 "$serve_pid" 2>/dev/null; then
    echo "caf-serve (cold four-batch boot) exited before startup" >&2
    exit 1
  fi
  sleep 0.1
done
[ -s "$port_file" ] || { echo "caf-serve never wrote its port file" >&2; exit 1; }
addr=$(cat "$port_file")
for i in 1 2 3 4; do
  sed -n "${i}p" "$ci_out/resolved_deltas.jsonl" | curl -fsS -X POST \
    --data-binary @- "http://$addr/v1/challenge" >/dev/null
done
curl -fsS "http://$addr/v1/table2?epoch=4" -o "$ci_out/snap_table2.e4.cold.json"
cmp "$ci_out/snap_table2.e4.warm.json" "$ci_out/snap_table2.e4.cold.json"
echo "    epoch-4 /v1/table2 after a restart equals a cold server fed the same four batches"
curl -fsS "http://$addr/quitquitquit" >/dev/null
for _ in $(seq 1 100); do
  kill -0 "$serve_pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$serve_pid" 2>/dev/null; then
  echo "caf-serve (cold four-batch boot) did not exit within 10s of /quitquitquit" >&2
  exit 1
fi
wait "$serve_pid"
serve_pid=""

# The latency gate catches gross restore regressions (a synchronous
# world decode, quadratic parsing). The miss-free check above is what
# proves nothing was rebuilt; this cap tolerates scheduler noise via
# the 50 ms floor. Wall clocks on tiny shared hosts are pure noise, so
# gate where the other timing gates run.
if [ "$cores" -ge 4 ]; then
  max_restart_ms=$(( cold_first_200_ms / 10 ))
  [ "$max_restart_ms" -ge 50 ] || max_restart_ms=50
  gate "restart latency gate (host has $cores cores; cold first-200 ${cold_first_200_ms} ms)"
  cargo run --release -q -p caf-bench --bin metrics_check -- \
    --schema-only --max-restart-ms "$max_restart_ms" "$ci_out/snap_metrics.json"
else
  echo "==> skipping restart latency gate (host has $cores cores, need 4)"
fi

gate "serve bench smoke: BENCH_serve.json + schema gate"
CAF_BENCH_SERVE_QUICK=1 CAF_BENCH_DIR="$ci_out" \
  cargo run --release -q -p caf-serve --bin serve_bench
cargo run --release -q -p caf-bench --bin metrics_check -- --schema-only "$ci_out/BENCH_serve.json"
# The committed baseline must stay schema-valid too.
cargo run --release -q -p caf-bench --bin metrics_check -- --schema-only BENCH_serve.json
# Tracing must stay effectively free: warm p50 with the flight recorder
# attached may not exceed the untraced p50 by more than 5%. Quick-mode
# medians are scheduler noise on tiny shared hosts, so gate where the
# other timing gates run.
if [ "$cores" -ge 4 ]; then
  gate "trace overhead gate (host has $cores cores)"
  cargo run --release -q -p caf-bench --bin metrics_check -- \
    --schema-only --max-trace-overhead-pct 5.0 "$ci_out/BENCH_serve.json"
else
  echo "==> skipping trace overhead gate (host has $cores cores, need 4)"
fi
# Snapshot restore must beat the cold build by >= 10x in the bench's
# own restart-to-first-200 measurement (same host-size caveat).
if [ "$cores" -ge 4 ]; then
  gate "restart speedup gate (host has $cores cores)"
  cargo run --release -q -p caf-bench --bin metrics_check -- \
    --schema-only --min-restart-speedup 10.0 "$ci_out/BENCH_serve.json"
else
  echo "==> skipping restart speedup gate (host has $cores cores, need 4)"
fi

# The challenge-replay gate: the committed sample delta stream must
# produce byte-identical artifacts whether it is folded in batch-by-
# batch through the incremental audit or applied in one shot to a
# from-scratch re-audit — at different worker counts, to cross the
# determinism contracts.
gate "challenge replay gate: incremental vs full byte-identity"
cargo run --release -q -p caf-serve --bin challenge_replay -- \
  --deltas testdata/challenge_deltas.jsonl --scale 150 --batch 3 \
  --mode incremental --workers 2 --out "$ci_out/replay_inc" --quiet
cargo run --release -q -p caf-serve --bin challenge_replay -- \
  --deltas testdata/challenge_deltas.jsonl --scale 150 \
  --mode full --workers 4 --out "$ci_out/replay_full" --quiet
for f in serviceability compliance table2; do
  cmp "$ci_out/replay_inc/$f.json" "$ci_out/replay_full/$f.json"
done
echo "    incremental replay artifacts are byte-identical to the full rebuild"

gate "challenge bench smoke: BENCH_challenge.json + schema gate"
CAF_BENCH_DIR="$ci_out" cargo bench -q -p caf-bench --bench challenge
cargo run --release -q -p caf-bench --bin metrics_check -- \
  --schema-only "$ci_out/BENCH_challenge.json"
# Incremental recompute must beat a full rebuild by >= 5x after a small
# delta batch (the DESIGN.md §4 acceptance bar). The bench wall
# clocks are noisy on tiny shared hosts, so gate where the world bench
# speedup gate also runs.
if [ "$cores" -ge 4 ]; then
  gate "incremental speedup gate (host has $cores cores)"
  cargo run --release -q -p caf-bench --bin metrics_check -- \
    --schema-only --min-incremental-speedup 5.0 "$ci_out/BENCH_challenge.json"
else
  echo "==> skipping incremental speedup gate (host has $cores cores, need 4)"
fi

# The sweep determinism gate: the committed grid spec must emit
# byte-identical results.json/results.csv at 2 workers (the worker
# count perfbench measures, where the one-unit-per-world plan deals
# its units differently than at 4) and at 4 workers — the grid-cell
# determinism contract the /v1/sweep cache, the results tables, and
# the bench baselines all rely on. The 1-worker serial run is the
# reference.
gate "sweep determinism gate: 1-worker reference vs 2 and 4 workers byte-identity"
sweep_ref="$ci_out/sweep_w1"
./target/release/caf-sweep --spec testdata/sweep_spec.json \
  --out "$sweep_ref" --workers 1 2>/dev/null
for sweep_workers in 2 4; do
  sweep_out="$ci_out/sweep_w${sweep_workers}"
  ./target/release/caf-sweep --spec testdata/sweep_spec.json \
    --out "$sweep_out" --workers "$sweep_workers" 2>/dev/null
  cmp "$sweep_out/results.json" "$sweep_ref/results.json"
  cmp "$sweep_out/results.csv" "$sweep_ref/results.csv"
done
echo "    all three worker counts emitted byte-identical results.json and results.csv"

gate "sweep bench smoke: BENCH_sweep.json + schema gate"
CAF_BENCH_DIR="$ci_out" cargo bench -q -p caf-bench --bench sweep
cargo run --release -q -p caf-bench --bin metrics_check -- \
  --schema-only "$ci_out/BENCH_sweep.json"
# The committed baseline must stay schema-valid too.
cargo run --release -q -p caf-bench --bin metrics_check -- --schema-only BENCH_sweep.json
# The cost-aware sweep plan must not be slower at 4 workers than serial
# (same host-size caveat as the other speedup gates; the bench
# summary also self-asserts grid determinism and the 2x re-run memo
# hit ratio).
if [ "$cores" -ge 4 ]; then
  gate "sweep speedup gate (host has $cores cores)"
  cargo run --release -q -p caf-bench --bin metrics_check -- \
    --schema-only --min-sweep-speedup 1.0 "$ci_out/BENCH_sweep.json"
else
  echo "==> skipping sweep speedup gate (host has $cores cores, need 4)"
fi

gate "supply-chain gate: cargo deny"
if command -v cargo-deny >/dev/null; then
  cargo deny check
else
  echo "==> skipping cargo deny (not installed; CI installs it)"
fi

if [ -n "${status_before+x}" ] && command -v git >/dev/null \
  && git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  gate "worktree hygiene: no gate may modify tracked files"
  status_after=$(git status --porcelain)
  if [ "$status_after" != "$status_before" ]; then
    echo "ci.sh modified the worktree:" >&2
    diff <(printf '%s\n' "$status_before") <(printf '%s\n' "$status_after") >&2 || true
    exit 1
  fi
fi

gate_summary
echo "==> ci.sh: all gates passed"
