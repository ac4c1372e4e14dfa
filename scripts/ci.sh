#!/usr/bin/env bash
# Tier-1 verification: configure, build, run the full test suite.
# Exits non-zero on any configure/build/test failure.
set -euo pipefail

cd "$(dirname "$0")/.."

# Scrub persistent-program-database artifacts so every stage starts cold:
# a stale store must never leak analysis state across CI stages (or across
# reruns on a dirty tree).
scrub_pdb_cache() {
  rm -rf .pscache
  find . -name '*.pspdb' -not -path './build*' -delete 2>/dev/null || true
  find build build-tsan build-asan -name '*.pspdb' -delete 2>/dev/null || true
}
scrub_pdb_cache

cmake -B build -S .
cmake --build build -j
ctest --test-dir build --output-on-failure
scrub_pdb_cache

# A2 self-checks: the incremental-update ablation exits 1 when its graphs
# disagree with whole-program reanalysis, when incremental updates cut the
# dependence tests run by less than 5x, or when the largest deck's
# parallel-incremental test counts regress. "Incremental" means an edit
# re-analyzes only its dirty procedures and the session memo answers every
# test whose inputs did not change; the baseline turns the memo off and
# rebuilds everything. Only counts are checked, never timings.
./build/bench/bench_ablate_incremental

# Warm-start stage: cold-analyze every deck and persist its store + cold
# snapshot, then reopen every store in a FRESH process and require pure
# reuse (zero live dependence tests, zero quarantines) with byte-identical
# snapshots. Two separate invocations so nothing warm survives in memory.
mkdir -p .pscache
./build/tools/pdb_check save .pscache
./build/tools/pdb_check open .pscache
scrub_pdb_cache

# Fuzz smoke stage: a fixed-seed, elevated-iteration pass of the robustness
# harness (mutated decks, fault-injected transforms, starvation budgets).
# Deterministic — the seeds are baked into the tests; only the iteration
# count is raised beyond the ctest default.
PS_FUZZ_ITERS="${PS_FUZZ_ITERS:-1500}" ./build/tests/fuzz_robustness_test

# Parallel-path fuzz smoke: the same fixed-seed corpus, but every
# whole-program analysis routed through the task-DAG engine at 4 threads.
PS_FUZZ_ITERS="${PS_FUZZ_ITERS:-1500}" PS_FUZZ_PARALLEL=4 \
  ./build/tests/fuzz_robustness_test

# Elevated edit storm: 200 fixed-seed edits per deck instead of the ctest
# default of 6, every one checked for bit-identical analysis state and a
# live call graph across the sequential, scratch and 1-16 thread sessions.
PS_STORM_EDITS=200 ./build/tests/edit_storm_test

# AddressSanitizer stage: the suites that mutate the AST through edits,
# transformations and rollbacks, plus the dependence builder they drive,
# rebuilt with -fsanitize=address. Every program change (an edit, a
# transformation or a rollback) refreshes the call graph only at the unit it
# changed, so a change that frees a CALL anywhere else shows up here as a
# heap-use-after-free. The three store suites feed damaged bytes into
# readGraphSlice, which runs in pool tasks during a warm open. The parallel
# determinism suite moves workspaces between the analysis scheduler's task
# slots and the session at 1-16 threads: an ownership bug there is invisible
# to TSan. The server storm settles coalesced edit bursts from many sessions
# over one shared memo, the one edit path the other suites do not cover. The
# dataflow suite indexes dense rows by variable and definition ids, where an
# id past the end of a row would corrupt memory silently without ASan. The
# procedure model is one pre-order row table that hands out row pointers
# and positions, and its suite checks every lookup on every deck, after an
# edit and after a transformation, so an index past a row shows up here. The
# interpreter, validation and emission suites run relative execution's
# shuffled schedules, where a schedule's proof that the others would replay
# it keeps cell references across a loop activation. The
# edit storm runs 50 edits per deck here: the summary builder's census
# records and call graph live across edits, so a missed recount or refresh
# turns into a heap-use-after-free only once enough edits have freed
# statements.
cmake -B build-asan -S . \
  -DCMAKE_CXX_FLAGS="-fsanitize=address -fno-omit-frame-pointer" \
  -DCMAKE_EXE_LINKER_FLAGS="-fsanitize=address"
asan_suites="property_test ped_session_test transform_test interproc_test
  composition_test edit_storm_test fuzz_robustness_test dependence_test
  pdb_persistence_test warm_start_test io_atomic_test parallel_analysis_test
  server_storm_test dataflow_test ir_model_test interp_test validation_test
  emission_test"
# shellcheck disable=SC2086  # the list is split on purpose
cmake --build build-asan -j --target $asan_suites
for t in $asan_suites; do
  PS_STORM_EDITS=50 ./build-asan/tests/"$t"
done
scrub_pdb_cache

# Dynamic-validation stage: the trace-backed deletion checker. The suite
# injects known-unsound deletions on every deck and requires them refuted
# and auto-restored byte-identically at 1/2/4/8 threads; then the fuzz
# corpus reruns with periodic validateDeletions passes interleaved
# (PS_VALIDATE=1) so mutated programs exercise the failed-run and
# budget-overflow degradation paths.
./build/tests/validation_test
PS_FUZZ_ITERS="${PS_FUZZ_ITERS:-1500}" PS_VALIDATE=1 \
  ./build/tests/fuzz_robustness_test

# OpenMP-emission stage: the round-trip suite (emit -> re-lex to exact
# directive payloads -> directive-stripped re-analysis byte-identical at
# 1/2/4/8 threads, on every deck), then the corpus smoke: ps_emit --check
# marks every deck the way a workshop user would (plus refusal fodder),
# emits, and exits non-zero on any load failure, round-trip mismatch or
# silently dropped loop.
./build/tests/emission_test
./build/tools/ps_emit --check
scrub_pdb_cache

# Pipeline-benchmark smoke stage: psbench/run.py builds ps_bench from this
# checkout (Release, into .bench_build/) and runs each workload for one
# second. The last output line is the JSON result; every output check must
# pass (correct: true, failed: 0).
for workload in cold-open edit-settle validate-emit; do
  python3 psbench/run.py --workload "$workload" --seed 1 --seconds 1 \
      --trace 0 | tail -n 1 | python3 -c '
import json, sys
r = json.load(sys.stdin)
sys.exit(0 if r.get("correct") is True and r.get("failed") == 0 else 1)' ||
    { echo "ps_bench smoke failed: $workload" >&2; exit 1; }
done

# ThreadSanitizer stage: rebuild the concurrency-sensitive targets with
# -fsanitize=thread and run the parallel determinism suites (whole-program
# batch + incremental edit storm) plus the task-pool and DepMemo stress
# tests. Any data race in the pool, the task DAG, the sharded memo, the
# pipelined summary nodes or the per-nest fan-out fails CI here. The
# interprocedural suite runs the summary builder's phase on pools of 1-8
# workers over every deck and generated decks.
cmake -B build-tsan -S . -DPS_TSAN=ON
cmake --build build-tsan -j --target parallel_analysis_test edit_storm_test taskpool_test depmemo_concurrent_test warm_start_test pdb_persistence_test validation_test emission_test interproc_test
./build-tsan/tests/taskpool_test
./build-tsan/tests/depmemo_concurrent_test
./build-tsan/tests/interproc_test
./build-tsan/tests/parallel_analysis_test
./build-tsan/tests/edit_storm_test
# Validation under TSan: the deck suite re-analyzes through the task pool
# at 1/2/4/8 threads with trace replay and auto-restores interleaved — any
# race between the validator's graph writes and the analysis engine fails
# here.
./build-tsan/tests/validation_test
# Emission under TSan: round-trip re-analysis fans the directive-stripped
# deck through the task pool at 1/2/4/8 threads while relative validation
# replays traces — any race between the emitter's snapshotting and the
# analysis engine fails here.
./build-tsan/tests/emission_test
# Warm-open settle path (dirty-set re-analysis seeded from disk) and the
# corruption-recovery suite, both under TSan: rebinding and quarantine run
# concurrently with the task pool.
./build-tsan/tests/warm_start_test
./build-tsan/tests/pdb_persistence_test
scrub_pdb_cache

# Server-storm stage: the multi-session analysis server under TSan. N
# concurrent scripted sessions share one store image, one warm memo and one
# task pool; every session's final graphs must be byte-identical to the
# solo baseline at 1/2/4/8 threads. The atomic-write suite hammers one
# store path from many threads (the torn-save regression) and requires
# every surviving store to open clean with zero quarantined frames.
cmake --build build-tsan -j --target server_storm_test io_atomic_test
./build-tsan/tests/io_atomic_test
./build-tsan/tests/server_storm_test
scrub_pdb_cache
