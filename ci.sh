#!/usr/bin/env bash
# CI entry point: Release build + full test suite, an AddressSanitizer build
# running the unit + golden labels, a kernel stage running the GEMM
# differential matrix (ASan/UBSan, then the 8-thread sweeps under TSan), a
# chaos stage running the randomized
# fault-injection suite under ASan/UBSan, a crash stage running the
# kill-point checkpoint/resume harness and snapshot-corruption sweeps under
# ASan/UBSan, a shard stage running the in-process round loop's
# cross-driver differentials, the chaos suite and both drivers' crash tests
# under ASan/UBSan, a net-chaos stage SIGKILLing a
# live socket server at four kill points and memcmping the recovered model,
# a defense stage running the defense-stack / audit-gate / robust-aggregation
# suites under ASan/UBSan and the Byzantine chaos, defended-determinism and
# update-pipeline suites under TSan,
# then a ThreadSanitizer build exercising the concurrency-heavy tests
# (runtime pool + FL rounds + chaos + crash/resume + the 8-thread sharded
# differential + Conv2d's parallel weight-gradient tiles), and a portable
# (-DOASIS_NATIVE_ARCH=OFF) build running the full suite against the native
# build's pinned bytes.
#
# Every test carries a ctest LABEL (unit | integration | sanitizer |
# property | golden | chaos | crash | net | net_chaos | shard | defense) and
# a hard 30 s per-test TIMEOUT — a test that exceeds it fails the suite.
#
#   ./ci.sh            # all default stages
#   ./ci.sh release    # Release (-Werror) + full ctest only
#   ./ci.sh asan       # ASan build + unit/golden/kernel labels only
#   ./ci.sh kernel     # GEMM differential matrix (the 6×8 tile, and the
#                      # 12×8 tile over paired row panels on AVX-512
#                      # hosts): kernel label under ASan/UBSan, then the
#                      # 8-thread sweeps (intra-GEMM parallel path) under
#                      # TSan
#   ./ci.sh chaos      # ASan build + chaos label only
#   ./ci.sh crash      # ASan build + crash label only (SIGKILL harness)
#   ./ci.sh net        # ASan build + net label + a short net_rounds fleet,
#                      # then TSan loopback rounds (honest and faulted)
#   ./ci.sh net-chaos  # ASan server-kill harness + TSan reconnect/backoff
#   ./ci.sh shard      # ASan build + shard label + chaos suite + both
#                      # drivers' crash kill-points
#   ./ci.sh defense    # defense + robust-aggregation labels under ASan/UBSan,
#                      # Byzantine chaos, defended determinism and the update
#                      # pipeline pin under TSan
#   ./ci.sh tsan       # TSan stage only
#   ./ci.sh portable   # a -DOASIS_NATIVE_ARCH=OFF build running the full
#                      # ctest against the native build's constants
#   ./ci.sh perf       # NOT part of "all": wall-clock guards (the blocked-
#                      # vs-naive GEMM floor, the CRC32C floor, the unbounded
#                      # update-screen floor); run on quiet hardware
set -euo pipefail
cd "$(dirname "$0")"

stage="${1:-all}"
jobs="$(nproc 2>/dev/null || echo 2)"

run_release() {
  # -Werror: the GCC 12 Release build is warning-free, and stays that way.
  echo "==> [ci] Release build (warnings are errors) + ctest"
  cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=Release -DOASIS_WERROR=ON
  cmake --build build-ci -j "${jobs}"
  ctest --test-dir build-ci --output-on-failure -j "${jobs}"
}

run_asan() {
  # The kernel label rides along: the differential GEMM/Workspace tests are
  # exactly the ones that would surface a packing overrun or arena misuse,
  # which is ASan's home turf.
  echo "==> [ci] AddressSanitizer build (unit + golden + kernel labels)"
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DOASIS_ASAN=ON
  cmake --build build-asan -j "${jobs}"
  ctest --test-dir build-asan --output-on-failure -j "${jobs}" \
    -L 'unit|golden|kernel'
}

run_kernel() {
  # GEMM stage: the blocked-vs-naive differential matrix, the 12×8-vs-two-
  # 6×8 tile differential, the packed-B layout against an element loop, the
  # conv lowering and col2im span references, ConvPacked (Conv2d on packed
  # panels against an im2col + naive GEMM reference), plus nn_test's
  # MiniConvNet CRC pin, the fused ReLU→MaxPool pass against the unfused
  # pair (every lane position of its vector steps) and the conv bias-gradient
  # chain pin (the kernel label). ASan/UBSan catches a packed-panel,
  # register-transpose, paired-panel, staged-edge tile, window-step,
  # lowering or span overrun; the TSan pass then drives the intra-GEMM
  # row-panel parallel path — the 8-thread sweeps, whose parallel edge
  # shapes sit above the inline cutoff, one of them with chunks that start
  # on odd panels — where a racy B-panel pack, a pair of row panels
  # straddling two chunks or a C-tile store would surface.
  echo "==> [ci] Kernel stage: GEMM differential matrix under ASan/UBSan + TSan"
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DOASIS_ASAN=ON
  cmake --build build-asan -j "${jobs}" --target kernel_diff_test nn_test
  ctest --test-dir build-asan --output-on-failure -j "${jobs}" -L kernel
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DOASIS_TSAN=ON
  cmake --build build-tsan -j "${jobs}" --target kernel_diff_test
  echo "==> [ci] 8-thread GEMM differential under TSan"
  ./build-tsan/tests/kernel_diff_test --gtest_filter='Isas/IsaSweep.*'
}

run_chaos() {
  # Fault injection exercises the nastiest paths (truncated payloads, bit
  # flips, aborted rounds), so it runs under ASan/UBSan, reusing the asan
  # build tree when it exists.
  echo "==> [ci] Chaos stage: fault-injection suite under ASan/UBSan"
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DOASIS_ASAN=ON
  cmake --build build-asan -j "${jobs}" --target chaos_test
  ctest --test-dir build-asan --output-on-failure -j "${jobs}" -L chaos
}

run_crash() {
  # The kill-point harness SIGKILLs checkpoint writers at randomized byte
  # offsets and memcmps resumed runs against uninterrupted references; the
  # corruption sweeps parse every truncation + hundreds of bit flips. Both
  # run under ASan/UBSan so an out-of-bounds read on a damaged snapshot
  # aborts loudly instead of passing quietly. The snapshot decoders are
  # where damaged bytes land, so the byte pins of every engine's snapshot
  # (CkptPin.*) and the cross-engine refusals (CkptRefusal.*) ride along.
  echo "==> [ci] Crash stage: kill-point checkpoint/resume harness under ASan/UBSan"
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DOASIS_ASAN=ON
  cmake --build build-asan -j "${jobs}" --target crash_test ckpt_test \
    round_core_test
  ctest --test-dir build-asan --output-on-failure -j "${jobs}" -L crash
  ./build-asan/tests/round_core_test --gtest_filter='CkptPin.*:CkptRefusal.*'
}

run_shard() {
  # The in-process round loop's whole contract is bit-identity across its
  # two drivers (fl::Simulation and the sharded engine); its tests chase
  # pointers through lazily materialized clients, mid-round snapshots, and a
  # streaming accumulator — ASan/UBSan territory. Both drivers run the one
  # loop, so fl::Simulation's retry/deadline suite (chaos_test) and both
  # drivers' SIGKILL kill-points ride along: a crash that leaks or
  # double-frees in either resume path aborts loudly.
  echo "==> [ci] Shard stage: round loop differential + chaos + crash tests under ASan/UBSan"
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DOASIS_ASAN=ON
  cmake --build build-asan -j "${jobs}" --target shard_test crash_test \
    round_core_test chaos_test
  ctest --test-dir build-asan --output-on-failure -j "${jobs}" -L shard
  ./build-asan/tests/chaos_test
  ./build-asan/tests/crash_test --gtest_filter='CrashResume.*:ShardCrashResume.*'
}

run_net() {
  # The socket serving layer parses hostile bytes (frame fuzz sweeps, every
  # truncation, seeded bit flips) — ASan/UBSan territory — and its
  # poll-driven event loop plus the fork-based federation get a TSan pass
  # over a real loopback round-trip. The payload byte paths (DESIGN.md §5p:
  # shared frame payloads, the scatter-gather outbox, the decoder's body
  # growth) run under both: NetAlloc drives a federation whose clients run
  # on threads of their own. The TSan pass also runs the round-order pins
  # NetRound.SpoofedInnerIdFoldsInRoundOrder and
  # NetRound.MaliciousServerCapturesInFoldOrder, which hold arrivals at the
  # fold frontier and offer them in round order, and
  # NetRestart.MidRoundResumeKeepsPayloadRejectedClaims, which kills and
  # resumes a round whose screen holds an id claimed by a rejected update.
  echo "==> [ci] Net stage: socket serving tests + net_rounds under ASan/UBSan, TSan loopback"
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DOASIS_ASAN=ON
  cmake --build build-asan -j "${jobs}" --target net_test net_rounds
  ctest --test-dir build-asan --output-on-failure -j "${jobs}" -L net
  # The load bench has no test of its own, and its clients run the shared
  # fault plan: a short forked fleet must finish and exit 0.
  ./build-asan/bench/net_rounds --clients 3 --rounds 3 --timeout-sec 60
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DOASIS_TSAN=ON
  cmake --build build-tsan -j "${jobs}" --target net_test
  ./build-tsan/tests/net_test \
    --gtest_filter='NetRound.LoopbackFederationMatchesInProcessServerBitExactly:NetRound.FaultPlanLoopbackMatchesSingleAttemptSimulation:NetRound.SpoofedInnerIdFoldsInRoundOrder:NetRound.MaliciousServerCapturesInFoldOrder:NetRestart.MidRoundResumeKeepsPayloadRejectedClaims:NetAlloc.*:Outbox.*:FrameDecoder.*'
}

run_net_chaos() {
  # Survivable-serving stage: the fork-based server-kill harness SIGKILLs a
  # live FlServer at four kill points (mid-accept, mid-frame,
  # post-accept-pre-ack, post-checkpoint), restarts it from its checkpoint
  # directory, and memcmps the final model against an uninterrupted
  # reference — under ASan/UBSan so a use-after-restore or snapshot overrun
  # aborts loudly. The reconnect/backoff/heartbeat client tests then run
  # under TSan: reconnect loops, idle deadlines, and heartbeat timers are
  # exactly where a racy session teardown would surface.
  echo "==> [ci] Net-chaos stage: server-kill harness under ASan/UBSan + reconnect tests under TSan"
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DOASIS_ASAN=ON
  cmake --build build-asan -j "${jobs}" --target net_chaos_test
  ctest --test-dir build-asan --output-on-failure -j "${jobs}" -L net_chaos
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DOASIS_TSAN=ON
  cmake --build build-tsan -j "${jobs}" --target net_test
  ./build-tsan/tests/net_test \
    --gtest_filter='NetClient.StalledServerTripsIdleDeadlineIntoReconnect:NetClient.HeartbeatingServerHoldsSessionWithoutReconnect:NetClient.BackoffScheduleIsExponentialCappedAndReproducible:NetRestart.MidRoundRestartWithPendingAcceptsIsBitExact'
}

run_defense() {
  # Robustness stage: the defense stack rewrites gradient payloads in place
  # and the audit gate throws across the round engines' parallel regions —
  # ASan/UBSan territory for the tensor rewrites, with the robust-aggregation
  # property suite (order statistics over buffered cohorts) riding along.
  # The Byzantine chaos, defended-determinism and update-pipeline suites
  # then run under TSan: the stack's stages and the typed faults (Byzantine
  # and poison rewrites of the gradient tensors) run inside the parallel
  # training region, and sign-flip / blowup / colluding cohorts push the
  # engines through their refusal and exclusion paths at 4 and 8 threads,
  # exactly where a racy per-slot transform or catch would surface.
  echo "==> [ci] Defense stage: defense + robust-aggregation under ASan/UBSan + Byzantine chaos, defended determinism and the update pipeline under TSan"
  cmake -B build-asan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DOASIS_ASAN=ON
  cmake --build build-asan -j "${jobs}" --target defense_test property_test
  ctest --test-dir build-asan --output-on-failure -j "${jobs}" -L defense
  ./build-asan/tests/property_test --gtest_filter='RobustAggregation.*'
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DOASIS_TSAN=ON
  cmake --build build-tsan -j "${jobs}" --target defense_test
  ./build-tsan/tests/defense_test \
    --gtest_filter='ByzantineChaos.*:DefenseDeterminism.*:UpdatePipelinePin.*'
}

run_tsan() {
  # crash_test rides along: its 8-thread shards resume checkpoints into a
  # freshly spawned pool, exactly where a racy restore would surface.
  echo "==> [ci] ThreadSanitizer build (runtime_test + fl_test + chaos_test + crash_test + nn_test + kernel_diff_test)"
  cmake -B build-tsan -S . -DCMAKE_BUILD_TYPE=RelWithDebInfo -DOASIS_TSAN=ON
  cmake --build build-tsan -j "${jobs}" --target runtime_test fl_test     chaos_test crash_test
  ./build-tsan/tests/runtime_test
  ./build-tsan/tests/fl_test
  ./build-tsan/tests/chaos_test
  ./build-tsan/tests/crash_test --gtest_filter='*Threads8*:*ReferencesAgree*'
  # The 8-thread sharded differential: parallel client training inside a
  # shard must stay race-free while folding stays serial.
  cmake --build build-tsan -j "${jobs}" --target shard_test
  ./build-tsan/tests/shard_test \
    --gtest_filter='ShardDifferential.MatchesMaterializedSimulation_Threads8:ShardDifferential.ThreadCountInvariant'
  # Conv2d's per-sample panel lowerings and weight-gradient tiles run in a
  # parallel_for and fold serially: the 8-thread parameters-only backward,
  # the MiniConvNet pin, the fused ReLU→MaxPool differential and the packed
  # conv references.
  cmake --build build-tsan -j "${jobs}" --target nn_test kernel_diff_test
  ./build-tsan/tests/nn_test \
    --gtest_filter='BackwardParams.*:MiniConvNetPin.*:FusedReluPool.*'
  ./build-tsan/tests/kernel_diff_test --gtest_filter='ConvPacked.*'
}

run_portable() {
  # Bytes that must not depend on -march: every pinned multiply-add is
  # either a spelled std::fma or inside the GEMM kernel TU, which carries
  # its own FMA flags, so the whole suite — CkptPin (shard label) and the
  # MiniConvNet pin included — matches the native build's constants.
  echo "==> [ci] Portable stage: -DOASIS_NATIVE_ARCH=OFF build + full ctest"
  cmake -B build-portable -S . -DCMAKE_BUILD_TYPE=Release \
    -DOASIS_NATIVE_ARCH=OFF
  cmake --build build-portable -j "${jobs}"
  ctest --test-dir build-portable --output-on-failure -j "${jobs}"
}

run_perf() {
  # Opt-in stage, NOT in "all": wall-clock assertions are too noisy for
  # shared CI runners. The guard tests self-skip unless OASIS_PERF_GUARD=1.
  echo "==> [ci] Perf guard stage (blocked GEMM, CRC32C and screen floors)"
  cmake -B build-ci -S . -DCMAKE_BUILD_TYPE=Release
  cmake --build build-ci -j "${jobs}" --target perf_guard_test
  OASIS_PERF_GUARD=1 ctest --test-dir build-ci --output-on-failure -L perf
}

case "${stage}" in
  release) run_release ;;
  asan) run_asan ;;
  kernel) run_kernel ;;
  chaos) run_chaos ;;
  crash) run_crash ;;
  net) run_net ;;
  net-chaos) run_net_chaos ;;
  shard) run_shard ;;
  defense) run_defense ;;
  tsan) run_tsan ;;
  portable) run_portable ;;
  perf) run_perf ;;
  all)
    run_release
    run_asan
    run_kernel
    run_chaos
    run_crash
    run_shard
    run_net
    run_net_chaos
    run_defense
    run_tsan
    run_portable
    ;;
  *)
    echo "usage: $0 [release|asan|kernel|chaos|crash|net|shard|net-chaos|defense|tsan|portable|perf|all]" >&2
    exit 2
    ;;
esac

echo "==> [ci] OK"
