#!/bin/sh
# Repo verification: tier-1 build+test, vet, the race detector over the
# concurrency-heavy packages (mem router, fault-injected transport, pfft
# chaos suite, plan reuse), and the steady-state allocation gates.
set -eux

cd "$(dirname "$0")/.."
STATUS_BEFORE=$(git status --porcelain)

# The four line counts ROADMAP tracks, by one fixed command so every
# CHANGES.md entry quotes the same numbers: non-test Go in the pipeline
# packages, in the commands, in the message-passing layer, and everywhere
# outside the benchmark.
loc() { find "$@" -name '*.go' ! -name '*_test.go' | xargs cat | wc -l; }
echo "non-test Go lines: internal/pfft + internal/pencil $(loc internal/pfft internal/pencil)," \
    "cmd $(loc cmd)," \
    "internal/mpi $(loc internal/mpi)," \
    "outside benchmark/ $(loc . ! -path './benchmark/*' ! -path './.bench_build/*')"

gofmt_out=$(gofmt -l .)
if [ -n "$gofmt_out" ]; then
    echo "gofmt needed on:" "$gofmt_out" >&2
    exit 1
fi

go build ./...
go vet ./...
go test ./...
go test -race ./internal/mpi/... ./internal/pfft/... ./internal/telemetry/ ./internal/serve/ .

# Simulator leg (PR 21): the whole virtual-time stack under the race
# detector — vclock's driver loop and rank coroutines (iter.Pull carries the
# happens-before edges), simnet, and model's cost runs on top of mpi/sim
# (which the line above covers). One thread runs a simulation, so a report
# here means state escaped it. The tuner computes a batch of simulations on
# GOMAXPROCS goroutines beneath an objective called from one goroutine: its
# lookahead, budget-crossing and commit-order tests run here too.
go test -race ./internal/vclock/ ./internal/simnet/ ./internal/model/ ./internal/tuner/

# Pencil leg of the race pass: the 2-D decomposition package plus the
# pencil-named suites — the slab-vs-pencil property tests in the root
# package and the serve lifecycle test (miss → hit → eviction over HTTP).
# -count=1 re-runs them even when the cached full-package pass above hit.
go test -race ./internal/pencil/
go test -race -count=1 -run 'Pencil' . ./internal/serve/

# Exchange-schedule leg (PR 9): the bit-identical property test drives
# all four all-to-all schedules (pairwise, bruck, hier, windowed) through
# the mem engine on both decompositions, forward and backward, under the
# race detector — multi-round schedules must stay race-free and route
# every block exactly where pairwise does.
go test -race -count=1 -run 'CommBitIdentical' .

# Net-engine leg (PR 10): the TCP transport's package tests under the
# race detector — all four exchange schedules over a real loopback mesh
# (raw alltoallv vs the mem engine bit for bit), the pfft parity tests on
# both decompositions (slab and pencil), the dissemination barrier, chaos
# recovery under forced drop/corrupt, and peer-loss world failure.
# -count=1 defeats the cache so the sockets are really opened every run.
# With them the delivery core both engines run on (PR 19): the protocol
# tests on a scripted link, whose timers are real.
go test -race -count=1 ./internal/mpi/envelope/ ./internal/mpi/transport/ ./internal/mpi/net/

# Hostile-frame leg (PR 19): ranks read off the wire must fail the world
# with a *PeerError, never index a table (the parent panicked the reader
# goroutine), and the receiver's fuzz seeds — deliver, reject or report,
# never panic — beside the codec's and those of offt-serve's transform
# header reader, which takes a length prefix off the socket too. With them
# the checksum every frame is sealed with: CRC-32C's check vector,
# a pinned payload sum, every one of an element's 128 bits flipped, the
# sum equal to the CRC of the frame's payload bytes, and the big-endian
# per-element path equal to the memory view.
go test -count=1 -run 'TestBadHeaderFailsWorld|TestCorruptFrameWithoutPlanFailsWorld' ./internal/mpi/net/
go test -count=1 -run 'Checksum|FuzzDeliver|FuzzEnvelopeRoundTrip|FuzzReadHeader' \
    ./internal/mpi/fault/ ./internal/mpi/transport/ ./internal/mpi/envelope/ ./internal/serve/

# Reproduction and pipeline pins. The golden test diffs the text offt-bench
# prints for fourteen small-scale sim experiments against
# internal/harness/testdata/small.golden (an intended change is re-recorded
# with `go test ./internal/harness -run TestGoldenSmallScale -update` and
# noted in EXPERIMENTS.md "Known deviations"); TestVirtualTimesPinned holds
# the benchmark's virt_ms_per_fft to the nanosecond; TestScriptedTracePinned
# holds the simulator's total order itself — the hash of every scheduler
# trace line of a scripted 4-rank world over all four schedules, its final
# clocks and fabric counters — and TestTracePinned a whole vclock trace as
# text, both recorded before the scheduler became a single-threaded loop;
# TestTuneSequencePinned holds every tuning entry point's committed sequence
# (history hash, counters, best point, virtual tuning time, tuner.* metrics),
# recorded before batches were computed concurrently;
# TestPipelineOrder drives the one phase runner with a scripted communicator
# over every tile count, window and downgrade point and checks Algorithm 1's
# call order, Test windows and one post per tile in tile order;
# TestDataPathMatchesByHand holds offt.Plan's ForwardInto/BackwardInto bit
# for bit to scatter, per-rank plan, gather composed by hand (recorded
# before the ranks took the scatter and gather over), and TestIntoInPlace
# the ordering that lets dst be data now that they hold the caller's arrays
# (the root package's -race pass above runs both under the detector).
# TestSlabBitsPinned holds pfft.Plan's forward and backward output bits on
# four grids, every variant, serial and with two workers, to hashes
# recorded before FFTz wrote the transposed slab itself,
# TestRunManyBitsPinned RunMany's per-array output bits to hashes recorded
# before it ran on pfft.Pipeline,
# TestFusedFFTzWorkerRows that four workers, whose row chunks end mid
# x-plane, give the serial bits, and
# TestStridedRowsToBitIdentical the 1-D driver's independent read and write
# strides that kernel runs on to TransformRows plus an index copy.
go test -count=1 -run 'TestGoldenSmallScale' ./internal/harness/
go test -count=1 -run 'TestVirtualTimesPinned|TestDataPathMatchesByHand|TestIntoInPlace' .
go test -count=1 -run 'TestScriptedTracePinned|TestTracePinned' ./internal/mpi/sim/ ./internal/vclock/
go test -count=1 -run 'TestPipelineOrder|TestSlabBitsPinned|TestRunManyBitsPinned|TestFusedFFTzWorkerRows' ./internal/pfft/
go test -count=1 -run 'TestStridedRowsToBitIdentical' ./internal/fft/
go test -count=1 -run 'TestTuneSequencePinned' ./internal/tuner/

# The recorded recovery histories (mpi.Health) of both engines, twenty
# times under the race detector: every counter exact but net's Backoffs,
# which is bounded by Retransmits (a resend re-arms its timer only if the
# ack has not crossed the loopback yet).
go test -race -count=20 -run 'TestHealthMatchesRecordedRun' ./internal/mpi/net/ ./internal/mpi/mem/

# Multi-process leg: spawn real offt-run -engine net children over
# 127.0.0.1, assert the forward/backward round-trip at 1e-9 and
# bit-identical dumps vs the mem engine, and assert survivors of a killed
# rank exit with the typed world failure instead of hanging. Beside them,
# the built offt-run on every engine and decomposition: mem runs verify,
# sim runs print the cost model's times (a stalled slab run included), the
# pencil trace parses with one track per rank, and a 2-rank net pencil
# world runs the parameters a mem run resolves.
go test -count=1 -run 'NetWorld|RunCommand' ./cmd/offt-run/

# Allocation gate: steady-state Forward/Backward on a reusable plan must
# run allocation-free (measured against the zero-alloc self communicator;
# see internal/pfft/plan_test.go) — one subtest per exchange schedule, so
# schedule plumbing cannot add per-run allocations. -count=1 defeats the
# test cache so the gate re-measures every run.
go test -run 'SteadyStateAllocs' -count=1 ./internal/pfft/

# Exchange allocation gate (PR 14): the same plan reuse on the engines
# that move data — mem worlds of 2 and 4 ranks and a 4-rank net world over
# loopback, slab and pencil, forward and backward, at 64-cubed — must cost
# O(1) objects per rank and collective and under 1% of the grid's bytes
# per transform (steady_test.go); the arena's own round trip must cost
# nothing, and its 4 MiB classes must hand a buffer out again after one
# collection and let it go after two (serve-64-p2's alloc_kb_per_op is
# steady only while that holds). Not under -race: the instrumented runtime
# allocates on its own.
go test -run 'SteadyState|TestLargeClassLifetime' -count=1 . ./internal/arena/

# Simulator allocation gate (PR 21): one SimulateCube(umd-cluster, 16,
# 128-cubed, NEW, default parameters) must cost at most half a heap object
# per simulated point-to-point message (0.28 measured; 21.8 before requests
# became their own queue links and event records) — the benchmark's
# model.allocs_per_eval over simnet.msgs_per_eval, and what a tuning run
# pays 39 times.
go test -run 'TestSimulateAllocs' -count=1 ./internal/model/

# Flight-record ordering (PR 14): a client that has read its whole
# response must find the request in the flight recorder at once. The race
# used to lose about one run in ten.
go test -run 'TestObserveRequestIDEcho' -count=50 ./internal/serve/

# Span closure: the share of a request's exec span its per-phase spans
# explain, taken from the second request of a 64-cubed plan where it is
# stable (about 0.80 slab, 0.72 pencil). It used to be read off the first
# 16-cubed request and lost 7 to 10 runs in a hundred.
go test -run 'TestObserveRequestSpanTree' -count=50 ./internal/serve/

# Every file the legs below write lives in a fresh temp dir and every
# server listens on a port the kernel picks, so two verify runs cannot
# collide and the tree is left as it was found (checked at the end).
SMOKE=$(mktemp -d)
PIDS=
trap 'kill $PIDS 2>/dev/null || true; rm -rf "$SMOKE"' EXIT

# Observability smoke run: a real experiment with telemetry attached must
# succeed and leave a non-empty metrics snapshot carrying the tuner's and
# the model's instrumentation.
go run ./cmd/offt-bench -scale small -metrics "$SMOKE/metrics.json" table2a
grep -q '"tuner.evals"' "$SMOKE/metrics.json"
grep -q '"model.new.overlap_efficiency"' "$SMOKE/metrics.json"

# offt-tune smoke runs, exit status only: both decompositions resolve the
# default point with offt.DescribePlan and time it and the tuned point on
# Sim plans.
go run ./cmd/offt-tune -decomp pencil -p 8 -n 32 -evals 20 > "$SMOKE/tune-pencil.txt"
go run ./cmd/offt-tune -p 16 -n 128 -evals 40 > "$SMOKE/tune-slab.txt"

# Service-layer load test: self-hosted offt-serve driven by the closed-loop
# generator at 1x/4x/16x concurrency. offt-load exits nonzero when a gate
# fails: a clean 1x phase, 429 shedding without hard failures at 16x, and
# a plan-cache hit rate of at least 0.9. Throughput is measured by the
# BENCHMARK.json ledger, not gated here.
go run ./cmd/offt-load -duration 2s -out "$SMOKE/load-self.json"

# Decomposition crossover gate at paper scale: some pencil point beyond the
# slab rank cap must beat the slab's best virtual time, and every slab row
# built through the plan API must match the cost model's default-NEW time
# exactly. offt-bench exits nonzero when a gate fails. The small-scale
# crossover and schedule-crossover gates run in TestExtensionExperiments.
go run ./cmd/offt-bench -scale paper crossover

# offt-serve binary smoke: boot the real server with tracing and
# structured logs on, push 64-cubed p=4 transforms through the HTTP path
# with offt-load, scrape /metrics and the flight recorder, and shut the
# process down with SIGTERM to exercise the drain path.
go build -o "$SMOKE/offt-serve" ./cmd/offt-serve

# wait_addr FILE: block until the offt-serve writing FILE has announced
# its listener, then print that host:port.
wait_addr() {
    tries=0
    until grep -q 'listening on http://' "$1" 2>/dev/null; do
        tries=$((tries + 1))
        if [ "$tries" -gt 100 ]; then
            echo "offt-serve did not start:" >&2
            cat "$1" >&2
            return 1
        fi
        sleep 0.1
    done
    sed -n 's#.*listening on http://\([^ ]*\).*#\1#p' "$1" | head -n 1
}

# free_addr: a loopback host:port the kernel has just handed out — boot
# the server on port 0, read the address back, stop it. The fleet below
# needs its replicas' addresses before either starts.
free_addr() {
    "$SMOKE/offt-serve" -addr 127.0.0.1:0 > "$SMOKE/probe.out" 2>&1 &
    probe=$!
    probed=$(wait_addr "$SMOKE/probe.out")
    kill -TERM "$probe"
    wait "$probe"
    echo "$probed"
}

"$SMOKE/offt-serve" -addr 127.0.0.1:0 -trace -log-level info \
    -log-out "$SMOKE/serve.log" > "$SMOKE/serve.out" 2>&1 &
SERVE_PID=$!
PIDS="$PIDS $SERVE_PID"
ADDR=$(wait_addr "$SMOKE/serve.out")
go run ./cmd/offt-load -addr "$ADDR" -conc 1 -duration 1s -warmup 2 \
    -gate auto -out "$SMOKE/load.json" -wait-ready 10s
curl -sf "http://$ADDR/metrics" | grep -q 'serve_plan_cache_hits'
curl -sf "http://$ADDR/metrics" | grep -q 'serve_slo_transform_total'
curl -sf "http://$ADDR/healthz" | grep -q '"slo"'
curl -sf "http://$ADDR/debug/requests" | grep -q '"total_ns"'
kill -TERM "$SERVE_PID"
wait "$SERVE_PID"
grep -q '"event":"request.done"' "$SMOKE/serve.log"

# 2-shard fleet smoke (PR 10): two offt-serve replicas with the
# consistent-hash router between them, driven round-robin by offt-load's
# comma-separated -addr. Every request names the same plan key, so one
# replica owns it and the other must forward — the healthz shard section
# of at least one replica must show a nonzero forward count. Both
# replicas then drain cleanly on SIGTERM.
SHARD1=$(free_addr)
SHARD2=$(free_addr)
"$SMOKE/offt-serve" -addr "$SHARD1" -shard-of "http://$SHARD1" \
    -peers "http://$SHARD1,http://$SHARD2" &
SHARD1_PID=$!
"$SMOKE/offt-serve" -addr "$SHARD2" -shard-of "http://$SHARD2" \
    -peers "http://$SHARD1,http://$SHARD2" &
SHARD2_PID=$!
PIDS="$PIDS $SHARD1_PID $SHARD2_PID"
# A replica probes its peers at boot and then every 2 s: the one that came
# up first holds the other for down until its next round, and would serve
# the owner's key itself instead of forwarding. Load once both see a
# whole ring.
for shard in "$SHARD1" "$SHARD2"; do
    tries=0
    until curl -sf "http://$shard/healthz" | grep -q '"up":true' &&
        ! curl -sf "http://$shard/healthz" | grep -q '"up":false'; do
        tries=$((tries + 1))
        [ "$tries" -le 100 ]
        sleep 0.1
    done
done
go run ./cmd/offt-load -addr "$SHARD1,$SHARD2" -conc 1 \
    -duration 1s -warmup 2 -gate auto -out "$SMOKE/fleet.json" -wait-ready 10s
{ curl -sf "http://$SHARD1/healthz" || true; \
  curl -sf "http://$SHARD2/healthz" || true; } \
    | grep -q '"forwarded":[1-9]'
kill -TERM "$SHARD1_PID" "$SHARD2_PID"
wait "$SHARD1_PID"
wait "$SHARD2_PID"

# Nothing above may create or change a file in the tree.
if [ "$(git status --porcelain)" != "$STATUS_BEFORE" ]; then
    echo "verify.sh changed the working tree:" >&2
    git status --porcelain >&2
    exit 1
fi
