# Tier-1 verification and developer shortcuts. CI (.github/workflows/ci.yml)
# runs these same targets on every push: `make ci` is the tier1 job, and the
# lint / flake / chaos-short / flake-tcp (the chaos-tcp job) / sim-fast /
# sim-scale / fuzz-smoke / bench-regress targets back the remaining jobs
# one-for-one, so a green `make ci-full` locally means a green wall.

GO ?= go

# bench-json iteration budget: 1s for real measurements, overridable (CI's
# bench-smoke passes 1x to guard against bit-rot without timing flakiness).
BENCHTIME ?= 1s

.PHONY: all build test vet lint loc deadcode paper golden race flake flake-tcp tier1 ci ci-full bench bench-tail bench-json bench-smoke bench-regress bench-e2e bench-e2e-smoke bench-compare chaos-short chaos-tcp fuzz-smoke sim-fast sim-scale epsilon-json e2e-smoke golden-load

all: ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The determinism lint wall (internal/lint): six analyzers (wallclock, rawgo,
# globalrand, lockspan, epsblind, deadexport) plus the bundled vet-lite
# passes, with mandatory-reason //pqslint:allow suppressions. Must exit 0 on
# the whole tree; see the "Static analysis & determinism invariants" section
# of README.md.
lint:
	$(GO) run ./cmd/pqs-lint ./...

# Non-test Go lines (wc -l: comments and blanks included) per top-level
# package (cmd/x, examples/x, internal/x; a package's testdata counts with
# it), then in total; bench/ is listed but kept out of the total, since only
# a benchmark PR may change it. ROADMAP item 2 asks every deletion PR to
# quote these numbers before and after.
loc:
	@find . -name '*.go' ! -name '*_test.go' | sort | xargs wc -l | awk '\
		$$2 == "total" { next } \
		{ k = split($$2, p, "/"); d = "."; \
		  if (k > 2) d = (p[2] ~ /^(cmd|examples|internal)$$/ && k > 3) ? p[2] "/" p[3] : p[2]; \
		  if (!(d in n)) order[++dirs] = d; n[d] += $$1 } \
		END { \
			for (i = 1; i <= dirs; i++) { d = order[i]; printf "%7d %s\n", n[d], d; if (d != "bench") total += n[d] } \
			printf "%7d total outside bench/\n", total }'

# Code that is referenced but never runs (ROADMAP 7(b)): the whole suite
# under one coverage profile of the product packages, then every function
# it leaves at 0 %. A test failure fails the target (its coverage would be
# short). Staged in a temp dir that is removed on exit.
deadcode:
	@d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) test -count=1 -coverpkg=./internal/...,pqs -coverprofile="$$d/cover.out" ./... > "$$d/test.log" 2>&1 \
		|| { grep -v '^ok\|no test files' "$$d/test.log"; exit 1; }; \
	$(GO) tool cover -func="$$d/cover.out" | awk '$$NF == "0.0%"'

# The paper's evaluation, regenerated: every table and figure (Tables 1-4,
# Figures 1-3) plus the ablation and validation studies, as cmd/pqs-experiments
# prints them (seeded, so byte-for-byte reproducible; the CSV copies land in
# results/, which is not committed). CI reruns it and fails on any diff against
# the committed EXPERIMENTS.md, so a change that moves a paper number says so.
# Staged through a temp file so a failed run leaves the committed file alone.
paper:
	@{ echo '<!-- Generated by `make paper` (go run ./cmd/pqs-experiments); do not edit. -->'; echo; \
		$(GO) run ./cmd/pqs-experiments; } > EXPERIMENTS.md.tmp
	@mv EXPERIMENTS.md.tmp EXPERIMENTS.md

# The behaviour ledger, regenerated: testdata/golden.json holds every value
# a seeded run pins. Its "chaos" rows are the 44 rows of `pqs-chaos -scale 1
# -seed 1 -negative -transport mem,tcp-virtual` (history fingerprint,
# virtual time, verdict), its "load" rows the 7 rows of `pqs-chaos -load
# -seed 1 -negative`, and its "digests" rows the six configs
# TestGoldenDigests runs, read back from the "golden row" lines it logs
# (digest, virtual time, latency p50, reads, eligible reads, eligible bad,
# verdict). TestGoldenHistories and TestGoldenDigests pin against it, so a
# change that moves behaviour reruns this and commits the file: its diff is
# the record of every moved value. A moved value fails those tests, and a
# row may fail its bound, so their exit status is not this target's; a row
# that is missing is. Needs jq. Staged through a temp file, as paper is.
golden_row = {name, transport, digest, sim_seconds, p50_ms: (.p50_ms // 0), reads, eligible_reads, eligible_bad, pass}
golden_jq = def row: $(golden_row); \
	if ($$g | length) == 0 then error("TestGoldenDigests logged no rows") else . end | \
	{chaos: [$$c[0].scenarios[] | {name, transport, history_sha256, sim_seconds: (.sim_seconds // 0), pass: .check.pass}], \
	 load: [$$l[0].scenarios[] | row], \
	 digests: ($$g | sort_by(.name) | map(row))}
golden:
	@d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) run ./cmd/pqs-chaos -scale 1 -seed 1 -negative -transport mem,tcp-virtual -o "$$d/chaos.json" 2>/dev/null; \
	$(GO) run ./cmd/pqs-chaos -load -seed 1 -negative -o "$$d/load.json" 2>/dev/null; \
	$(GO) test -count=1 -v -run '^TestGoldenDigests$$' ./internal/load | sed -n 's/^.*golden row: //p' > "$$d/digests.json"; \
	jq -n --slurpfile c "$$d/chaos.json" --slurpfile l "$$d/load.json" --slurpfile g "$$d/digests.json" '$(golden_jq)' > testdata/golden.json.tmp
	@mv testdata/golden.json.tmp testdata/golden.json

# The ledger's 7 load rows, checked without rewriting it: make ci reruns
# `pqs-chaos -load -seed 1 -negative` (about a minute on two cores) and
# fails on any row whose digest, virtual time, latency p50, read counts or
# verdict differs from testdata/golden.json, printing the diff. The load
# rows are the ones a change to the store, the register or the harness's
# scheduling reaches first; the chaos and digest rows run in go test.
golden-load:
	@d=$$(mktemp -d); trap 'rm -rf "$$d"' EXIT; \
	$(GO) run ./cmd/pqs-chaos -load -seed 1 -negative -o "$$d/load.json" 2>/dev/null; \
	jq '.load' testdata/golden.json > "$$d/want.json" && \
	jq '[.scenarios[] | $(golden_row)]' "$$d/load.json" > "$$d/got.json" && \
	diff "$$d/want.json" "$$d/got.json" && echo "golden-load: the ledger's load rows hold"

# vtime runs whole: under a SimClock, timer callbacks run on whichever
# parked worker drives the clock (or Run's caller), beside the workers they
# wake, and the driving flag alone keeps them one at a time. The sim line
# runs the state sim owns that requests and a reconfiguration reach
# concurrently, not the package: swapHandler, and World's view counter and
# membership changes against the calls they reset (on both planes); the
# package's determinism suites run under -race in the flake gate. The
# chaos package runs whole, in one process (under 1 GB of RSS since its
# virtual connections stopped holding a parked reader each). The load line
# holds a client's build cost to its bound under the detector too.
race:
	$(GO) test -race ./internal/register/ ./internal/transport/ ./internal/quorum/ ./internal/replica/ ./internal/diffusion/ ./internal/sv/ ./internal/vtime/
	$(GO) test -race -run 'TestSwapHandler|TestWorldContract' ./internal/sim/
	$(GO) test -race ./internal/chaos/
	$(GO) test -race -run 'TestClientFootprint' ./internal/load/

# The flake gate: every same-seed-twice determinism suite, twenty times
# over under the race detector. A determinism test that passes most runs is
# a simulator bug (ROADMAP aim 1); one run of `go test ./...` cannot tell
# "deterministic" from "usually equal", twenty can. About seventeen
# minutes on two cores, thirteen of them the chaos line (about 38 s a count
# under -race, TestGoldenHistories replaying all 44 ledger rows), which sets
# -timeout 40m: twenty counts exceed go test's ten-minute default.
# FLAKE_COUNT=N to vary. The chaos matrix
# over tcp-virtual rides along as flake-tcp, below, and the hedged,
# straggler and lossy runs the matrix leaves out as
# TestChaosDeterminismHedged. The chaos suites compare
# the virtual time a run covered (SimSeconds) as well as its history, so a
# clock read that races fixture teardown shows up here. The
# register's caller-path tests ride along: the same stream of operations
# must give the same results, drop pattern and replica contents whether its
# calls run on the caller or on workers (the worker side is scheduled by
# Go, so "the same" has to hold on every run), and a call that can park must
# never be run on the caller (exact virtual time). So does MemNetwork's
# golden replay: the counter hash every same-seed history rests on must
# produce the recorded drop verdicts and latency draws on every run. So do
# the pinned load digests and chaos history fingerprints (TestGoldenDigests,
# TestGoldenHistories): equal to each other twice is not enough, they must
# equal the recorded values on every run. So do vtime's replay and
# TestTheParkerDrivesTheClock: whichever parked worker drives the clock,
# callbacks must run one at a time and on the driver.
FLAKE_COUNT ?= 20
flake: flake-tcp
	$(GO) test -race -count=$(FLAKE_COUNT) -run 'Determinis|TheParkerDrivesTheClock|TestLoadTCPVirtual|TestGoldenDigests|TestInlineMatchesPoolDifferential|TestParkingCallsNeverRunOnTheCaller|TestMemNetworkGoldenReplay' . ./internal/vtime/ ./internal/load/ ./internal/transport/ ./internal/register/
	$(GO) test -race -count=$(FLAKE_COUNT) -timeout 40m -run 'TestChaosDeterminism(Hedged)?$$|TestGoldenHistories' ./internal/chaos/

# The tcp-virtual half of the flake gate, and the CI chaos-tcp job:
# chaos-tcp (every scenario twice per plane, byte-for-byte) FLAKE_TCP times
# over, about ten seconds a pass. A shell loop over the plain binary, not
# `go test -race -count`: a pass of the binary takes seconds, one of
# `go test -race ./internal/chaos/` over a minute (make race runs that once).
FLAKE_TCP ?= 5
flake-tcp:
	@i=1; while [ $$i -le $(FLAKE_TCP) ]; do \
		echo "chaos-tcp pass $$i of $(FLAKE_TCP)"; \
		$(MAKE) --no-print-directory chaos-tcp || exit 1; \
		i=$$((i+1)); \
	done

# tier1 is the repository's acceptance gate: it must pass from a clean
# checkout.
tier1: build test

# ci mirrors the CI tier1 job exactly (vet, lint, build, test, race,
# bench-smoke, bench-e2e-smoke, golden-load).
ci: vet lint tier1 race bench-smoke bench-e2e-smoke golden-load

# ci-full runs every CI job locally (flake includes flake-tcp), prints the
# 0 % coverage list (deadcode), then fails if `make paper` moved a number in
# the committed EXPERIMENTS.md or `make golden` a value in the committed
# ledger.
ci-full: ci flake chaos-short sim-fast sim-scale fuzz-smoke bench-regress deadcode paper golden
	git diff --exit-code EXPERIMENTS.md testdata/golden.json

bench:
	$(GO) test -bench=. -benchmem ./...

# The straggler-tolerance headline numbers: wait-for-all vs hedged p50/p99.
# (ε under hedging is a test, not a benchmark: make sim-fast.)
bench-tail:
	$(GO) test -run 'XXX' -bench 'ReadTailLatency' -benchtime 2s .

# The data-plane throughput numbers: codec encode/decode cost (binary vs
# encoding/gob, which survives only there, as the micro-benchmark's baseline:
# no transport speaks it) and end-to-end ops/sec over MemNetwork and TCP,
# recorded as machine-readable JSON so the perf trajectory across PRs has
# data points.
# Staged through a temp file rather than a pipe so a benchmark failure
# fails the target (/bin/sh has no pipefail).
bench-json:
	$(GO) test -run 'XXX' -bench '^(BenchmarkThroughput|BenchmarkCodec|BenchmarkHighFanIn)' -benchmem -benchtime $(BENCHTIME) . > BENCH_throughput.out
	$(GO) run ./cmd/benchjson < BENCH_throughput.out > BENCH_throughput.json
	@rm -f BENCH_throughput.out
	@echo "wrote BENCH_throughput.json"

# CI bit-rot guard: run every throughput/codec benchmark, the store's and
# the replica's cold-read benchmarks (their ns/get and ns/read are one more
# value-unit pair each to benchjson), the register's hedged read under a
# SimClock (every call started, completed by the clock), a read through
# the whole TCP stack over a VirtualNet (sim-tcpv's shape; goroutines/op)
# and a fire of SimClock's timer queue with 512 alarms armed, for one
# iteration, then one store's growth pause at its smallest size (2^14 keys;
# worst-ms and worst-gc-ms), and verify the JSON pipeline still produces a
# well-formed document. Staged through a scratch file so the committed
# BENCH_throughput.json — the bench-regress baseline — is never clobbered
# with 1-iteration rates.
bench-smoke:
	$(GO) test -run 'XXX' -bench '^(BenchmarkThroughput|BenchmarkCodec|BenchmarkHighFanIn|BenchmarkStoreGetCold|BenchmarkReplicaReadCold|BenchmarkVirtualHedgedRead|BenchmarkVirtualTCPRead|BenchmarkSimTimerQueue)' -benchmem -benchtime 1x . ./internal/replica/ ./internal/register/ ./internal/sim/ ./internal/vtime/ > BENCH_smoke.out
	$(GO) test -run 'XXX' -bench '^BenchmarkStoreGrowPause$$/^keys=16384$$' -benchtime 1x ./internal/replica/ >> BENCH_smoke.out
	$(GO) run ./cmd/benchjson < BENCH_smoke.out > BENCH_smoke.json
	@rm -f BENCH_smoke.out
	$(GO) run ./cmd/benchjson -check BENCH_smoke.json
	@rm -f BENCH_smoke.json

# The throughput regression gate: measure fresh numbers (full 1s rounds, so
# the rates are real) and compare them against the committed
# BENCH_throughput.json, failing on any benchmark whose ops/sec dropped by
# more than BENCH_TOLERANCE. The tolerance is 30%: wide enough to absorb
# run-to-run and runner-hardware noise (the committed baseline was measured
# on a developer machine; CI runners differ), narrow enough that a real
# data-plane regression — a lost fast path, an accidental extra syscall per
# frame — trips it. Refresh the baseline with `make bench-json` when a PR
# legitimately moves the numbers.
BENCH_TOLERANCE ?= 0.30
bench-regress:
	$(GO) test -run 'XXX' -bench '^(BenchmarkThroughput|BenchmarkCodec|BenchmarkHighFanIn)' -benchmem -benchtime $(BENCHTIME) . > BENCH_fresh.out
	$(GO) run ./cmd/benchjson < BENCH_fresh.out > BENCH_fresh.json
	@rm -f BENCH_fresh.out
	$(GO) run ./cmd/benchjson -compare BENCH_throughput.json BENCH_fresh.json -tolerance $(BENCH_TOLERANCE)
	@rm -f BENCH_fresh.json

# The repository's benchmark (bench/, contract in BENCHMARK.json): every
# workload untraced three times, then traced once, as one JSON document.
# Measure the parent commit and the change the same way and hand both
# documents to bench-compare, which applies BENCHMARK.json's bounds row by
# row (bench/README.md explains the load model and why the time-based
# metrics are scaled to a reference host speed):
#
#	make bench-e2e BENCH_E2E_OUT=/tmp/change.json
#	git stash && make bench-e2e BENCH_E2E_OUT=/tmp/parent.json && git stash pop
#	make bench-compare A=/tmp/parent.json B=/tmp/change.json
#
# Staged through a temp file so a failed run leaves no half-written document.
BENCH_E2E_OUT ?= bench/out/e2e.json
bench-e2e:
	@mkdir -p $(dir $(BENCH_E2E_OUT))
	$(GO) run ./bench -all -seed 1 -repeat 3 > $(BENCH_E2E_OUT).tmp
	@mv $(BENCH_E2E_OUT).tmp $(BENCH_E2E_OUT)
	@echo "wrote $(BENCH_E2E_OUT)"

bench-compare:
	@test -n "$(A)" -a -n "$(B)" || { echo "usage: make bench-compare A=parent.json B=change.json"; exit 2; }
	$(GO) run ./bench -compare $(A) $(B)

# CI bit-rot guard for the benchmark driver: two seconds each of the two
# workloads with no sockets in them, which still builds the binary, stands
# the system up, runs the correctness oracle and exits non-zero if it trips.
# mem-dissem is the Byzantine path: ten forgers among a hundred servers, so
# "no forged value is ever returned" and the binomial staleness gate are
# checked against on-demand verification on every push.
bench-e2e-smoke:
	$(GO) run ./bench -workload mem-fanout -seconds 2 > /dev/null
	$(GO) run ./bench -workload mem-dissem -seconds 2 > /dev/null

# The adversarial regression gate: the full chaos scenario matrix at small
# trial counts (seconds, deterministic in CHAOS_SEED), plus the negative
# scenario demonstrating the checker fails when ε exceeds the bound. Every
# row is its own SimClock world; rows run on a pool of half the cores (at
# most 4) and are reported in matrix order. A
# failing seed replays locally with the same command or with
# `go test ./internal/chaos -run TestChaos -chaos.seed=N`. -json records
# the per-scenario ε trend to BENCH_epsilon.out (uploaded as a CI
# artifact, like BENCH_throughput.json for throughput; ignored by git, so
# a gate run leaves the committed BENCH_epsilon.json as it is).
CHAOS_SEED ?= 1
chaos-short:
	$(GO) run ./cmd/pqs-chaos -scale 1 -seed $(CHAOS_SEED) -negative -json BENCH_epsilon.out -o /dev/null

# The real-wire chaos gate: the same scenario matrix over BOTH data planes
# (MemNetwork and the virtual-time TCP stack), each scenario run TWICE per
# plane with one seed — the run fails unless the histories replay
# byte-for-byte and the simulated durations (sim_seconds) match, which is
# the determinism contract for the data plane production actually runs. BENCH_epsilon.out gains one section per
# transport. Replay a CI failure locally with the same command and
# CHAOS_SEED=N, or `go test ./internal/chaos -run TCPVirtual -chaos.seed=N`.
chaos-tcp:
	$(GO) run ./cmd/pqs-chaos -scale 1 -seed $(CHAOS_SEED) -transport mem,tcp-virtual -verify-determinism -json BENCH_epsilon.out -o /dev/null

# The virtual-time gate: the long-form ε measurements (hundreds of
# write-then-read pairs through chaos.Run over sim's 100-server clusters,
# with tens of milliseconds of injected latency, stragglers and adaptive
# hedging — minutes of simulated time that used to be far too slow for CI)
# run under vtime.SimClock and must finish >= 50x (MemNetwork) / >= 20x
# (virtual TCP data plane) faster than the simulated duration, proving the
# speedup is real and gating regressions that reintroduce wall-clock waits
# into the simulated path; and adaptive hedging must not raise ε.
sim-fast:
	$(GO) test -run 'TestSimFastLongFormEpsilon|TestSimFastLongFormEpsilonTCP|TestAdaptiveHedgeEpsilonPreserved' -v ./internal/sim

# The population-scale gate: the internal/load scale/ matrix — 10k-client
# open-loop populations against n=1000 and n=2000 universes (plus a
# reduced-scale point on the real TCP stack), over a million operations in
# total, with churn waves gated by the time-decayed timed-quorum bound.
# Every scale point runs TWICE and must replay byte-for-byte (digest +
# full-result comparison); -negative proves the gate fails a view-blind
# storm; -budget 5m keeps the whole matrix CI-affordable, failing the
# target if simulation ever gets slow enough to blow the wall-clock
# budget. -json records per-scale-point ε / staleness-depth / tail-latency
# metrics to BENCH_epsilon.out (the CI artifact). Scale points are
# independent simulations, so they run on the chaos matrix's worker pool
# (half the cores, at most 4) without affecting any digest.
# A failing seed replays locally with the same command and CHAOS_SEED=N.
sim-scale:
	$(GO) run ./cmd/pqs-chaos -load -seed $(CHAOS_SEED) -negative -verify-determinism -json BENCH_epsilon.out -budget 5m -o /dev/null

# The committed ε record: the six scale/ points at seed 1, each run twice
# and replayed, written to BENCH_epsilon.json. Rerun it when a change moves
# a load outcome, and commit the file with the change.
epsilon-json:
	$(GO) run ./cmd/pqs-chaos -load -seed 1 -verify-determinism -json BENCH_epsilon.json -o /dev/null

# Ten seconds of coverage-guided fuzzing each for the binary codec's decode
# surface, the virtual byte-stream fault injector, the frame feed both
# transports read through (any chunking of a stream must cut the same
# frames and reach the same verdict as the whole stream), the dissemination
# read's selection over the registry's verified set (differential, against
# plain sv.Verify), the replica store's flat table (differential, against
# a plain map, under the real hash, under another seed and under a hash that
# forces one slot), the replica's delta-gossip and full-snapshot gossip responders
# (against one last-writer-wins model, with watermarks ahead of its sequence,
# duplicate and out-of-order stamps, and batches up to a cap) and the
# ring-view decoder a refreshing client feeds whatever ViewKey holds, so the
# fuzz targets actually execute in CI rather than only replaying their seed
# corpora. Each input that finds new coverage is minimized for at most 10
# runs (-fuzzminimizetime 10x): at the default of 60 s a target spends its
# budget minimizing and shows "0/sec", executing only in its first seconds.
fuzz-smoke:
	$(GO) test -run XXX -fuzz FuzzDecodeMessage -fuzztime 10s -fuzzminimizetime 10x ./internal/wire
	$(GO) test -run XXX -fuzz FuzzVNetFaultInjector -fuzztime 10s -fuzzminimizetime 10x ./internal/transport
	$(GO) test -run XXX -fuzz FuzzFrameFeed -fuzztime 10s -fuzzminimizetime 10x ./internal/transport
	$(GO) test -run XXX -fuzz FuzzSelectDissemination -fuzztime 10s -fuzzminimizetime 10x ./internal/register
	$(GO) test -run XXX -fuzz FuzzStoreAgainstModel -fuzztime 10s -fuzzminimizetime 10x ./internal/replica
	$(GO) test -run XXX -fuzz FuzzGossipDelta -fuzztime 10s -fuzzminimizetime 10x ./internal/replica
	$(GO) test -run XXX -fuzz FuzzGossipFull -fuzztime 10s -fuzzminimizetime 10x ./internal/replica
	$(GO) test -run XXX -fuzz FuzzDecodeView -fuzztime 10s -fuzzminimizetime 10x ./internal/ring

# The end-to-end smoke gate: build the real pqsd/pqs-cli binaries, stand a
# 5-replica cluster up on loopback TCP, write and read through the CLI, kill
# one server, and require reads to keep succeeding. Guarded behind PQS_E2E=1
# so ordinary `go test ./...` runs stay hermetic.
e2e-smoke:
	PQS_E2E=1 $(GO) test -run TestE2ESmoke -v -count=1 .
