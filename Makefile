# Tier-1 verification and developer shortcuts. CI (.github/workflows/ci.yml)
# runs these same targets on every push: `make ci` is the tier1 job, and the
# lint / flake / chaos-short / flake-tcp (the chaos-tcp job) / sim-fast /
# sim-scale / fuzz-smoke / bench-regress targets back the remaining jobs
# one-for-one, so a green `make ci-full` locally means a green wall.

GO ?= go

# bench-json iteration budget: 1s for real measurements, overridable (CI's
# bench-smoke passes 1x to guard against bit-rot without timing flakiness).
BENCHTIME ?= 1s

.PHONY: all build test vet lint loc race flake flake-tcp tier1 ci ci-full bench bench-tail bench-json bench-smoke bench-regress bench-e2e bench-e2e-smoke bench-compare chaos-short chaos-tcp fuzz-smoke sim-fast sim-scale e2e-smoke

all: ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# The determinism lint wall (internal/lint): wallclock, rawgo, globalrand,
# lockspan, epsblind plus the bundled vet-lite passes, with mandatory-reason
# //pqslint:allow suppressions. Must exit 0 on the whole tree; see the
# "Static analysis & determinism invariants" section of README.md.
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

# The sim line runs one structure, not the package: swapHandler is the only
# state sim owns that requests and a reconfiguration reach concurrently; the
# package's determinism suites run under -race in the flake gate.
race:
	$(GO) test -race ./internal/register/ ./internal/transport/ ./internal/quorum/ ./internal/replica/ ./internal/chaos/ ./internal/diffusion/ ./internal/sv/
	$(GO) test -race -run 'TestSwapHandler' ./internal/sim/

# The flake gate: every same-seed-twice determinism suite, twenty times
# over under the race detector. A determinism test that passes most runs is
# a simulator bug (ROADMAP aim 1); one run of `go test ./...` cannot tell
# "deterministic" from "usually equal", twenty can. About twelve minutes on
# two cores; FLAKE_COUNT=N to vary. The chaos matrix over tcp-virtual rides
# along as flake-tcp, below. The sim and chaos suites compare the
# virtual time a run covered (SimElapsed / SimSeconds) as well as its
# history, so a clock read that races fixture teardown shows up here. The
# register's caller-path tests ride along: the same stream of operations
# must give the same results, drop pattern and replica contents whether its
# calls run on the caller or on pool workers (the pool side is scheduled by
# Go, so "the same" has to hold on every run), and a call that can park must
# never be run on the caller (exact virtual time). So does MemNetwork's
# golden replay: the counter hash every same-seed history rests on must
# produce the recorded drop verdicts and latency draws on every run.
FLAKE_COUNT ?= 20
flake: flake-tcp
	$(GO) test -race -count=$(FLAKE_COUNT) -run 'Determinis|TestLoadTCPVirtual|TestInlineMatchesPoolDifferential|TestParkingCallsNeverRunOnTheCaller|TestMemNetworkGoldenReplay' . ./internal/load/ ./internal/transport/ ./internal/sim/ ./internal/register/
	$(GO) test -race -count=$(FLAKE_COUNT) -run 'TestChaosDeterminism$$' ./internal/chaos/

# The tcp-virtual half of the flake gate, and the CI chaos-tcp job:
# chaos-tcp (every scenario twice per plane, byte-for-byte) FLAKE_TCP times
# over, about fifteen seconds a pass. A shell loop over the plain binary, not
# `go test -race -count`: under the race detector `go test ./internal/chaos/`
# peaks at 9.1 GB of RSS in 129 s, and -race -count=3 of it was OOM-killed
# on a 16 GB box.
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
# bench-smoke, bench-e2e-smoke).
ci: vet lint tier1 race bench-smoke bench-e2e-smoke

# ci-full runs every CI job locally (flake includes flake-tcp).
ci-full: ci flake chaos-short sim-fast sim-scale fuzz-smoke bench-regress

bench:
	$(GO) test -bench=. -benchmem ./...

# The straggler-tolerance headline numbers: wait-for-all vs hedged p50/p99,
# and the empirical-ε validation with hedging enabled.
bench-tail:
	$(GO) test -run 'XXX' -bench 'ReadTailLatency|EpsilonBenignHedged|EpsilonMaskingHedged' -benchtime 2s .

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

# CI bit-rot guard: run every throughput/codec benchmark, and the store's
# cold-read benchmark (its ns/get is one more value-unit pair to benchjson),
# for one iteration and verify the JSON pipeline still produces a well-formed
# document. Staged through a scratch file so the committed
# BENCH_throughput.json — the bench-regress baseline — is never clobbered
# with 1-iteration rates.
bench-smoke:
	$(GO) test -run 'XXX' -bench '^(BenchmarkThroughput|BenchmarkCodec|BenchmarkHighFanIn|BenchmarkStoreGetCold)' -benchmem -benchtime 1x . ./internal/replica/ > BENCH_smoke.out
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
# scenario demonstrating the checker fails when ε exceeds the bound. A
# failing seed replays locally with the same command or with
# `go test ./internal/chaos -run TestChaos -chaos.seed=N`. -json records
# the per-scenario ε trend to BENCH_epsilon.json (uploaded as a CI
# artifact, like BENCH_throughput.json for throughput).
CHAOS_SEED ?= 1
chaos-short:
	$(GO) run ./cmd/pqs-chaos -scale 1 -seed $(CHAOS_SEED) -negative -json -o /dev/null

# The real-wire chaos gate: the same scenario matrix over BOTH data planes
# (MemNetwork and the virtual-time TCP stack), each scenario run TWICE per
# plane with one seed — the run fails unless the histories replay
# byte-for-byte, which is the determinism contract for the data plane
# production actually runs. BENCH_epsilon.json gains one section per
# transport. Replay a CI failure locally with the same command and
# CHAOS_SEED=N, or `go test ./internal/chaos -run TCPVirtual -chaos.seed=N`.
chaos-tcp:
	$(GO) run ./cmd/pqs-chaos -scale 1 -seed $(CHAOS_SEED) -transport mem,tcp-virtual -verify-determinism -json -o /dev/null

# The virtual-time gate: the long-form ε measurements (hundreds of trials
# over a 100-server cluster with tens of milliseconds of injected latency,
# stragglers and adaptive hedging — minutes of simulated time that used to
# be far too slow for CI) run under vtime.SimClock and must finish >= 50x
# (MemNetwork) / >= 20x (virtual TCP data plane) faster than the simulated
# duration, proving the speedup is real and gating regressions that
# reintroduce wall-clock waits into the simulated path.
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
# metrics to BENCH_epsilon.json (the CI artifact). Scale points are
# independent simulations, so they run on a bounded worker pool
# (-load-parallel, default half the cores) without affecting any digest.
# A failing seed replays locally with the same command and CHAOS_SEED=N.
sim-scale:
	$(GO) run ./cmd/pqs-chaos -load -seed $(CHAOS_SEED) -negative -verify-determinism -json -budget 5m -o /dev/null

# Ten seconds of coverage-guided fuzzing each for the binary codec's decode
# surface, the virtual byte-stream fault injector, the dissemination
# read's selection over the registry's verified set (differential, against
# plain sv.Verify) and the replica store's flat tables (differential, against
# a plain map, under the real hash and under hashes that force one shard and
# one slot), so the fuzz targets actually execute in CI rather than only
# replaying their seed corpora.
fuzz-smoke:
	$(GO) test -run XXX -fuzz FuzzDecodeMessage -fuzztime 10s ./internal/wire
	$(GO) test -run XXX -fuzz FuzzVNetFaultInjector -fuzztime 10s ./internal/transport
	$(GO) test -run XXX -fuzz FuzzSelectDissemination -fuzztime 10s ./internal/register
	$(GO) test -run XXX -fuzz FuzzStoreAgainstModel -fuzztime 10s ./internal/replica

# The end-to-end smoke gate: build the real pqsd/pqs-cli binaries, stand a
# 5-replica cluster up on loopback TCP, write and read through the CLI, kill
# one server, and require reads to keep succeeding. Guarded behind PQS_E2E=1
# so ordinary `go test ./...` runs stay hermetic.
e2e-smoke:
	PQS_E2E=1 $(GO) test -run TestE2ESmoke -v -count=1 .
