package main

import (
	"fmt"
	"time"

	"pqs"
	"pqs/internal/config"
	"pqs/internal/core"
	"pqs/internal/load"
	"pqs/internal/sim"
)

// The three planes a workload can run on. The plane decides which layers
// do the work and which are bypassed (see README.md).
const (
	planeTCP = "tcp" // kernel loopback TCP, wall clock
	planeMem = "mem" // transport.MemNetwork, zero latency, wall clock
	planeSim = "sim" // load.Run under a vtime.SimClock, open loop
)

// workload is one fixed set of inputs. Names are cited by later issues and
// by BENCHMARK.json; do not rename.
type workload struct {
	name  string
	plane string
	// calib names the calibration kernels that resemble what the workload
	// spends its time on (calib.go).
	calib []kernel

	// Wall-clock shape (tcp and mem planes).
	sys       pqs.Config
	valueSize int
	keys      int
	readPct   int
	forgers   int

	// load builds the sim-plane configuration. small shrinks it to smoke
	// size (n <= 100, a few hundred ops) for bench_test.go.
	load func(seed int64, small bool) (load.Config, error)
}

var workloads = []workload{
	{
		// transport does most of the work: syscalls, flusher, frame scan,
		// server worker pool.
		name: "tcp-small", plane: planeTCP,
		calib:     []kernel{kernelGoWork, kernelLoopback},
		sys:       pqs.Config{N: 25, Q: 10},
		valueSize: 36, keys: 1024, readPct: 90,
	},
	{
		// The same stack moved by bytes instead of frames, with writes
		// beside reads: a 16 KiB frame half-fills the 32 KiB bufio.
		name: "tcp-large", plane: planeTCP,
		calib:     []kernel{kernelGoWork, kernelLoopback},
		sys:       pqs.Config{N: 25, Q: 10},
		valueSize: 16 << 10, keys: 256, readPct: 50,
	},
	{
		// Transport is a function call: register + quorum + replica are
		// all of the work. The paper's n=100, eps<=1e-3 example (q=23).
		name: "mem-fanout", plane: planeMem,
		calib:     []kernel{kernelGoWork},
		sys:       pqs.Config{N: 100, Epsilon: 1e-3},
		valueSize: 36, keys: 1024, readPct: 90,
	},
	{
		// Fault-injected Byzantine run: ed25519 (sv) owns the cost.
		name: "mem-dissem", plane: planeMem,
		calib:     []kernel{kernelVerify},
		sys:       pqs.Config{N: 100, Mode: pqs.ModeDissemination, B: 10, Epsilon: 1e-3},
		valueSize: 36, keys: 256, readPct: 50, forgers: 10,
	},
	{
		// Population-scale epsilon: vtime scheduler, inline dispatch,
		// load/chaos checker and store memory; VirtualNet is bypassed.
		name: "sim-mem", plane: planeSim,
		calib: []kernel{kernelGoWork},
		load: func(seed int64, small bool) (load.Config, error) {
			n, clients, arrivals, latOps, crash := 1000, 2000, 3, 500, 10
			if small {
				n, clients, arrivals, latOps, crash = 100, 40, 3, 40, 2
			}
			return simConfig("bench/sim-mem", n, clients, arrivals, latOps, crash, sim.TransportMem, seed)
		},
	},
	{
		// The real framing path over VirtualNet chunk delivery, under
		// virtual time.
		name: "sim-tcpv", plane: planeSim,
		calib: []kernel{kernelGoWork},
		load: func(seed int64, small bool) (load.Config, error) {
			n, clients, arrivals, latOps := 144, 8, 200, 500
			if small {
				n, clients, arrivals, latOps = 64, 2, 30, 40
			}
			return simConfig("bench/sim-tcpv", n, clients, arrivals, latOps, 0, sim.TransportTCPVirtual, seed)
		},
	},
}

// simConfig is one load.Run round: R(n, 2*sqrt(n)) in pair mode, then a
// hedged latency phase under 200-800us of injected per-link delay (virtual
// time). The tuning block is the one the shipped scale/ matrix uses.
func simConfig(name string, n, clients, arrivals, latOps, crash int, plane string, seed int64) (load.Config, error) {
	sys, err := core.NewEpsilonIntersectingEll(n, 2)
	if err != nil {
		return load.Config{}, err
	}
	return load.Config{
		Name: name, System: sys,
		Clients: clients, Arrivals: arrivals, CrashN: crash,
		Seed: seed, Bound: sys.EpsilonBound(),
		Tuning: config.Tuning{
			Spares:        2,
			HedgeDelay:    2 * time.Millisecond,
			AdaptiveHedge: true,
			EagerRead:     true,
		},
		Topology: config.Topology{
			Transport:  plane,
			LatencyMin: 200 * time.Microsecond,
			LatencyMax: 800 * time.Microsecond,
		},
		LatencyOps: latOps,
	}, nil
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}
