// The run loop every simulated run shares: a Rig (the run's SimClock and
// World), Rig.Drive (a heap of client arrivals) and a Recorder (which
// numbers each op and judges it). Run drives its pairs as one client with
// no gap between its arrivals, the load generator (internal/load)
// thousands on an open-loop grid: what differs is each client's gap and
// step.
//
// The clients are not workers. Drive keeps every client's next arrival in
// a heap ordered by (instant, insertion sequence), sleeps to the earliest,
// draws that client's next gap, runs its step and re-inserts it. So
// same-instant arrivals run in insertion order, a client re-inserted at an
// instant runs after those already waiting there, and a zero-gap client
// arrives again at once, without the clock moving. Each client draws in
// one fixed order (a gap, then its step's own draws), so a run whose steps
// share state only at instants off the arrival grid replays byte-for-byte.
package chaos

import (
	"container/heap"
	"time"

	"pqs/internal/config"
	"pqs/internal/diffusion"
	"pqs/internal/quorum"
	"pqs/internal/register"
	"pqs/internal/sim"
	"pqs/internal/vtime"
)

// A Rig is the world a simulated run stands in: its SimClock, its
// sim.World on either plane, the diffusion group Diffuse built (nil
// before) and, once faults hooked it in, the mem plane's Engine.
type Rig struct {
	Clock           *vtime.SimClock
	World           *sim.World
	Gossip          *diffusion.Group
	seed, faultSeed int64
	eng             *Engine
}

// Simulate builds cluster's World on plane under a fresh SimClock, its link
// faults seeded by faultSeed, runs body on the clock's first worker and
// tears the World down. It returns body's result and the virtual time body
// covered, read before the teardown, whose close → FIN → EOF chains end
// when the Go scheduler has them end.
func Simulate[T any](cluster config.Cluster, plane string, faultSeed int64, opts sim.TCPOptions, body func(*Rig) (T, error)) (out T, simSeconds float64, err error) {
	clk := vtime.NewSimClock()
	clk.Run(func() {
		cluster.Clock = clk
		var world *sim.World
		if world, err = sim.NewWorld(cluster, plane, faultSeed, opts); err != nil {
			return
		}
		defer world.Close()
		if out, err = body(&Rig{Clock: clk, World: world, seed: cluster.Seed, faultSeed: faultSeed}); err == nil {
			simSeconds = clk.Elapsed().Seconds()
		}
	})
	return out, simSeconds, err
}

// faults returns the plane's link-fault injector: the VirtualNet on
// tcp-virtual; on mem an Engine, hooked in on the first call (a hooked
// network runs every call through it, faults or not).
func (r *Rig) faults() linkFaults {
	if r.World.VNet != nil {
		return r.World.VNet
	}
	if r.eng == nil {
		r.eng = NewEngine(r.faultSeed)
		r.World.Cluster.Net.SetLinkHook(r.eng)
	}
	return r.eng
}

// Diffuse builds the run's diffusion group over every replica, fanout
// peers a round, seeded by the run seed.
func (r *Rig) Diffuse(fanout int) (err error) {
	r.Gossip, err = diffusion.NewGroup(r.World.Cluster.Replicas, r.World.GossipTransport(), fanout, nil, r.seed, r.Clock)
	return err
}

// SleepUntil advances the calling worker to absolute virtual instant t; an
// instant already past costs nothing.
func (r *Rig) SleepUntil(t time.Duration) {
	if d := t - r.Clock.Elapsed(); d > 0 {
		r.Clock.Sleep(d)
	}
}

// A Client is one member of a population Drive steps.
type Client interface {
	// Gap is the wait from the client's current arrival to its next.
	Gap() time.Duration
	// Step runs the client's operation at its t-th arrival (t from 0).
	Step(t int) error
}

// arrival is one client's next arrival in Drive's heap.
type arrival struct {
	at  time.Duration
	seq uint64 // insertion order: the tie-break between equal instants
	n   int    // arrivals the client has made
	c   Client
}

// arrivals is a min-heap of arrival by (at, seq).
type arrivals []arrival

func (h arrivals) Len() int { return len(h) }
func (h arrivals) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h arrivals) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *arrivals) Push(x any)   { *h = append(*h, x.(arrival)) }
func (h *arrivals) Pop() any {
	old := *h
	a := old[len(old)-1]
	*h = old[:len(old)-1]
	return a
}

// Drive runs every client's n arrivals on the calling worker, the first a
// Gap after instant 0, and returns the error of the first step that fails.
func (r *Rig) Drive(clients []Client, n int) error {
	h := make(arrivals, len(clients))
	for i, c := range clients {
		h[i] = arrival{at: c.Gap(), seq: uint64(i), c: c}
	}
	heap.Init(&h)
	seq := uint64(len(h))
	for len(h) > 0 && n > 0 {
		a := &h[0]
		r.SleepUntil(a.at)
		t := a.n
		a.n++
		a.at += a.c.Gap()
		if err := a.c.Step(t); err != nil {
			return err
		}
		if h[0].n == n {
			heap.Pop(&h)
			continue
		}
		h[0].seq = seq
		seq++
		heap.Fix(&h, 0)
	}
	return nil
}

// A Recorder numbers a run's ops in the order they complete and hands each
// to the run's Checker, whose verdict Result returns.
type Recorder struct {
	*Checker
	seq int
}

// NewRecorder returns the recorder of a run of sys in mode over cells
// quorum cells, tested against bound: by the time-decayed verdict when
// timed (the run churns its membership), else by the flat one.
func NewRecorder(mode register.Mode, sys quorum.System, bound float64, cells int, timed bool) *Recorder {
	cfg := CheckConfig{Mode: mode, Bound: bound, Cells: cells}
	if timed {
		q := sys.QuorumSize()
		cfg.Timed = &TimedBound{N: sys.N(), QW: q, QR: q, Base: bound}
	}
	return &Recorder{Checker: NewChecker(cfg)}
}

// Record completes op — its sequence number, the cell cl routes its key to
// and err's text — adds it to the checker and returns it.
func (r *Recorder) Record(cl *register.Client, op Op, err error) Op {
	op.Seq = r.seq
	r.seq++
	op.Cell = cl.CellFor(op.Key)
	if err != nil {
		op.Err = err.Error()
	}
	r.Add(op)
	return op
}
