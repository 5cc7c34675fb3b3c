// Adversary-replica library: Byzantine behaviors beyond the colluding
// forger the sim package installs, plus helpers for placing an adversary
// set where it hurts the most.
package chaos

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync/atomic"
	"time"

	"pqs/internal/quorum"
	"pqs/internal/replica"
	"pqs/internal/sim"
	"pqs/internal/ts"
	"pqs/internal/vtime"
	"pqs/internal/wire"
)

// forgedStampBase keeps fabricated timestamps above anything an honest
// writer can reach while leaving room for per-call increments.
const forgedStampBase = math.MaxUint64 / 2

// Equivocator answers every read with a *different* fabricated value-stamp
// pair (a per-call counter makes replies unique and the sequence
// deterministic), and acknowledges writes without applying them. Against a
// masking system with threshold k >= 2 its replies can never gather k
// vouchers, so equivocation is strictly weaker than collusion — which is
// exactly what the masking analysis predicts and the equivocation scenario
// measures.
type Equivocator struct {
	// ID distinguishes the fabricated values of different equivocators.
	ID quorum.ServerID
	n  atomic.Uint64
}

// OnRead implements replica.Behavior.
func (e *Equivocator) OnRead(_ string, _ wire.ReadReply) (wire.ReadReply, error) {
	n := e.n.Add(1)
	return wire.ReadReply{
		Found: true,
		Value: []byte(fmt.Sprintf("equivocate:%d:%d", e.ID, n)),
		Stamp: ts.Stamp{Counter: forgedStampBase + n, Writer: 0xEEEE},
		Sig:   []byte("equivocation-has-no-signature"),
	}, nil
}

// OnWrite implements replica.Behavior: acknowledges without storing.
func (e *Equivocator) OnWrite(wire.WriteRequest) (bool, error) { return false, nil }

// SlowLorris answers correctly but ever more slowly: the i-th call is
// delayed i*Step, capped at Max. It models a server that degrades under
// load instead of failing, the adversary that latency hedging (PR 1) is
// designed to absorb; in the chaos harness it demonstrates that slowness
// alone can never affect safety, only latency. SlowDown builds it on the
// run's SimClock, so the degradation takes virtual time, not wall time (a
// nil Clock sleeps on the wall clock).
type SlowLorris struct {
	Step  time.Duration
	Max   time.Duration
	Clock vtime.Clock
	n     atomic.Uint64
}

func (s *SlowLorris) delay() {
	d := time.Duration(s.n.Add(1)) * s.Step
	if s.Max > 0 && d > s.Max {
		d = s.Max
	}
	vtime.Or(s.Clock).Sleep(d)
}

// OnRead implements replica.Behavior.
func (s *SlowLorris) OnRead(_ string, correct wire.ReadReply) (wire.ReadReply, error) {
	s.delay()
	return correct, nil
}

// OnWrite implements replica.Behavior.
func (s *SlowLorris) OnWrite(wire.WriteRequest) (bool, error) {
	s.delay()
	return true, nil
}

// StaleEcho is the stale-echo adversary: it acknowledges every write
// without applying it and keeps serving whatever it held when it turned
// faulty — the "old value" attack that timestamp ordering must defeat.
// (It is replica.Stale under its adversary-library name.)
func StaleEcho() replica.Behavior { return replica.Stale{} }

// Colluders returns the shared behavior of a colluding forger set: every
// member serves the same fabricated value under the same overwhelming
// timestamp, so their replies pool into a single candidate — the strongest
// read-side adversary the masking analysis covers, defeated only by the
// threshold k (or by signatures in dissemination mode).
func Colluders(value string) replica.Behavior {
	return replica.Forger{
		Value: []byte(value),
		Stamp: ts.Stamp{Counter: forgedStampBase, Writer: 0xFFFF},
		Sig:   []byte("colluders-have-no-valid-signature"),
	}
}

// MostSampled empirically ranks servers by how often the system's access
// strategy samples them and returns the b most-sampled ids (ties broken by
// id, so the placement is deterministic given the seed). For the uniform
// strategy every placement is equivalent; for structured or weighted
// strategies this is where a colluding B-set does the most damage, since
// P(|Q ∩ B| >= k) grows with the members' access frequency.
func MostSampled(sys quorum.System, b, trials int, seed int64) []quorum.ServerID {
	rng := rand.New(rand.NewSource(seed))
	counts := make([]int, sys.N())
	for i := 0; i < trials; i++ {
		for _, id := range sys.Pick(rng) {
			counts[id]++
		}
	}
	ids := make([]quorum.ServerID, sys.N())
	for i := range ids {
		ids[i] = quorum.ServerID(i)
	}
	sort.SliceStable(ids, func(i, j int) bool {
		if counts[ids[i]] != counts[ids[j]] {
			return counts[ids[i]] > counts[ids[j]]
		}
		return ids[i] < ids[j]
	})
	if b > len(ids) {
		b = len(ids)
	}
	return ids[:b:b]
}

// Install sets the behavior of every listed replica in the cluster,
// skipping ids that are not (or no longer) members. For behaviors with
// per-replica state (Equivocator, SlowLorris) use InstallEach.
func Install(c *sim.Cluster, b replica.Behavior, ids ...quorum.ServerID) {
	for _, id := range ids {
		for _, r := range c.Replicas {
			if r.ID() == id {
				r.SetBehavior(b)
			}
		}
	}
}

// InstallEach installs a freshly made behavior per listed replica.
func InstallEach(c *sim.Cluster, mk func(id quorum.ServerID) replica.Behavior, ids ...quorum.ServerID) {
	for _, id := range ids {
		for _, r := range c.Replicas {
			if r.ID() == id {
				r.SetBehavior(mk(id))
			}
		}
	}
}
