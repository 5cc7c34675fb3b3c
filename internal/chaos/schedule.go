// The scenario DSL: a Schedule is a list of events fired at logical times
// (write/read pair indices), each carrying actions that mutate the network,
// the membership, or replica behaviors. Because actions fire at operation
// boundaries and contain no randomness of their own, a schedule replays
// identically from the run seed.
package chaos

import (
	"fmt"
	"strings"
	"time"

	"pqs/internal/quorum"
	"pqs/internal/replica"
	"pqs/internal/transport"
)

// Action is one step of a fault schedule.
type Action interface {
	apply(rt *runtime)
	String() string
}

// Event fires one or more actions at logical time T (before the T-th
// write/read pair runs).
type Event struct {
	T    int
	Acts []Action
}

// At builds an event: At(100, Partition(...), Drop(0.1)).
func At(t int, acts ...Action) Event { return Event{T: t, Acts: acts} }

// Schedule is an ordered fault script. Events may be listed in any order;
// Run sorts them by time (stable, so same-time events fire in listing
// order).
type Schedule []Event

// String renders the schedule for reports.
func (s Schedule) String() string {
	var b strings.Builder
	for i, ev := range s {
		if i > 0 {
			b.WriteString("; ")
		}
		names := make([]string, len(ev.Acts))
		for j, a := range ev.Acts {
			names[j] = a.String()
		}
		fmt.Fprintf(&b, "@%d %s", ev.T, strings.Join(names, ","))
	}
	return b.String()
}

// linkFaults is the link-fault surface the two planes share. On the
// byte-stream plane a drop resets the connection (a stream cannot survive a
// gap), corruption flips a bit inside a framed chunk (which may break the
// length prefix, the body, or land in a payload byte the end-to-end
// defenses must absorb), and a block refuses dials and resets streams; the
// wildcards of Block agree by construction (see Any).
type linkFaults interface {
	Block(from, to quorum.ServerID)
	Heal()
	SetDrop(p float64)
	SetCorrupt(p float64)
	SetReorder(max time.Duration)
}

var (
	_ linkFaults = (*Engine)(nil)
	_ linkFaults = (*transport.VirtualNet)(nil)
)

// actionFunc adapts a closure to Action.
type actionFunc struct {
	name string
	fn   func(rt *runtime)
}

func (a actionFunc) apply(rt *runtime) { a.fn(rt) }
func (a actionFunc) String() string    { return a.name }

// Crash marks servers crashed (calls fail with ErrCrashed; on the
// byte-stream plane their connections are reset too).
func Crash(ids ...quorum.ServerID) Action {
	return actionFunc{fmt.Sprintf("crash%v", ids), func(rt *runtime) {
		for _, id := range ids {
			rt.World.Crash(id)
		}
	}}
}

// Recover clears servers' crashed state.
func Recover(ids ...quorum.ServerID) Action {
	return actionFunc{fmt.Sprintf("recover%v", ids), func(rt *runtime) {
		for _, id := range ids {
			rt.World.Recover(id)
		}
	}}
}

// membership is a Leave or Join action: a schedule that holds one churns
// the membership, and its run is judged by the timed verdict.
type membership struct{ actionFunc }

// churns reports whether the schedule holds a Leave or Join action.
func (s Schedule) churns() bool {
	for _, ev := range s {
		for _, a := range ev.Acts {
			if _, ok := a.(membership); ok {
				return true
			}
		}
	}
	return false
}

// Leave departs servers from the membership: subsequent calls to them fail
// with ErrUnknownServer, as if the address were gone. A diffusion group,
// when the run has one, stops gossiping with them too.
func Leave(ids ...quorum.ServerID) Action {
	return membership{actionFunc{fmt.Sprintf("leave%v", ids), func(rt *runtime) {
		for _, id := range ids {
			rt.World.Leave(id)
			if rt.Gossip != nil {
				if err := rt.Gossip.Replace([]quorum.ServerID{id}, nil); err != nil {
					panic(fmt.Sprintf("chaos: leave gossip %d: %v", id, err))
				}
			}
		}
	}}}
}

// Join (re-)joins servers with fresh, empty replicas — a rejoining server
// remembers nothing, the hardest membership-churn case for consistency.
func Join(ids ...quorum.ServerID) Action {
	return membership{actionFunc{fmt.Sprintf("join%v", ids), func(rt *runtime) {
		for _, id := range ids {
			r, err := rt.World.Join(id)
			if err == nil && rt.Gossip != nil {
				// Departing id first tolerates a Join without a prior Leave.
				err = rt.Gossip.Replace([]quorum.ServerID{id}, []*replica.Replica{r})
			}
			if err != nil {
				panic(fmt.Sprintf("chaos: rejoin %d: %v", id, err))
			}
		}
	}}}
}

// BlockInbound severs every link *into* the listed servers (clients and
// peers cannot reach them; their own outbound calls still flow) — an
// asymmetric partition.
func BlockInbound(ids ...quorum.ServerID) Action {
	return actionFunc{fmt.Sprintf("block-in%v", ids), func(rt *runtime) {
		for _, id := range ids {
			rt.faults.Block(Any, id)
		}
	}}
}

// Heal removes every block and zeroes every link-fault probability.
func Heal() Action {
	return actionFunc{"heal", func(rt *runtime) { rt.faults.Heal() }}
}

// Drop sets the deterministic per-call (mem) or per-chunk (tcp-virtual)
// loss probability.
func Drop(p float64) Action {
	return actionFunc{fmt.Sprintf("drop(%g)", p), func(rt *runtime) { rt.faults.SetDrop(p) }}
}

// Duplicate sets the per-call duplication probability. On the byte-stream
// plane this is a deliberate no-op: TCP sequence numbers deduplicate
// segments, so at-least-once delivery is a fault class the stream transport
// provably rules out (the scenario still runs; the fault simply cannot
// manifest).
func Duplicate(p float64) Action {
	return actionFunc{fmt.Sprintf("dup(%g)", p), func(rt *runtime) {
		if rt.eng != nil {
			rt.eng.SetDuplicate(p)
		}
	}}
}

// Corrupt sets the per-call (mem) or per-chunk (tcp-virtual) corruption
// probability.
func Corrupt(p float64) Action {
	return actionFunc{fmt.Sprintf("corrupt(%g)", p), func(rt *runtime) { rt.faults.SetCorrupt(p) }}
}

// Reorder sets the maximum extra per-call (mem) or per-chunk (tcp-virtual)
// delivery delay.
func Reorder(max time.Duration) Action {
	return actionFunc{fmt.Sprintf("reorder(%v)", max), func(rt *runtime) { rt.faults.SetReorder(max) }}
}

// ByteRate limits every virtual link to bytesPerSec in both directions
// (0 restores infinite bandwidth). Chunks queue behind their serialization
// delay, so large frames — uncompressed gossip pushes above all — stretch
// op latency. No-op on the message plane (see ByteRateAsym).
func ByteRate(bytesPerSec int64) Action {
	return actionFunc{fmt.Sprintf("byterate(%d)", bytesPerSec), func(rt *runtime) {
		setByteRate(rt, bytesPerSec, bytesPerSec)
	}}
}

// ByteRateAsym limits virtual-link bandwidth per direction: toServer paces
// client→server chunks (request legs, gossip pushes), toClient the reply
// legs. Models asymmetric WAN access links. On the message plane this is a
// deliberate no-op: bandwidth is a property of a byte stream, and the
// MemNetwork carries messages, not bytes (the scenario still runs there;
// the fault simply cannot manifest — the same contract as Duplicate on the
// stream plane).
func ByteRateAsym(toServer, toClient int64) Action {
	return actionFunc{fmt.Sprintf("byterate(%d/%d)", toServer, toClient), func(rt *runtime) {
		setByteRate(rt, toServer, toClient)
	}}
}

func setByteRate(rt *runtime, toServer, toClient int64) {
	if rt.World.VNet != nil {
		rt.World.VNet.SetByteRateAsym(toServer, toClient)
	}
}

// Behave installs a behavior on the listed replicas (shared instance; use
// BehaveEach for stateful behaviors).
func Behave(b replica.Behavior, ids ...quorum.ServerID) Action {
	return actionFunc{fmt.Sprintf("behave%v", ids), func(rt *runtime) {
		Install(rt.World.Cluster, b, ids...)
	}}
}

// BehaveEach installs a freshly built behavior per listed replica.
func BehaveEach(mk func(id quorum.ServerID) replica.Behavior, ids ...quorum.ServerID) Action {
	return actionFunc{fmt.Sprintf("behave-each%v", ids), func(rt *runtime) {
		InstallEach(rt.World.Cluster, mk, ids...)
	}}
}

// Collude turns the listed replicas into a colluding forger set serving the
// given fabricated value.
func Collude(value string, ids ...quorum.ServerID) Action {
	return Behave(Colluders(value), ids...)
}

// Equivocate turns the listed replicas into equivocators.
func Equivocate(ids ...quorum.ServerID) Action {
	return BehaveEach(func(id quorum.ServerID) replica.Behavior { return &Equivocator{ID: id} }, ids...)
}

// BadSigEchoes turns the listed replicas into bad-signature echoes
// (replica.BadSigEcho): each answers the writer's genuine newest pair under
// a signature that cannot verify — the genuine one with a bit flipped, a
// different bit per replica, or with replay the genuine signature of the
// key's previous version.
func BadSigEchoes(replay bool, ids ...quorum.ServerID) Action {
	flavour := "garbage"
	if replay {
		flavour = "replay"
	}
	return actionFunc{fmt.Sprintf("bad-sig-echo(%s)%v", flavour, ids), func(rt *runtime) {
		InstallEach(rt.World.Cluster, func(id quorum.ServerID) replica.Behavior {
			return &replica.BadSigEcho{Bit: int(id), Replay: replay}
		}, ids...)
	}}
}

// StaleEchoes turns the listed replicas into stale echoes.
func StaleEchoes(ids ...quorum.ServerID) Action {
	return Behave(StaleEcho(), ids...)
}

// SlowDown turns the listed replicas into slow lorrises (per-replica
// escalating delay, capped at max, slept on the run's SimClock).
func SlowDown(step, max time.Duration, ids ...quorum.ServerID) Action {
	return actionFunc{fmt.Sprintf("behave-each%v", ids), func(rt *runtime) {
		InstallEach(rt.World.Cluster, func(quorum.ServerID) replica.Behavior {
			return &SlowLorris{Step: step, Max: max, Clock: rt.Clock}
		}, ids...)
	}}
}
