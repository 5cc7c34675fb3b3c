// The scenario DSL: a Schedule is a list of events fired at logical times
// (write/read pair indices), each carrying actions that mutate the network,
// the membership, or replica behaviors. Because actions fire at operation
// boundaries and contain no randomness of their own, a schedule replays
// identically from the run seed.
package chaos

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"pqs/internal/diffusion"
	"pqs/internal/quorum"
	"pqs/internal/replica"
	"pqs/internal/sim"
	"pqs/internal/transport"
	"pqs/internal/vtime"
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

// runtime is the mutable state actions operate on. Exactly one fault plane
// is live: eng (message-level, on the MemNetwork) for mem runs, tcp (byte-
// stream-level, on the VirtualNet) for tcp-virtual runs. Actions go through
// the dispatch methods below so every scenario drives either plane
// unchanged.
type runtime struct {
	cluster *sim.Cluster
	eng     *Engine         // mem runs; nil under tcp-virtual
	tcp     *sim.TCPCluster // tcp-virtual runs; nil under mem
	byID    map[quorum.ServerID]*replica.Replica
	// clock is the run's SimClock; behaviors with delays are built against
	// it.
	clock vtime.Clock
	// gossip is the diffusion group stepped between operation pairs when
	// Config.GossipEvery is set; Leave and Join keep its membership
	// current.
	gossip *diffusion.Group
	// lifecycle is Config.Lifecycle, handed to the dial-storm side clients
	// so they exercise the same pooling/backoff/breaker policy as the main
	// client.
	lifecycle transport.LifecycleConfig
	// stormCalls and stormErrors aggregate every Storm action's side
	// traffic for the report; stormCoalesced and stormFastFails collect the
	// storm fleet's lifecycle counters before the fleet is torn down.
	// Aggregates only — never part of History.
	stormCalls, stormErrors, stormCoalesced, stormFastFails atomic.Uint64
	// view is the membership-view version: bumped once per server whose
	// store is destroyed by churn — a Leave, or a Join that replaces a
	// still-live replica in place (a Join refilling a departed slot with an
	// empty store does not bump again; its Leave already did). Crash and
	// Recover are not membership churn — a crashed server keeps its store.
	// The run loop stamps view into each Op.View, which is what the timed-
	// quorum checker buckets reads by.
	view     uint64
	departed map[quorum.ServerID]bool
}

// noteLeave counts one copy-destroying departure.
func (rt *runtime) noteLeave(id quorum.ServerID) {
	rt.view++
	if rt.departed == nil {
		rt.departed = make(map[quorum.ServerID]bool)
	}
	rt.departed[id] = true
}

// noteJoin counts a join: a fresh empty replica over a live one destroys
// that store (a departure in timed-quorum terms); refilling an already-
// departed slot does not destroy anything further.
func (rt *runtime) noteJoin(id quorum.ServerID) {
	if rt.departed[id] {
		delete(rt.departed, id)
		return
	}
	rt.view++
}

// crash marks a server crashed on the live plane. On the byte-stream plane
// this also resets every connection touching the server (a crashed host's
// sockets die; clients re-dial after recovery).
func (rt *runtime) crash(id quorum.ServerID) {
	if rt.tcp != nil {
		rt.tcp.Net.Crash(id)
		return
	}
	rt.cluster.Net.Crash(id)
}

func (rt *runtime) recoverServer(id quorum.ServerID) {
	if rt.tcp != nil {
		rt.tcp.Net.Recover(id)
		return
	}
	rt.cluster.Net.Recover(id)
}

// leave departs a server from the membership on the live plane.
func (rt *runtime) leave(id quorum.ServerID) {
	if rt.tcp != nil {
		rt.tcp.Net.Deregister(id)
		return
	}
	rt.cluster.Net.Deregister(id)
}

// installReplica wires a fresh replica behind id's endpoint on the live
// plane (a membership rejoin).
func (rt *runtime) installReplica(id quorum.ServerID, r *replica.Replica) {
	if rt.tcp != nil {
		if err := rt.tcp.SetHandler(id, r); err != nil {
			panic(fmt.Sprintf("chaos: rejoin tcp %d: %v", id, err))
		}
		return
	}
	rt.cluster.Net.Register(id, r)
}

// block severs a directed link on the live plane (wildcards allowed; the
// chaos Any and transport.Anyone wildcards share a value by construction).
func (rt *runtime) block(from, to quorum.ServerID) {
	if rt.tcp != nil {
		rt.tcp.Net.Block(from, to)
		return
	}
	rt.eng.Block(from, to)
}

func (rt *runtime) heal() {
	if rt.tcp != nil {
		rt.tcp.Net.Heal()
		return
	}
	rt.eng.Heal()
}

// setDrop sets the loss probability: per call on the message plane, per
// framed chunk on the byte-stream plane (where a loss resets the
// connection — a stream cannot survive a gap).
func (rt *runtime) setDrop(p float64) {
	if rt.tcp != nil {
		rt.tcp.Net.SetDrop(p)
		return
	}
	rt.eng.SetDrop(p)
}

// setDuplicate sets the duplication probability. On the byte-stream plane
// this is a deliberate no-op: TCP sequence numbers deduplicate segments,
// so at-least-once delivery is a fault class the stream transport provably
// rules out (the scenario still runs; the fault simply cannot manifest).
func (rt *runtime) setDuplicate(p float64) {
	if rt.tcp != nil {
		return
	}
	rt.eng.SetDuplicate(p)
}

// setCorrupt sets the corruption probability: message re-encode + bit flip
// on the message plane, a bit flip inside a framed chunk on the
// byte-stream plane (which may break the length prefix, the body, or land
// in a payload byte the end-to-end defenses must absorb).
func (rt *runtime) setCorrupt(p float64) {
	if rt.tcp != nil {
		rt.tcp.Net.SetCorrupt(p)
		return
	}
	rt.eng.SetCorrupt(p)
}

// setReorder sets the maximum extra delivery delay (jitter).
func (rt *runtime) setReorder(d time.Duration) {
	if rt.tcp != nil {
		rt.tcp.Net.SetJitter(d)
		return
	}
	rt.eng.SetReorder(d)
}

// setByteRate limits link bandwidth per direction (bytes/sec; 0 = infinite;
// toServer paces request legs and gossip pushes, toClient paces replies).
// On the message plane this is a deliberate no-op: bandwidth is a property
// of a byte stream, and the MemNetwork carries messages, not bytes (the
// scenario still runs there; the fault simply cannot manifest — the same
// contract as Duplicate on the stream plane).
func (rt *runtime) setByteRate(toServer, toClient int64) {
	if rt.tcp != nil {
		rt.tcp.Net.SetByteRateAsym(toServer, toClient)
	}
}

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
			rt.crash(id)
		}
	}}
}

// Recover clears servers' crashed state.
func Recover(ids ...quorum.ServerID) Action {
	return actionFunc{fmt.Sprintf("recover%v", ids), func(rt *runtime) {
		for _, id := range ids {
			rt.recoverServer(id)
		}
	}}
}

// Leave departs servers from the membership: subsequent calls to them fail
// with ErrUnknownServer, as if the address were gone. A diffusion group,
// when the run has one, stops gossiping with them too.
func Leave(ids ...quorum.ServerID) Action {
	return actionFunc{fmt.Sprintf("leave%v", ids), func(rt *runtime) {
		for _, id := range ids {
			rt.leave(id)
			rt.noteLeave(id)
			if rt.gossip != nil {
				rt.gossip.Remove(id)
			}
		}
	}}
}

// Join (re-)joins servers with fresh, empty replicas — a rejoining server
// remembers nothing, the hardest membership-churn case for consistency.
func Join(ids ...quorum.ServerID) Action {
	return actionFunc{fmt.Sprintf("join%v", ids), func(rt *runtime) {
		for _, id := range ids {
			r := replica.New(id)
			if _, ok := rt.byID[id]; ok {
				for i, old := range rt.cluster.Replicas {
					if old.ID() == id {
						rt.cluster.Replicas[i] = r
					}
				}
			} else {
				rt.cluster.Replicas = append(rt.cluster.Replicas, r)
			}
			rt.byID[id] = r
			rt.installReplica(id, r)
			rt.noteJoin(id)
			if rt.gossip != nil {
				rt.gossip.Remove(id) // tolerate a Join without a prior Leave
				if err := rt.gossip.Add(r); err != nil {
					panic(fmt.Sprintf("chaos: rejoin gossip %d: %v", id, err))
				}
			}
		}
	}}
}

// BlockInbound severs every link *into* the listed servers (clients and
// peers cannot reach them; their own outbound calls still flow) — an
// asymmetric partition.
func BlockInbound(ids ...quorum.ServerID) Action {
	return actionFunc{fmt.Sprintf("block-in%v", ids), func(rt *runtime) {
		for _, id := range ids {
			rt.block(Any, id)
		}
	}}
}

// Heal removes every block and zeroes every link-fault probability.
func Heal() Action {
	return actionFunc{"heal", func(rt *runtime) { rt.heal() }}
}

// Drop sets the deterministic per-call (mem) or per-chunk (tcp-virtual)
// loss probability.
func Drop(p float64) Action {
	return actionFunc{fmt.Sprintf("drop(%g)", p), func(rt *runtime) { rt.setDrop(p) }}
}

// Duplicate sets the per-call duplication probability (no-op over a stream
// transport; see runtime.setDuplicate).
func Duplicate(p float64) Action {
	return actionFunc{fmt.Sprintf("dup(%g)", p), func(rt *runtime) { rt.setDuplicate(p) }}
}

// Corrupt sets the per-call (mem) or per-chunk (tcp-virtual) corruption
// probability.
func Corrupt(p float64) Action {
	return actionFunc{fmt.Sprintf("corrupt(%g)", p), func(rt *runtime) { rt.setCorrupt(p) }}
}

// Reorder sets the maximum extra per-call (mem) or per-chunk (tcp-virtual)
// delivery delay.
func Reorder(max time.Duration) Action {
	return actionFunc{fmt.Sprintf("reorder(%v)", max), func(rt *runtime) { rt.setReorder(max) }}
}

// ByteRate limits every virtual link to bytesPerSec in both directions
// (0 restores infinite bandwidth). Chunks queue behind their serialization
// delay, so large frames — uncompressed gossip pushes above all — stretch
// op latency. No-op on the message plane (see runtime.setByteRate).
func ByteRate(bytesPerSec int64) Action {
	return actionFunc{fmt.Sprintf("byterate(%d)", bytesPerSec), func(rt *runtime) {
		rt.setByteRate(bytesPerSec, bytesPerSec)
	}}
}

// ByteRateAsym limits virtual-link bandwidth per direction: toServer paces
// client→server chunks (request legs, gossip pushes), toClient the reply
// legs. Models asymmetric WAN access links. No-op on the message plane.
func ByteRateAsym(toServer, toClient int64) Action {
	return actionFunc{fmt.Sprintf("byterate(%d/%d)", toServer, toClient), func(rt *runtime) {
		rt.setByteRate(toServer, toClient)
	}}
}

// Behave installs a behavior on the listed replicas (shared instance; use
// BehaveEach for stateful behaviors).
func Behave(b replica.Behavior, ids ...quorum.ServerID) Action {
	return actionFunc{fmt.Sprintf("behave%v", ids), func(rt *runtime) {
		Install(rt.cluster, b, ids...)
	}}
}

// BehaveEach installs a freshly built behavior per listed replica.
func BehaveEach(mk func(id quorum.ServerID) replica.Behavior, ids ...quorum.ServerID) Action {
	return actionFunc{fmt.Sprintf("behave-each%v", ids), func(rt *runtime) {
		InstallEach(rt.cluster, mk, ids...)
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
		InstallEach(rt.cluster, func(id quorum.ServerID) replica.Behavior {
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
		InstallEach(rt.cluster, func(quorum.ServerID) replica.Behavior {
			return &SlowLorris{Step: step, Max: max, Clock: rt.clock}
		}, ids...)
	}}
}
