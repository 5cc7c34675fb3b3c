package register

import (
	"context"

	"pqs/internal/quorum"
	"pqs/internal/vtime"
	"pqs/internal/wire"
)

// repair pushes the accepted value-timestamp pair back to targets, the read
// quorum members that reported something older or nothing (repairTargets).
// Read repair is the classical complement to lazy diffusion: it heals
// exactly the servers a read just observed to be stale, shrinking the window
// in which a second read can miss the value.
//
// push carries the signature of the accepted reply itself — in
// dissemination mode the one that verified, never that of another reply
// that merely named the same pair: replicas do not verify writes, so a
// Byzantine member answering the genuine pair under a garbage signature
// must not get the garbage spread.
//
// Repair is valid in benign mode (no adversary) and dissemination mode (the
// repaired entry carries a verifiable signature, so even a fooled-free read
// can only propagate genuine data). It must NOT be used in masking mode:
// there a read that was fooled by k colluders would write the fabricated
// value into correct servers, converting a transient inconsistency into a
// persistent one. NewClient enforces this.
//
// The read's drain runs beside these pushes, and its lateRepair may push to
// a member too. repairTargets leaves every member still in flight to the
// drain, so the two do not meet; were they to, both push the same entry and
// a replica keeps the highest stamp, so neither push wins over the other:
// whichever lands second changes nothing.
func (c *cell) repair(ctx context.Context, push wire.WriteRequest, targets []quorum.ServerID) {
	var req any = push
	wg := vtime.NewWaitGroup(c.clock)
	for _, id := range targets {
		// Best effort either way: a failed repair changes nothing. As in
		// dispatch, a push that cannot park completes here; the count is
		// taken first, as a pending push may complete before Start returns.
		wg.Add(1)
		if _, _, pending := c.start.Start(ctx, id, req, repairWait{wg}, 0); !pending {
			wg.Done()
		}
	}
	wg.Wait()
}

// repairWait is the sink of a repair's pending pushes: each is one Done.
type repairWait struct{ wg *vtime.WaitGroup }

// Complete implements transport.Sink.
func (w repairWait) Complete(int, any, error) { w.wg.Done() }

// repairTargets lists the servers the synchronous repair pass pushes to:
// access-set members that answered stale (or nothing, if their call already
// failed or everything has resolved), plus promoted spares observed stale.
// Members whose replies are still in flight (inFlight covers both eager
// returns and context-cancelled gathers) are left to the background drain's
// lateRepair, so repair never re-introduces the straggler wait the eager
// read just avoided and never targets members whose calls merely have not
// resolved yet.
func repairTargets(res *ReadResult, replies []readReply, errs map[quorum.ServerID]error, inFlight bool) []quorum.ServerID {
	current := func(r *wire.ReadReply) bool { return r.Found && !r.Stamp.Less(res.Stamp) }
	var targets []quorum.ServerID
	for _, id := range res.Quorum {
		var r *wire.ReadReply
		for i := range replies {
			if replies[i].id == id {
				r = &replies[i].msg
				break
			}
		}
		if r != nil {
			if !current(r) {
				targets = append(targets, id)
			}
		} else if _, failed := errs[id]; failed || !inFlight {
			targets = append(targets, id)
		}
	}
	for i := range replies {
		if !quorum.Contains(res.Quorum, replies[i].id) && !current(&replies[i].msg) {
			targets = append(targets, replies[i].id)
		}
	}
	return targets
}

// lateRepair returns the background-drain hook for a read that accepted a
// value with read repair on: it inspects replies that arrive after an eager
// read returned and pushes the accepted value (push, as in repair) to late
// repliers observed stale. The late read itself still runs on the
// operation's context (cancelling it aborts the straggler and there is
// nothing to repair); only the repair write is detached, so a reply that
// does arrive is healed even if the caller cancels between the reply and
// the repair. A push is started, not waited for: a drain parked on one
// could not take the read's next late reply, and under a SimClock that reply
// would hold virtual time, so the push would never land. WaitDrained waits
// for the pushes too.
func (c *cell) lateRepair(ctx context.Context, push wire.WriteRequest) func(callReply) {
	rctx := context.WithoutCancel(ctx)
	var req any = push
	return func(r callReply) {
		if r.err != nil {
			return
		}
		msg, ok := r.resp.(wire.ReadReply)
		if !ok {
			return
		}
		if msg.Found && !msg.Stamp.Less(push.Stamp) {
			return // already current
		}
		c.drainWG.Add(1)
		if _, err, pending := c.start.Start(rctx, r.id, req, lateRepairDone{c}, 0); !pending {
			lateRepairDone{c}.Complete(0, nil, err)
		}
	}
}

// lateRepairDone is the sink of a late repair push: a success is counted,
// and the push leaves the drain's wait group.
type lateRepairDone struct{ c *cell }

// Complete implements transport.Sink.
func (d lateRepairDone) Complete(_ int, _ any, err error) {
	if err == nil {
		d.c.statLateRepairs.Add(1)
	}
	d.c.drainWG.Done()
}
