// The dial-storm action: a burst of side traffic from many concurrent
// clients, aimed at one server, that runs to completion between two
// operation pairs. The storm exists to exercise the transport's connection
// lifecycle under contention — dial coalescing, redial backoff fast-fails,
// breaker trips — while the main client's recorded history stays
// byte-for-byte deterministic: storm traffic rides its own source
// identities (its own VirtualNet links, whose chunk sequences are keyed
// separately), its results are aggregated into Report counters, and none of
// its operations enter History.
package chaos

import (
	"context"
	"fmt"
	"sync/atomic"

	"pqs/internal/quorum"
	"pqs/internal/transport"
	"pqs/internal/vtime"
	"pqs/internal/wire"
)

// stormFleet is the number of distinct side clients a storm stands up on
// the tcp-virtual plane; workers share them round-robin, so pool slots and
// in-flight dials are genuinely contended.
const stormFleet = 16

// stormSourceBase is the first source identity the storm fleet dials from,
// far above any replica id so the fault plane attributes the links
// correctly.
const stormSourceBase quorum.ServerID = 1_000_000

// Storm fires workers concurrent clients at target, each issuing calls
// ping RPCs back to back, and waits for all of them before the schedule
// proceeds. On the tcp-virtual plane the storm runs through
// lifecycle-enabled TCP clients (Config.Lifecycle), so a storm against a
// crashed server measures backoff fast-fails and dial coalescing rather
// than a thundering herd of doomed dials; on the mem plane it calls the
// MemNetwork directly. Results land in Report.StormCalls/StormErrors.
func Storm(target quorum.ServerID, workers, calls int) Action {
	return actionFunc{fmt.Sprintf("storm(%d,%dx%d)", target, workers, calls), func(rt *runtime) {
		rt.storm(target, workers, calls)
	}}
}

// storm is the action body; it blocks until every worker finishes, so storm
// traffic never overlaps the recorded client operations.
func (rt *runtime) storm(target quorum.ServerID, workers, calls int) {
	ctx := context.Background()
	sched := vtime.SchedOf(rt.Clock)

	var fleet []*transport.TCPClient
	if rt.World.VNet != nil {
		n := stormFleet
		if workers < n {
			n = workers
		}
		fleet = make([]*transport.TCPClient, n)
		for i := range fleet {
			fleet[i] = rt.World.NewSourceClient(stormSourceBase+quorum.ServerID(i), rt.cfg.Lifecycle)
		}
	}

	var errs atomic.Uint64
	wg := vtime.NewWaitGroup(rt.Clock)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		w := w
		sched.Go(func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				var err error
				if fleet != nil {
					_, err = fleet[w%len(fleet)].Call(ctx, target, wire.PingRequest{})
				} else {
					_, err = rt.World.Caller().Call(ctx, target, wire.PingRequest{})
				}
				if err != nil {
					errs.Add(1)
				}
			}
		})
	}
	wg.Wait()
	rt.rep.StormCalls += uint64(workers * calls)
	rt.rep.StormErrors += errs.Load()
	for _, cl := range fleet {
		st := cl.Stats()
		rt.rep.StormCoalesced += st.DialsCoalesced
		rt.rep.StormFastFails += st.BackoffFastFails
		cl.Close()
	}
}
