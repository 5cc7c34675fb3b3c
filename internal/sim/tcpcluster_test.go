package sim

import (
	"context"
	"sync"
	"testing"
	"time"

	"pqs/internal/config"
	"pqs/internal/replica"
	"pqs/internal/transport"
	"pqs/internal/vtime"
	"pqs/internal/wire"
)

// TestSwapHandlerKeepsTryHandle: the handler indirection in front of every
// tcp-virtual server forwards TryHandle to whatever it currently wraps and
// declines for a handler that has no such side (or whose replica may wait),
// across every swap — and in every state the call over the wire is
// answered, on the read loop or off it.
func TestSwapHandlerKeepsTryHandle(t *testing.T) {
	sc := vtime.NewSimClock()
	sc.Run(func() {
		w, err := NewWorld(config.Cluster{N: 1, Seed: 1, Clock: sc}, TransportTCPVirtual, 1, TCPOptions{})
		if err != nil {
			t.Error(err)
			return
		}
		defer w.Close()
		ctx := context.Background()
		sh := w.handlers[0]
		slow := replica.New(0)
		slow.SetBehavior(replica.Delayed{Delay: 50 * time.Millisecond, Clock: sc})
		plain := transport.HandlerFunc(func(context.Context, any) (any, error) { return wire.PingReply{ServerID: 7}, nil })

		for _, step := range []struct {
			name   string
			h      transport.Handler // nil: the replica NewWorld installed
			accept bool
			id     int
		}{
			{"the cluster's replica", nil, true, 0},
			{"a HandlerFunc", plain, false, 7},
			{"a Delayed replica", slow, false, 0},
			{"a fresh replica", replica.New(0), true, 0},
		} {
			if step.h != nil {
				sh.set(step.h)
			}
			resp, ok, err := sh.TryHandle(ctx, wire.PingRequest{})
			if ok != step.accept || err != nil {
				t.Errorf("%s: TryHandle ok %v, err %v; want ok %v", step.name, ok, err, step.accept)
			}
			if ok && resp != (wire.PingReply{ServerID: step.id}) {
				t.Errorf("%s: TryHandle answered %v", step.name, resp)
			}
			if resp, err := w.Caller().Call(ctx, 0, wire.PingRequest{}); err != nil || resp != (wire.PingReply{ServerID: step.id}) {
				t.Errorf("%s: call over the wire = %v, %v", step.name, resp, err)
			}
		}
	})
}

// TestSwapHandlerSetRacesRequests: requests load the {handler, TryHandler
// side} pair while set replaces it, with no lock between them. Every request
// is answered by one whole pair — a replica's TryHandle never paired with
// the HandlerFunc's missing one. Run under -race (make race).
func TestSwapHandlerSetRacesRequests(t *testing.T) {
	ctx := context.Background()
	plain := transport.HandlerFunc(func(context.Context, any) (any, error) { return wire.PingReply{ServerID: 7}, nil })
	sh := new(swapHandler)
	sh.set(plain)
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5000; i++ {
				if resp, ok, err := sh.TryHandle(ctx, wire.PingRequest{}); err != nil || ok && resp != (wire.PingReply{ServerID: 3}) {
					t.Errorf("TryHandle = %v, %v, %v; only the replica has that side", resp, ok, err)
					return
				}
				if resp, err := sh.Handle(ctx, wire.PingRequest{}); err != nil || resp != (wire.PingReply{ServerID: 3}) && resp != (wire.PingReply{ServerID: 7}) {
					t.Errorf("Handle = %v, %v", resp, err)
					return
				}
			}
		}()
	}
	for i := 0; i < 5000; i++ {
		sh.set(replica.New(3))
		sh.set(plain)
	}
	wg.Wait()
}
