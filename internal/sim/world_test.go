package sim

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"pqs/internal/config"
	"pqs/internal/quorum"
	"pqs/internal/transport"
	"pqs/internal/ts"
	"pqs/internal/vtime"
	"pqs/internal/wire"
)

// TestWorldContract holds World to its contract on both planes: the view
// counter moves on Leave and on a Join over a live replica, not on a Join
// into a departed slot nor on Crash and Recover; a departed server is an
// unknown address, and a joined one is a fresh, empty replica reached
// through the plane (on tcp-virtual, through the rebound listener); latency
// set on the World delays the calls the plane carries; and after Close the
// clock's Run returns.
func TestWorldContract(t *testing.T) {
	for _, plane := range []string{TransportMem, TransportTCPVirtual} {
		t.Run(plane, func(t *testing.T) {
			sc := vtime.NewSimClock()
			var err error
			sc.Run(func() {
				var w *World
				if w, err = NewWorld(config.Cluster{N: 3, Seed: 1, Clock: sc}, plane, 1, TCPOptions{}); err != nil {
					return
				}
				defer w.Close()
				err = worldContract(sc, w)
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// worldContract runs the contract's steps inside sc's Run, and returns the
// first broken clause.
func worldContract(sc *vtime.SimClock, w *World) error {
	ctx := context.Background()
	read := func(id quorum.ServerID) (any, error) { return w.Caller().Call(ctx, id, wire.ReadRequest{Key: "k"}) }
	// holds reports whether server id answers a read of the key with it.
	holds := func(id quorum.ServerID) (bool, error) {
		resp, err := read(id)
		if err != nil {
			return false, fmt.Errorf("read from %d: %w", id, err)
		}
		return resp.(wire.ReadReply).Found, nil
	}
	write := func(id quorum.ServerID) error {
		resp, err := w.Caller().Call(ctx, id, wire.WriteRequest{Key: "k", Value: []byte("v"), Stamp: ts.Stamp{Counter: 1, Writer: 1}})
		if err != nil || resp != (wire.WriteReply{Stored: true}) {
			return fmt.Errorf("write to %d = %v, %v", id, resp, err)
		}
		return nil
	}
	view := func(step string, want uint64) error {
		if got := w.View(); got != want {
			return fmt.Errorf("after %s: view %d, want %d", step, got, want)
		}
		return nil
	}

	if err := write(1); err != nil {
		return err
	}
	w.Crash(1)
	sc.Settle()
	if _, err := read(1); err == nil {
		return errors.New("a crashed server answered")
	}
	if err := view("Crash", 0); err != nil {
		return err
	}
	w.Recover(1)
	if err := view("Recover", 0); err != nil {
		return err
	}
	if ok, err := holds(1); err != nil || !ok {
		return fmt.Errorf("a recovered server lost its store (%v)", err)
	}

	w.Leave(1)
	sc.Settle()
	if err := view("Leave", 1); err != nil {
		return err
	}
	if _, err := read(1); !errors.Is(err, transport.ErrUnknownServer) {
		return fmt.Errorf("call to a departed server: %v, want ErrUnknownServer", err)
	}
	r, err := w.Join(1)
	if err != nil {
		return err
	}
	if err := view("Join into the departed slot", 1); err != nil {
		return err
	}
	if w.Cluster.Replicas[1] != r {
		return errors.New("Join did not install its replica in the cluster")
	}
	if ok, err := holds(1); err != nil || ok {
		return fmt.Errorf("the rejoined server holds the departed one's store, or is unreachable (%v)", err)
	}

	if err := write(2); err != nil {
		return err
	}
	if _, err := w.Join(2); err != nil {
		return err
	}
	if err := view("Join over a live replica", 2); err != nil {
		return err
	}
	if ok, err := holds(2); err != nil || ok {
		return fmt.Errorf("Join over a live replica kept its store, or lost the server (%v)", err)
	}
	if _, err := w.Join(3); err == nil {
		return errors.New("Join accepted an id outside the world")
	}

	start := sc.Elapsed()
	if _, err := read(0); err != nil {
		return err
	}
	if took := sc.Elapsed() - start; took != 0 {
		return fmt.Errorf("a call at zero latency took %v", took)
	}
	const lat = 5 * time.Millisecond
	w.SetLatency(lat, lat)
	start = sc.Elapsed()
	if _, err := read(0); err != nil {
		return err
	}
	if took := sc.Elapsed() - start; took < lat {
		return fmt.Errorf("a call under %v of latency took %v", lat, took)
	}
	return nil
}
