package chaos

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"pqs/internal/config"
	"pqs/internal/core"
	"pqs/internal/register"
	"pqs/internal/sim"
	"pqs/internal/vtime"
)

// scripted is a Client whose gaps are a fixed list and whose step logs its
// name, arrival index and the instant it ran at.
type scripted struct {
	name  string
	gaps  []time.Duration
	clock *vtime.SimClock
	log   *[]string
}

func (c *scripted) Gap() time.Duration {
	g := c.gaps[0]
	c.gaps = c.gaps[1:]
	return g
}

func (c *scripted) Step(t int) error {
	*c.log = append(*c.log, fmt.Sprintf("%s#%d@%v", c.name, t, c.clock.Elapsed()))
	return nil
}

// TestDriveOrder pins Drive's ordering: clients arriving at one instant
// run in insertion order, a client re-inserted at an instant others
// already wait at runs after them, and a zero-gap population of one runs
// all its arrivals without the clock moving.
func TestDriveOrder(t *testing.T) {
	ms := time.Millisecond
	for _, tc := range []struct {
		name string
		gaps [][]time.Duration // per client: its first gap, then one per arrival
		n    int
		want []string
		end  time.Duration // the clock when Drive returns
	}{
		{"same instant, insertion order", [][]time.Duration{{ms, ms}, {ms, ms}}, 1,
			[]string{"c0#0@1ms", "c1#0@1ms"}, ms},
		// c0 is re-inserted at 1ms behind c1, which waits there from the
		// start; c1 is then re-inserted at 1ms behind c0.
		{"re-inserted behind the waiting", [][]time.Duration{{0, ms, 0}, {ms, 0, 0}}, 2,
			[]string{"c0#0@0s", "c1#0@1ms", "c0#1@1ms", "c1#1@1ms"}, ms},
		{"zero gap, population of one", [][]time.Duration{{0, 0, 0, 0, 0}}, 4,
			[]string{"c0#0@0s", "c0#1@0s", "c0#2@0s", "c0#3@0s"}, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var log []string
			end, _, err := Simulate(config.Cluster{N: 1, Seed: 1}, sim.TransportMem, 1, sim.TCPOptions{}, func(r *Rig) (time.Duration, error) {
				var clients []Client
				for i, g := range tc.gaps {
					clients = append(clients, &scripted{name: fmt.Sprintf("c%d", i), gaps: g, clock: r.Clock, log: &log})
				}
				err := r.Drive(clients, tc.n)
				return r.Clock.Elapsed(), err
			})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(log, tc.want) {
				t.Errorf("steps ran as %v, want %v", log, tc.want)
			}
			if end != tc.end {
				t.Errorf("the clock stands at %v after the run, want %v", end, tc.end)
			}
		})
	}
}

// TestRunRejectsBadKeysAndReadLag: Run refuses a negative Keys or ReadLag,
// and a ReadLag of Keys or more, whose lagged key is overwritten before its
// read; the edge of the range runs.
func TestRunRejectsBadKeysAndReadLag(t *testing.T) {
	sys, err := core.NewEpsilonIntersectingEll(16, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		name          string
		keys, readLag int
		ok            bool
	}{
		{name: "negative Keys", keys: -1},
		{name: "negative ReadLag", readLag: -1},
		{name: "ReadLag equal to Keys", keys: 4, readLag: 4},
		{name: "ReadLag above the default Keys", readLag: 8},
		{name: "ReadLag one below Keys", keys: 4, readLag: 3, ok: true},
	} {
		t.Run(row.name, func(t *testing.T) {
			_, err := Run(Config{Name: "edge", System: sys, Mode: register.Benign, Ops: 10,
				Keys: row.keys, ReadLag: row.readLag, Seed: 1, Bound: sys.EpsilonBound()})
			if row.ok && err != nil {
				t.Fatalf("Run refused a config in range: %v", err)
			}
			if !row.ok && err == nil {
				t.Fatal("Run accepted a config out of range")
			}
		})
	}
}
