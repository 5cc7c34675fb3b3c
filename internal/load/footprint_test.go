package load

import (
	"fmt"
	"runtime"
	"testing"

	"pqs/internal/config"
	"pqs/internal/core"
	"pqs/internal/sim"
	"pqs/internal/vtime"
)

// TestClientFootprint gates what building one counting client costs: its
// register client, arrival and sampler sources, keys and write records.
// Measured with 2 000 clients on a mem world of 100 replicas a cell. With
// one cell: 11 745 B per client when the two sources were math/rand's (a
// 5 376 B table each), and 1 630 B with ChaCha8 (320 B each; 1 692 B under
// -race). With four cells, where each cell samples its own stream: 29 286 B
// when the cells' streams were math/rand's, and about 9 KB with
// quorum.NewRand's. ROADMAP's aim of 1.5× the one-cell cost is out of reach
// for the generator alone: the remaining ~7.4 KB is the cells' own state,
// which this gate does not break down. Going back to rand.NewSource, for
// the client's sources or for the cells', fails it.
func TestClientFootprint(t *testing.T) {
	for _, row := range []struct{ cells, limit int }{{1, 4096}, {4, 12288}} {
		t.Run(fmt.Sprintf("cells=%d", row.cells), func(t *testing.T) {
			perClient := buildCost(t, row.cells)
			t.Logf("%d B allocated per client", perClient)
			if perClient > uint64(row.limit) {
				t.Errorf("a %d-cell client costs %d B to build; the gate is %d B", row.cells, perClient, row.limit)
			}
		})
	}
}

// buildCost is the bytes allocated per counting client, over 2 000 clients
// of a cells-cell run on a mem world of 100 replicas a cell.
func buildCost(t *testing.T, cells int) uint64 {
	const clients = 2000
	sys, err := core.NewEpsilonIntersectingEll(100, 2)
	if err != nil {
		t.Fatal(err)
	}
	sc := vtime.NewSimClock()
	var perClient uint64
	sc.Run(func() {
		var world *sim.World
		world, err = sim.NewWorld(config.Cluster{Cells: cells, N: sys.N(), Seed: 1, Clock: sc}, sim.TransportMem, 1, sim.TCPOptions{})
		if err != nil {
			return
		}
		defer world.Close()
		e := &engine{cfg: Config{System: sys, Seed: 1, Topology: config.Topology{Cells: cells}}, sc: sc, world: world}
		built := make([]*clientState, clients)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for i := range built {
			if built[i], err = e.newClientState(i); err != nil {
				return
			}
		}
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(built)
		perClient = (after.TotalAlloc - before.TotalAlloc) / clients
	})
	if err != nil {
		t.Fatal(err)
	}
	return perClient
}
