package pqs

import (
	"context"
	"fmt"
	"testing"
)

func TestLocalClusterDiffusion(t *testing.T) {
	// Small quorums (q=5 of n=25, exact ε ≈ 0.29) miss writes often; after
	// a few gossip rounds no read can miss.
	sys, err := New(Config{N: 25, Q: 5})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(ClusterConfig{N: 25, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := cluster.GossipRounds(ctx, 1); err == nil {
		t.Fatal("GossipRounds before EnableDiffusion must fail")
	}
	if err := cluster.EnableDiffusion(2, 3); err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(ClientConfig{System: sys, Transport: cluster.Transport(), WriterID: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := client.Write(ctx, "x", []byte("spread me")); err != nil {
		t.Fatal(err)
	}
	if err := cluster.GossipRounds(ctx, 6); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		r, err := client.Read(ctx, "x")
		if err != nil {
			t.Fatal(err)
		}
		if !r.Found || string(r.Value) != "spread me" {
			t.Fatalf("read %d missed the diffused value: %+v", i, r)
		}
	}
}

func TestLocalClusterValidation(t *testing.T) {
	if _, err := NewCluster(ClusterConfig{N: 0, Seed: 1}); err == nil {
		t.Error("zero-size cluster accepted")
	}
	cluster, err := NewCluster(ClusterConfig{N: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(cluster.Replicas()) != 3 {
		t.Error("Replicas() size wrong")
	}
	// Byzantine toggling round-trips.
	cluster.MakeByzantine(0, []byte("evil"))
	cluster.MakeCorrect(0)
	cluster.SetDropProb(0)
}

// TestMultiCellFacade exercises the cells configuration end to end through
// the public API: a 4-cell cluster, keyspace routing, whole-cell crash
// isolation and recovery — and the same on a cluster built with Cells: 0,
// which is one cell and must crash and recover as cell 0.
func TestMultiCellFacade(t *testing.T) {
	for _, cfgCells := range []int{0, 4} {
		t.Run(fmt.Sprintf("Cells=%d", cfgCells), func(t *testing.T) { testCellFacade(t, cfgCells) })
	}
}

func testCellFacade(t *testing.T, cfgCells int) {
	const n, q = 15, 8
	cells := max(cfgCells, 1)
	sys, err := New(Config{N: n, Q: q})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(ClusterConfig{Cells: cfgCells, N: n, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if cluster.N() != cells*n || cluster.Cells() != cells {
		t.Fatalf("cluster layout %d servers / %d cells", cluster.N(), cluster.Cells())
	}
	client, err := NewClient(ClientConfig{
		System: sys, Transport: cluster.Transport(), WriterID: 1, Seed: 1,
		Topology: Topology{Cells: cfgCells},
	})
	if err != nil {
		t.Fatal(err)
	}
	if client.Cells() != cells {
		t.Fatalf("client.Cells() = %d, want %d", client.Cells(), cells)
	}
	ctx := context.Background()
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta"}
	for _, k := range keys {
		if _, err := client.Write(ctx, k, []byte("v-"+k)); err != nil {
			t.Fatalf("write %q: %v", k, err)
		}
	}
	for _, k := range keys {
		r, err := client.Read(ctx, k)
		if err != nil || !r.Found || string(r.Value) != "v-"+k {
			t.Fatalf("read %q: %+v %v", k, r, err)
		}
	}
	// Crash one whole cell: its keys fail, keys in other cells survive.
	victim := client.CellFor(keys[0])
	cluster.CrashCell(victim)
	if _, err := client.Read(ctx, keys[0]); err == nil {
		t.Fatalf("read from fully-crashed cell %d succeeded", victim)
	}
	for _, k := range keys[1:] {
		if client.CellFor(k) == victim {
			continue
		}
		if r, err := client.Read(ctx, k); err != nil || string(r.Value) != "v-"+k {
			t.Fatalf("cell %d crash leaked into key %q: %+v %v", victim, k, r, err)
		}
	}
	cluster.RecoverCell(victim)
	if r, err := client.Read(ctx, keys[0]); err != nil || string(r.Value) != "v-"+keys[0] {
		t.Fatalf("read after RecoverCell: %+v %v", r, err)
	}
	// A cell the cluster does not have is nobody's servers to crash.
	cluster.CrashCell(-1)
	cluster.CrashCell(cells)
	if got := cluster.net.CrashedCount(); got != 0 {
		t.Fatalf("CrashCell out of range crashed %d servers", got)
	}
}
