package pqs_test

import (
	"context"
	"fmt"

	"pqs"
)

// ExampleNew shows how a target consistency guarantee resolves to a
// concrete construction with exact quality measures.
func ExampleNew() {
	sys, err := pqs.New(pqs.Config{N: 100, Epsilon: 1e-3, Mode: pqs.ModeBenign})
	if err != nil {
		panic(err)
	}
	fmt.Printf("quorum size: %d\n", sys.QuorumSize())
	fmt.Printf("load: %.2f\n", sys.Load())
	fmt.Printf("fault tolerance: %d of %d servers\n", sys.FaultTolerance(), sys.N())
	fmt.Printf("epsilon <= 1e-3: %v\n", sys.Epsilon() <= 1e-3)
	// Output:
	// quorum size: 23
	// load: 0.23
	// fault tolerance: 78 of 100 servers
	// epsilon <= 1e-3: true
}

// ExampleNewClient demonstrates the full write/read round trip on an
// in-process cluster.
func ExampleNewClient() {
	// Quorums of 16/30 guarantee intersection, making the example
	// deterministic; probabilistic sizes work the same way with ε risk.
	sys, err := pqs.New(pqs.Config{N: 30, Q: 16})
	if err != nil {
		panic(err)
	}
	cluster, err := pqs.NewCluster(pqs.ClusterConfig{N: sys.N(), Seed: 1})
	if err != nil {
		panic(err)
	}
	client, err := pqs.NewClient(pqs.ClientConfig{
		System:    sys,
		Transport: cluster.Transport(),
		WriterID:  1,
		Seed:      1,
	})
	if err != nil {
		panic(err)
	}
	ctx := context.Background()
	if _, err := client.Write(ctx, "greeting", []byte("hello, quorums")); err != nil {
		panic(err)
	}
	r, err := client.Read(ctx, "greeting")
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s (stamp %s, vouched by at least 2 servers: %v)\n",
		r.Value, r.Stamp, r.Vouchers >= 2)
	// Output:
	// hello, quorums (stamp 1@1, vouched by at least 2 servers: true)
}

// ExampleSystem_FailProb evaluates availability at crash probabilities
// beyond what any strict quorum system survives.
func ExampleSystem_FailProb() {
	sys, err := pqs.New(pqs.Config{N: 400, Epsilon: 1e-3})
	if err != nil {
		panic(err)
	}
	for _, p := range []float64{0.5, 0.6, 0.7} {
		fmt.Printf("p=%.1f: F_p < 1e-9: %v (any strict system has F_p >= %.1f)\n",
			p, sys.FailProb(p) < 1e-9, p)
	}
	// Output:
	// p=0.5: F_p < 1e-9: true (any strict system has F_p >= 0.5)
	// p=0.6: F_p < 1e-9: true (any strict system has F_p >= 0.6)
	// p=0.7: F_p < 1e-9: true (any strict system has F_p >= 0.7)
}

// ExampleLockService shows the voter-ID-locking pattern from the paper's
// e-voting application: lock a resource country-wide through quorums.
func ExampleLockService() {
	sys, err := pqs.New(pqs.Config{N: 30, Q: 16})
	if err != nil {
		panic(err)
	}
	cluster, err := pqs.NewCluster(pqs.ClusterConfig{N: sys.N(), Seed: 1})
	if err != nil {
		panic(err)
	}
	client, err := pqs.NewClient(pqs.ClientConfig{
		System: sys, Transport: cluster.Transport(), WriterID: 1, Seed: 1,
	})
	if err != nil {
		panic(err)
	}
	locks, err := pqs.NewLockService(client, "voterid/")
	if err != nil {
		panic(err)
	}
	ctx := context.Background()
	first, _ := locks.TryAcquire(ctx, "voter-1234", "station-7")
	second, _ := locks.TryAcquire(ctx, "voter-1234", "station-32")
	fmt.Printf("first use accepted: %v\n", first)
	fmt.Printf("repeat use accepted: %v\n", second)
	// Output:
	// first use accepted: true
	// repeat use accepted: false
}
