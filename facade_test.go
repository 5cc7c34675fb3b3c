package pqs

import (
	"context"
	"errors"
	"testing"
	"time"

	"pqs/internal/wire"
)

func TestFacadeRetryingClient(t *testing.T) {
	sys, err := New(Config{N: 12, Q: 7})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(ClusterConfig{N: 12, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewClient(ClientConfig{
		System: sys, Transport: cluster.Transport(), WriterID: 1, Seed: 10,
		RequireFullWrite: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rc, err := NewRetryingClient(base, 60)
	if err != nil {
		t.Fatal(err)
	}
	cluster.SetDropProb(0.25)
	ctx := context.Background()
	if _, err := rc.Write(ctx, "x", []byte("resilient")); err != nil {
		t.Fatalf("retrying write failed: %v", err)
	}
	cluster.SetDropProb(0)
	r, err := rc.Read(ctx, "x")
	if err != nil {
		t.Fatal(err)
	}
	if !r.Found || string(r.Value) != "resilient" {
		t.Errorf("read %+v", r)
	}
}

func TestFacadeReadRepair(t *testing.T) {
	sys, err := New(Config{N: 20, Q: 11})
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := NewCluster(ClusterConfig{N: 20, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(ClientConfig{
		System: sys, Transport: cluster.Transport(), WriterID: 1, Seed: 11,
		Tuning: Tuning{ReadRepair: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := client.Write(ctx, "x", []byte("heal")); err != nil {
		t.Fatal(err)
	}
	// After a handful of repairing reads, the value is everywhere: even a
	// read quorum disjoint from the original write quorum (impossible here
	// with q=11, but members individually stale) holds it.
	for i := 0; i < 5; i++ {
		if _, err := client.Read(ctx, "x"); err != nil {
			t.Fatal(err)
		}
	}
	holders := 0
	for _, rep := range cluster.Replicas() {
		if e, ok := rep.Store().Get("x"); ok && string(e.Value) == "heal" {
			holders++
		}
	}
	if holders < 15 {
		t.Errorf("only %d/20 servers hold the value after repairing reads", holders)
	}
	// Masking mode + repair must be rejected at the facade level too.
	msys, err := New(Config{N: 20, Mode: ModeMasking, B: 2, Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(ClientConfig{
		System: msys, Transport: cluster.Transport(), WriterID: 1, Tuning: Tuning{ReadRepair: true},
	}); err == nil {
		t.Error("masking + read repair accepted by facade")
	}
}

// TestFacadeDialConfigLifecycle drives the DialConfig facade end to end over
// real sockets with the connection lifecycle enabled: pooled connections
// serve a read/write workload, and after the servers go away the circuit
// breaker trips and surfaces ErrServerDown without waiting out a dial.
func TestFacadeDialConfigLifecycle(t *testing.T) {
	const n = 3
	addrs := make(map[int]string, n)
	servers := make([]*Server, n)
	for i := 0; i < n; i++ {
		srv, err := ListenAndServe(i, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
		addrs[i] = srv.Addr()
	}
	tc, err := DialConfig(addrs, DialOptions{
		CallTimeout: 2 * time.Second,
		Lifecycle: LifecycleConfig{
			PoolSize:         2,
			DialBackoffBase:  time.Millisecond,
			BreakerThreshold: 1,
			BreakerCooldown:  time.Minute, // stays open for the rest of the test
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()

	sys, err := New(Config{N: n, Q: 2})
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(ClientConfig{System: sys, Transport: tc, WriterID: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := client.Write(ctx, "lc", []byte("pooled")); err != nil {
		t.Fatal(err)
	}
	r, err := client.Read(ctx, "lc")
	if err != nil || !r.Found || string(r.Value) != "pooled" {
		t.Fatalf("read %+v, err %v", r, err)
	}
	if got := tc.Stats().Conns; got == 0 {
		t.Fatal("lifecycle pool reported zero dialed connections")
	}

	for _, srv := range servers {
		srv.Close()
	}
	// Existing pooled connections die with the servers; the next dials are
	// refused and trip the per-server breakers, after which calls must fail
	// immediately with the typed error.
	deadline := time.Now().Add(10 * time.Second)
	for {
		_, err := tc.Call(ctx, 0, wire.PingRequest{})
		if errors.Is(err, ErrServerDown) {
			break
		}
		if err == nil {
			t.Fatal("call succeeded against a closed server")
		}
		if time.Now().After(deadline) {
			t.Fatalf("breaker never opened; last error: %v", err)
		}
	}
	if got := tc.Stats().BreakerTrips; got == 0 {
		t.Fatal("breaker tripped but BreakerTrips == 0")
	}
}

// TestFacadeServerMakeCorrect: over real sockets, a benign client reads the
// forged value while every replica forges, and the written value again
// once MakeCorrect restores each of them.
func TestFacadeServerMakeCorrect(t *testing.T) {
	const n = 3
	servers := make([]*Server, n)
	addrs := make(map[int]string, n)
	for i := range servers {
		srv, err := ListenAndServe(i, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		servers[i], addrs[i] = srv, srv.Addr()
	}
	tc, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	sys, err := New(Config{N: n, Q: n})
	if err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(ClientConfig{System: sys, Transport: tc, WriterID: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := client.Write(ctx, "x", []byte("genuine")); err != nil {
		t.Fatal(err)
	}
	read := func() string {
		t.Helper()
		r, err := client.Read(ctx, "x")
		if err != nil {
			t.Fatal(err)
		}
		return string(r.Value)
	}
	for _, srv := range servers {
		srv.MakeByzantine([]byte("forged"))
	}
	if got := read(); got != "forged" {
		t.Fatalf("with every replica forging, read %q", got)
	}
	for _, srv := range servers {
		srv.MakeCorrect()
	}
	if got := read(); got != "genuine" {
		t.Errorf("after MakeCorrect, read %q, want the written value", got)
	}
}

// TestFacadeParseCodec: the flag-level codec names map to the codecs, and
// anything else is refused.
func TestFacadeParseCodec(t *testing.T) {
	for name, want := range map[string]Codec{"binary": CodecBinary, "binary-flate": CodecBinaryFlate} {
		if got, err := ParseCodec(name); err != nil || got != want {
			t.Errorf("ParseCodec(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseCodec("gob"); err == nil {
		t.Error(`ParseCodec("gob") accepted`)
	}
}
