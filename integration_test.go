package pqs

import (
	"context"
	"math/rand"
	"testing"
	"time"
)

// TestIntegrationTCPByzantineDissemination exercises the full stack over
// real sockets: signed writes, Byzantine servers forging replies, and the
// dissemination read filtering them out.
func TestIntegrationTCPByzantineDissemination(t *testing.T) {
	n, b := 7, 2
	servers := make([]*Server, n)
	addrs := make(map[int]string, n)
	for i := 0; i < n; i++ {
		srv, err := ListenAndServe(i, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		servers[i] = srv
		addrs[i] = srv.Addr()
	}
	for i := 0; i < b; i++ {
		servers[i].MakeByzantine([]byte("forged"))
	}
	tc, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()

	sys, err := New(Config{N: n, Mode: ModeDissemination, B: b, Epsilon: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	key, err := GenerateWriterKey(1, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := reg.Add(key.ID, key.Public); err != nil {
		t.Fatal(err)
	}
	client, err := NewClient(ClientConfig{
		System: sys, Transport: tc, WriterID: key.ID, Key: key, Registry: reg, Seed: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := client.Write(ctx, "x", []byte("genuine")); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		r, err := client.Read(ctx, "x")
		if err != nil {
			t.Fatal(err)
		}
		if r.Found && string(r.Value) == "forged" {
			t.Fatalf("read %d accepted a forgery over TCP", i)
		}
	}
}

// TestIntegrationTCPDiffusion runs background gossip between TCP servers
// and verifies a value written through a tiny quorum becomes visible on
// every server.
func TestIntegrationTCPDiffusion(t *testing.T) {
	n := 5
	servers := make([]*Server, n)
	addrs := make(map[int]string, n)
	for i := 0; i < n; i++ {
		srv, err := ListenAndServe(i, "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		servers[i] = srv
		addrs[i] = srv.Addr()
	}
	for _, srv := range servers {
		if err := srv.StartDiffusion(addrs, 2, 5*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	// Double start must be rejected.
	if err := servers[0].StartDiffusion(addrs, 2, time.Millisecond); err == nil {
		t.Fatal("double StartDiffusion accepted")
	}

	tc, err := Dial(addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer tc.Close()
	sys, err := New(Config{N: n, Q: 1}) // a single-server "quorum": worst case for consistency
	if err != nil {
		t.Fatal(err)
	}
	writer, err := NewClient(ClientConfig{System: sys, Transport: tc, WriterID: 1, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if _, err := writer.Write(ctx, "x", []byte("spread over tcp")); err != nil {
		t.Fatal(err)
	}

	// Poll: eventually every read (from 1-server quorums) is fresh, which
	// requires the value on every server.
	reader, err := NewClient(ClientConfig{System: sys, Transport: tc, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for {
		allFresh := true
		for i := 0; i < 3*n; i++ {
			r, err := reader.Read(ctx, "x")
			if err != nil || !r.Found || string(r.Value) != "spread over tcp" {
				allFresh = false
				break
			}
		}
		if allFresh {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("diffusion over TCP never converged")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// StopDiffusion is idempotent.
	servers[0].StopDiffusion()
	servers[0].StopDiffusion()
}
