package main

import (
	"context"
	"fmt"
	"math/rand"

	"pqs"
	"pqs/internal/quorum"
	"pqs/internal/replica"
	"pqs/internal/transport"
	"pqs/internal/ts"
)

// writerID is the single writer identity every workload's client uses.
const writerID = 1

// cluster is one wall-clock system under test: n replicas in this process,
// one shared pqs.Client, and the oracle that judges what the client returns.
type cluster struct {
	sys     *pqs.System
	reps    []*replica.Replica
	servers []*transport.TCPServer // tcp plane only
	tcp     *transport.TCPClient   // tcp plane only
	client  *pqs.Client
	oracle  *oracle
}

// setup builds the workload's system, pre-populates every key at version 1
// and then turns the workload's forgers Byzantine. With a tracer, the
// transport and every replica handler are wrapped in its span decorators;
// without one nothing of the benchmark sits on the data path.
func (w *workload) setup(seed int64, tr *tracer) (*cluster, error) {
	sys, err := pqs.New(w.sys)
	if err != nil {
		return nil, err
	}
	c := &cluster{sys: sys, oracle: newOracle(w.keys, w.valueSize, seed)}
	handlers := make([]transport.Handler, sys.N())
	for i := range handlers {
		r := replica.New(quorum.ServerID(i))
		c.reps = append(c.reps, r)
		handlers[i] = r
		if tr != nil {
			handlers[i] = tr.handler(i, r)
		}
	}

	var tp transport.Transport
	switch w.plane {
	case planeMem:
		net := transport.NewMemNetwork(seed)
		for i, h := range handlers {
			net.Register(quorum.ServerID(i), h)
		}
		tp = net
	case planeTCP:
		addrs := make(map[quorum.ServerID]string, len(handlers))
		for i, h := range handlers {
			srv, err := transport.ListenTCPCodec("127.0.0.1:0", h, transport.CodecBinary)
			if err != nil {
				c.close()
				return nil, err
			}
			c.servers = append(c.servers, srv)
			addrs[quorum.ServerID(i)] = srv.Addr()
		}
		c.tcp = transport.NewTCPClientOpts(addrs, transport.TCPClientOptions{Codec: transport.CodecBinary})
		tp = c.tcp
	default:
		return nil, fmt.Errorf("workload %s: no wall-clock set-up on plane %q", w.name, w.plane)
	}
	if tr != nil {
		tp = tr.transport(tp)
	}

	cfg := pqs.ClientConfig{System: sys, Transport: tp, WriterID: writerID, Seed: seed}
	rng := rand.New(rand.NewSource(seed))
	if sys.Mode() == pqs.ModeDissemination {
		key, err := pqs.GenerateWriterKey(writerID, rng)
		if err != nil {
			c.close()
			return nil, err
		}
		cfg.Key = key
		cfg.Registry = pqs.NewRegistry()
		cfg.Registry.Add(writerID, key.Public)
	}
	if c.client, err = pqs.NewClient(cfg); err != nil {
		c.close()
		return nil, err
	}

	buf := make([]byte, w.valueSize)
	for k := 0; k < w.keys; k++ {
		c.oracle.encode(buf, k, 1)
		if _, err := c.client.Write(context.Background(), c.oracle.names[k], buf); err != nil {
			c.close()
			return nil, fmt.Errorf("pre-populating %s: %w", c.oracle.names[k], err)
		}
		c.oracle.completed[k].Store(1)
	}
	for _, id := range rng.Perm(sys.N())[:w.forgers] {
		c.reps[id].SetBehavior(replica.Forger{
			Value: c.oracle.forged,
			Stamp: ts.Stamp{Counter: 1 << 62, Writer: 0xFFFFFFFF},
			Sig:   []byte("forged"),
		})
	}
	return c, nil
}

// close tears the system down and waits for its goroutines.
func (c *cluster) close() {
	if c.client != nil {
		c.client.WaitDrained()
	}
	if c.tcp != nil {
		c.tcp.Close()
	}
	for _, s := range c.servers {
		s.Close()
	}
}

// tcpStats sums the wire counters of the client and every server.
func (c *cluster) tcpStats() (client, servers transport.TCPStats) {
	if c.tcp == nil {
		return
	}
	client = c.tcp.Stats()
	for _, s := range c.servers {
		st := s.Stats()
		servers.FramesRead += st.FramesRead
		servers.FramesWritten += st.FramesWritten
		servers.BytesRead += st.BytesRead
		servers.BytesWritten += st.BytesWritten
		servers.Flushes += st.Flushes
		servers.WritesCoalesced += st.WritesCoalesced
	}
	return
}
