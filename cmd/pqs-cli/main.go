// Command pqs-cli reads and writes a replicated variable served by pqsd
// replicas over TCP.
//
// Usage:
//
//	pqs-cli -servers 0=127.0.0.1:7000,1=127.0.0.1:7001,2=127.0.0.1:7002 \
//	        -q 2 put greeting hello
//	pqs-cli -servers ... -q 2 get greeting
//
// The universe size is the number of servers given; -q (or -eps) selects
// the quorum size exactly as in the library.
//
// With -cells C the server list is read as C independent quorum cells of
// n = len(servers)/C replicas each (cell i owns ids [i·n, (i+1)·n)), and
// every key is routed to one cell by consistent hashing — the multi-tenant
// keyspace layout. -q/-eps then size the per-cell quorum:
//
//	pqs-cli -servers 0=..,1=..,2=..,3=..,4=..,5=.. -cells 2 -q 2 put greeting hello
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"pqs"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "pqs-cli:", err)
		os.Exit(1)
	}
}

func run() error {
	servers := flag.String("servers", "", "comma-separated id=host:port pairs")
	modeStr := flag.String("mode", "benign", "failure model: benign, masking")
	b := flag.Int("b", 0, "byzantine servers tolerated (masking)")
	eps := flag.Float64("eps", 1e-3, "target consistency error")
	q := flag.Int("q", 0, "explicit quorum size (overrides -eps)")
	cells := flag.Int("cells", 1, "partition the keyspace across this many quorum cells; "+
		"the server list must hold cells×n replicas, cell i owning ids [i·n, (i+1)·n)")
	writer := flag.Uint("writer", 1, "writer id for puts")
	timeout := flag.Duration("timeout", 5*time.Second, "per-operation timeout")
	stats := flag.Bool("stats", false, "print the client's AccessStats as JSON after the operation")
	codecStr := flag.String("codec", "binary", "wire codec: binary or binary-flate (compressed WAN profile); must match the servers'")
	flag.Parse()

	addrs, err := parseServers(*servers)
	if err != nil {
		return err
	}
	args := flag.Args()
	if len(args) < 2 {
		return fmt.Errorf("usage: pqs-cli -servers ... get <key> | put <key> <value>")
	}

	var mode pqs.Mode
	switch *modeStr {
	case "benign":
		mode = pqs.ModeBenign
	case "masking":
		mode = pqs.ModeMasking
	default:
		return fmt.Errorf("unsupported mode %q (dissemination needs key distribution; use the library)", *modeStr)
	}

	if *cells < 1 {
		return fmt.Errorf("-cells %d must be at least 1", *cells)
	}
	if len(addrs)%*cells != 0 {
		return fmt.Errorf("-cells %d does not divide the %d-server universe", *cells, len(addrs))
	}
	// The per-cell universe is what the quorum construction sees: each cell
	// is an independent PQS over its own n servers.
	sys, err := pqs.New(pqs.Config{N: len(addrs) / *cells, Mode: mode, B: *b, Epsilon: *eps, Q: *q})
	if err != nil {
		return err
	}
	codec, err := pqs.ParseCodec(*codecStr)
	if err != nil {
		return err
	}
	tc, err := pqs.DialConfig(addrs, pqs.DialOptions{Codec: codec})
	if err != nil {
		return err
	}
	defer tc.Close()
	client, err := pqs.NewClient(pqs.ClientConfig{
		System:    sys,
		Transport: tc,
		WriterID:  uint32(*writer),
		Seed:      time.Now().UnixNano(),
		Topology:  pqs.Topology{Cells: *cells},
	})
	if err != nil {
		return err
	}

	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	cellNote := ""
	if *cells > 1 {
		cellNote = fmt.Sprintf(", cell %d", client.CellFor(args[1]))
	}
	switch args[0] {
	case "get":
		r, err := client.Read(ctx, args[1])
		if err != nil {
			return err
		}
		if !r.Found {
			fmt.Printf("(not found; %d/%d replied%s)\n", r.Replies, len(r.Quorum), cellNote)
			return nil
		}
		fmt.Printf("%s\t(stamp %s, %d vouchers, %d/%d replied%s)\n",
			r.Value, r.Stamp, r.Vouchers, r.Replies, len(r.Quorum), cellNote)
	case "put":
		if len(args) < 3 {
			return fmt.Errorf("put needs <key> <value>")
		}
		w, err := client.Write(ctx, args[1], []byte(args[2]))
		if err != nil {
			return err
		}
		fmt.Printf("ok\t(stamp %s, %d/%d acked%s)\n", w.Stamp, len(w.Acked), len(w.Quorum), cellNote)
	default:
		return fmt.Errorf("unknown command %q", args[0])
	}
	if *stats {
		client.WaitDrained() // settle background drains so counters are final
		out, err := json.Marshal(client.Stats())
		if err != nil {
			return err
		}
		fmt.Printf("stats\t%s\n", out)
	}
	return nil
}

// parseServers reads the -servers list. The client builds its universe over
// ids 0..n-1, so the list must name each of them exactly once.
func parseServers(s string) (map[int]string, error) {
	if s == "" {
		return nil, fmt.Errorf("-servers is required")
	}
	out := make(map[int]string)
	for _, pair := range strings.Split(s, ",") {
		id, addr, ok := strings.Cut(pair, "=")
		if !ok {
			return nil, fmt.Errorf("bad server spec %q (want id=host:port)", pair)
		}
		n, err := strconv.Atoi(id)
		if err != nil {
			return nil, fmt.Errorf("bad server id %q: %w", id, err)
		}
		if prev, dup := out[n]; dup {
			return nil, fmt.Errorf("server id %d listed twice (%s and %s)", n, prev, addr)
		}
		out[n] = addr
	}
	for id := 0; id < len(out); id++ {
		if _, ok := out[id]; !ok {
			return nil, fmt.Errorf("server id %d is missing: %d servers must have ids 0..%d", id, len(out), len(out)-1)
		}
	}
	return out, nil
}
